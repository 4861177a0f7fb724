package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"syscall"
	"unsafe"
)

// Request generation. Every body a run sends is generated from the seed
// before timing, into off-heap buffers sized up front: the program under
// test sees only bytes, and the generator adds nothing to the heap whose
// allocations and live size the benchmark reports.

// zoo is the model zoo every workload draws from: the four dense networks
// and the grouped MobileNet-V2 and ResNeXt-50, in the popularity order the
// repository's fleet benchmark (internal/bench/fleet.go) gives them.
var zoo = []string{"VGG-13", "ResNet-18", "VGG-16", "AlexNet", "MobileNet-V2", "ResNeXt-50"}

// option is one of the compile option sets cold-explore and warm-restart
// draw from: the default single-array chip, a four-array chip, and gated
// peripherals.
type option struct {
	json   string // the body's "options" member, empty for the defaults
	arrays int
	gated  bool
}

var options = []option{
	{json: ``},
	{json: `,"options":{"arrays":4}`, arrays: 4},
	{json: `,"options":{"gate_peripherals":true}`, gated: true},
}

// Cold-explore's array grid: rows and cols each from 64 to 1024 in steps
// of 16.
const (
	gridMin  = 64
	gridMax  = 1024
	gridStep = 16
	gridSide = (gridMax-gridMin)/gridStep + 1
)

// coldKeys is the number of distinct (network, array) pairs; a cold-explore
// run draws its requests from them without replacement.
var coldKeys = len(zoo) * gridSide * gridSide

// warmArrays are the square arrays of warm-restart's stored plans.
var warmArrays = []int{128, 256, 384, 512}

// zipfS is the exponent of warm-restart's popularity law: the one the
// fleet benchmark (internal/bench/fleet.go) models compile-service traffic
// with.
const zipfS = 1.2

// codesignSpaces are the networks codesign's design spaces are built for.
var codesignSpaces = []string{"ResNet-18", "VGG-13", "AlexNet", "MobileNet-V2", "ResNeXt-50"}

// compileReq is the generator's own record of one /v1/compile body, kept
// so checks can rebuild the expected request without the server's decoder.
type compileReq struct {
	net        uint8 // index into zoo
	opt        uint8 // index into options
	rows, cols uint16
}

// body renders the /v1/compile body of r.
func (r compileReq) body() string {
	return fmt.Sprintf(`{"network":%q,"array":"%dx%d"%s}`, zoo[r.net], r.rows, r.cols, options[r.opt].json)
}

// inputs are a run's request bodies: the distinct bodies back to back in
// one buffer, plus the sequence of body indices the requests send. All
// three slices live outside the Go heap.
type inputs struct {
	path string
	buf  []byte
	off  []uint32 // body b is buf[off[b]:off[b+1]]
	seq  []uint32 // request i sends body seq[i]
}

// newInputs copies bodies into off-heap buffers and records seq.
func newInputs(path string, bodies []string, seq []uint32) (*inputs, error) {
	size := 0
	for _, b := range bodies {
		size += len(b)
	}
	in := &inputs{path: path}
	var err error
	if in.buf, err = offHeap[byte](size); err != nil {
		return nil, err
	}
	if in.off, err = offHeap[uint32](len(bodies) + 1); err != nil {
		return nil, err
	}
	if in.seq, err = offHeap[uint32](len(seq)); err != nil {
		return nil, err
	}
	n := 0
	for i, b := range bodies {
		n += copy(in.buf[n:], b)
		in.off[i+1] = uint32(n)
	}
	copy(in.seq, seq)
	return in, nil
}

func (in *inputs) n() int { return len(in.seq) }

// prefix returns the first m requests of in.
func (in *inputs) prefix(m int) *inputs {
	p := *in
	p.seq = in.seq[:min(m, len(in.seq))]
	return &p
}

// body returns the body request i sends.
func (in *inputs) body(i int) []byte {
	b := in.seq[i]
	return in.buf[in.off[b]:in.off[b+1]]
}

// newRand returns the workload's generator for seed; the stream constant
// keeps the workloads' sequences independent of each other.
func newRand(seed uint64, stream string) *rand.Rand {
	var s uint64
	for _, c := range []byte(stream) {
		s = s*131 + uint64(c)
	}
	return rand.New(rand.NewPCG(seed, s))
}

// genColdExplore draws n cold-explore requests, n ≤ coldKeys, and returns
// them with the generator's record of each, both off the heap. Each network
// gets an equal share of the requests (within one), each on an array drawn
// without replacement from its own shuffle of the grid, with the three
// option sets rotated in seeded blocks; the requests are then shuffled. No
// (network, array) pair repeats, so no compile key does either.
func genColdExplore(seed uint64, n int) ([]compileReq, *inputs, error) {
	r := newRand(seed, "cold-explore")
	reqs := make([]compileReq, 0, n)
	for net := range zoo {
		share := n / len(zoo)
		if net < n%len(zoo) {
			share++
		}
		cells := r.Perm(gridSide * gridSide)[:share]
		var opts []int
		for j, cell := range cells {
			if j%len(options) == 0 {
				opts = r.Perm(len(options))
			}
			reqs = append(reqs, compileReq{
				net:  uint8(net),
				opt:  uint8(opts[j%len(options)]),
				rows: uint16(gridMin + gridStep*(cell/gridSide)),
				cols: uint16(gridMin + gridStep*(cell%gridSide)),
			})
		}
	}
	r.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	bodies := make([]string, n)
	seq := make([]uint32, n)
	for i, q := range reqs {
		bodies[i] = q.body()
		seq[i] = uint32(i)
	}
	in, err := newInputs("/v1/compile", bodies, seq)
	if err != nil {
		return nil, nil, err
	}
	kept, err := offHeap[compileReq](n)
	copy(kept, reqs)
	return kept, in, err
}

// warmManifest lists warm-restart's 72 stored plans in popularity order.
// Within an option set the order is the fleet benchmark's: network by
// network in zoo order, arrays from the smallest. The default options,
// which are all the fleet benchmark sends, rank first, then the four-array
// chip, then gated peripherals.
func warmManifest() []compileReq {
	var reqs []compileReq
	for o := range options {
		for net := range zoo {
			for _, a := range warmArrays {
				reqs = append(reqs, compileReq{net: uint8(net), opt: uint8(o), rows: uint16(a), cols: uint16(a)})
			}
		}
	}
	return reqs
}

// genWarmRestart draws n warm-restart requests: a zipfian mix over the
// manifest, with key k requested in proportion to 1/(k+1)^zipfS, in seeded
// order. The request counts per key are fixed by n alone, so every seed
// sends the same multiset of requests.
func genWarmRestart(seed uint64, n int) ([]compileReq, *inputs, error) {
	keys := warmManifest()
	weights := make([]float64, len(keys))
	total := 0.0
	for k := range keys {
		weights[k] = math.Pow(float64(k+1), -zipfS)
		total += weights[k]
	}
	seq := make([]uint32, 0, n)
	for k := range keys {
		c := int(float64(n) * weights[k] / total)
		for range c {
			seq = append(seq, uint32(k))
		}
	}
	for k := 0; len(seq) < n; k++ {
		seq = append(seq, uint32(k))
	}
	r := newRand(seed, "warm-restart")
	r.Shuffle(n, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	bodies := make([]string, len(keys))
	for k, q := range keys {
		bodies[k] = q.body()
	}
	in, err := newInputs("/v1/compile", bodies, seq)
	return keys, in, err
}

// codesignBody is the /v1/optimize body for network: arrays {128², 256²,
// 512²} × chips {1, 4} × gating {off, on} × 2 layer groups, 36 points.
func codesignBody(network string) string {
	return fmt.Sprintf(`{"name":"codesign-%s","network":%q,"arrays":["128x128","256x256","512x512"],`+
		`"chips":[1,4],"gating":[false,true],"layer_groups":2}`, network, network)
}

// genCodesign draws n codesign requests: the spaces in a seeded rotation,
// each block of len(codesignSpaces) requests a fresh permutation.
func genCodesign(seed uint64, n int) (*inputs, error) {
	r := newRand(seed, "codesign")
	seq := make([]uint32, 0, n)
	for len(seq) < n {
		for _, s := range r.Perm(len(codesignSpaces)) {
			if len(seq) < n {
				seq = append(seq, uint32(s))
			}
		}
	}
	bodies := make([]string, len(codesignSpaces))
	for s, net := range codesignSpaces {
		bodies[s] = codesignBody(net)
	}
	return newInputs("/v1/optimize", bodies, seq)
}

// offHeap returns a zeroed slice of n elements mapped outside the Go heap,
// with every page already faulted in. Buffers the benchmark holds during a
// timed phase live here, so they neither count in heap_live_mb nor change
// when the collector runs. T must hold no pointers: the collector does not
// scan this memory. The mapping lives until the process exits.
func offHeap[T any](n int) ([]T, error) {
	var zero T
	size := max(int(unsafe.Sizeof(zero))*n, 1)
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d bytes off the heap: %w", size, err)
	}
	for i := 0; i < len(b); i += syscall.Getpagesize() {
		b[i] = 0
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n), nil
}
