package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	"repro/internal/obs"
)

// sink is a workload's response writer for one timed phase. ServeHTTP
// writes into it; begin and end bracket each request inside the measured
// window, so they must be cheap and allocation-free. Checks that allocate
// wait for flush, which runs outside the windows whenever full reports
// that the sink cannot take another response.
type sink interface {
	http.ResponseWriter
	begin(i int)
	end(i int)
	full() bool
	flush()
}

// respWriter is the header and status bookkeeping every sink shares. Its
// header map is cleared between requests and so stops allocating once it
// has grown.
type respWriter struct {
	header http.Header
	status int
}

func (w *respWriter) Header() http.Header { return w.header }

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) wrote() {
	if w.status == 0 {
		w.status = http.StatusOK
	}
}

func (w *respWriter) reset() {
	clear(w.header)
	w.status = 0
}

// Flush makes every sink an http.Flusher, as a real connection is, so the
// NDJSON handlers take their streaming path.
func (w *respWriter) Flush() {}

// bodyBuf is a response writer that copies one response into an off-heap
// buffer, as a connection copies it out. Every implementation pays the same
// copy whichever buffer it writes from, and the sink compares the copy in
// end, after the latency has been taken.
type bodyBuf struct {
	respWriter
	buf  []byte
	n    int
	over bool // the response did not fit
}

func newBodyBuf(size int) (bodyBuf, error) {
	buf, err := offHeap[byte](size)
	return bodyBuf{respWriter: respWriter{header: http.Header{}}, buf: buf}, err
}

func (b *bodyBuf) begin(int) {
	b.reset()
	b.n, b.over = 0, false
}

func (b *bodyBuf) Write(p []byte) (int, error) {
	b.wrote()
	if b.n+len(p) > len(b.buf) {
		b.over = true
		return len(p), nil
	}
	b.n += copy(b.buf[b.n:], p)
	return len(p), nil
}

// is reports whether the response was a 200 whose body equals want.
func (b *bodyBuf) is(want []byte) bool {
	return b.status == http.StatusOK && !b.over && bytes.Equal(b.buf[:b.n], want)
}

// bodyReader replays one pre-generated body; the benchmark reuses a single
// request and reader for every call, so request construction allocates
// nothing inside the timed phase.
type bodyReader struct {
	b   []byte
	off int
}

func (r *bodyReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

func (r *bodyReader) Close() error { return nil }

// window accumulates the process-wide counters of the measured windows of
// one timed phase.
type window struct {
	cpu            time.Duration
	mallocs, bytes uint64
	gcs            uint32
	gcPause        time.Duration
	steal, ticks   uint64

	// readings taken when the current window opened, and scratch space for
	// the closing ones
	cpu0           time.Duration
	ms0, ms1       runtime.MemStats
	steal0, ticks0 uint64
}

// open starts a window.
func (w *window) open() {
	w.steal0, w.ticks0 = readSteal()
	runtime.ReadMemStats(&w.ms0)
	w.cpu0 = cpuTime()
}

// close ends the window.
func (w *window) close() {
	cpu := cpuTime() - w.cpu0
	ms := &w.ms1
	runtime.ReadMemStats(ms)
	steal, ticks := readSteal()
	w.cpu += cpu
	w.mallocs += ms.Mallocs - w.ms0.Mallocs
	w.bytes += ms.TotalAlloc - w.ms0.TotalAlloc
	w.gcs += ms.NumGC - w.ms0.NumGC
	w.gcPause += time.Duration(ms.PauseTotalNs - w.ms0.PauseTotalNs)
	w.steal += steal - w.steal0
	w.ticks += ticks - w.ticks0
}

// phase is one timed phase's raw measurements.
type phase struct {
	lat      []time.Duration // per request, off the heap
	win      window
	heapLive uint64 // HeapAlloc after a full GC at the end, server referenced
	// a host-speed sample taken as each window closed, and the request the
	// window ended before
	speed []float64
	ends  []int
}

// factor is the host-speed factor of the windows that end by request upTo.
func (ph *phase) factor(upTo int) float64 {
	k, _ := slices.BinarySearch(ph.ends, upTo+1)
	return factor(ph.speed[:k])
}

// hooks are the traced run's additions to a timed phase: a span around
// each ServeHTTP call and a replay after each sampled request.
type hooks struct {
	rec    *recorder
	replay func(i int, serve time.Duration) error
	sample func(i int) bool
}

// timePhase drives every request of in through srv from one closed-loop
// client: each request is sent only after the previous one has been
// answered and checked. Latency is the wall time of one ServeHTTP call;
// CPU, allocation and GC counters cover the windows between flushes and
// host-speed samples, the latter taken every calEvery requests and at every
// flush.
func timePhase(srv http.Handler, in *inputs, s sink, cal *calibrator, calEvery int, h *hooks) (*phase, error) {
	n := in.n()
	lat, err := offHeap[time.Duration](n)
	if err != nil {
		return nil, err
	}
	ph := &phase{lat: lat}
	body := &bodyReader{}
	req := httptest.NewRequest(http.MethodPost, in.path, nil)
	req.Body = body
	runtime.GC()
	ph.win.open()
	for i := range n {
		body.b, body.off = in.body(i), 0
		req.ContentLength = int64(len(body.b))
		s.begin(i)
		var sp *obs.Span
		if h != nil {
			_, sp = obs.Start(h.rec.ctx, "ServeHTTP")
		}
		start := time.Now()
		srv.ServeHTTP(s, req)
		lat[i] = time.Since(start)
		sp.End()
		s.end(i)
		if h != nil && h.sample(i) {
			if err := h.replay(i, lat[i]); err != nil {
				return nil, err
			}
		}
		last := i == n-1
		if full := s.full(); last || full || (i+1)%calEvery == 0 {
			ph.win.close()
			ph.speed = append(ph.speed, cal.sample())
			ph.ends = append(ph.ends, i+1)
			if last {
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				ph.heapLive = ms.HeapAlloc
			}
			if last || full {
				s.flush()
				runtime.GC()
			}
			if !last {
				ph.win.open()
			}
		}
	}
	runtime.KeepAlive(srv)
	return ph, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readSteal returns the host's cumulative steal ticks and all ticks from
// the aggregate line of /proc/stat, or zeros where it is unavailable.
func readSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// quantile returns the q-quantile of sorted by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median returns the median of vs, without reordering vs.
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// latencyMs returns the latencies of the phase's first upTo requests in
// milliseconds, sorted.
func (ph *phase) latencyMs(upTo int) []float64 {
	out := make([]float64, upTo)
	for i, d := range ph.lat[:upTo] {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	slices.Sort(out)
	return out
}

// Host speed. The speed of a 2-vCPU cloud VM drifts by ±15% over seconds
// to minutes as other tenants come and go and as the hypervisor steals its
// CPUs, and that drift moves every wall and CPU time a run measures far
// more than the run's own noise does. A run therefore times a fixed unit of
// work after each set-up and at the end of each window of requests: a sort
// of 8192 integers and a chain of 20000 dependent reads from a 4 KiB table,
// standard library only, allocation-free and off the heap, so that no
// change to the program or to its garbage can move it. Every reported time
// is rescaled by refCalibration over the unit's median time in the stretch
// the time was measured in, the set-ups or the timed phase: it is the time
// the run would have measured at the reference VM's usual speed. The raw
// times are printed beside the rescaled ones.

// refCalibration is the calibration unit's median time on the reference
// VM, a 2-vCPU KVM guest on an Intel Xeon at 2.1 GHz.
const refCalibration = 750 * time.Microsecond

// calibrator times the calibration unit.
type calibrator struct {
	shuffled, scratch []int32
	table             []uint64
}

func newCalibrator() (*calibrator, error) {
	c := &calibrator{}
	var err error
	if c.shuffled, err = offHeap[int32](8192); err != nil {
		return nil, err
	}
	if c.scratch, err = offHeap[int32](8192); err != nil {
		return nil, err
	}
	if c.table, err = offHeap[uint64](512); err != nil {
		return nil, err
	}
	for i := range c.shuffled {
		c.shuffled[i] = int32(i * 7919 % 8191)
	}
	return c, nil
}

// sample times one calibration unit and returns its time in nanoseconds.
func (c *calibrator) sample() float64 {
	start := time.Now()
	copy(c.scratch, c.shuffled)
	slices.Sort(c.scratch)
	x, acc := uint64(88172645463325252), uint64(0)
	mask := uint64(len(c.table) - 1)
	for range 20000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += c.table[(x+acc)&mask]
	}
	c.table[0] = acc
	return float64(time.Since(start))
}

// factor is the rescaling to the reference host speed of the times
// measured in the stretch where the unit took samples, in nanoseconds.
func factor(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	return float64(refCalibration) / median(samples)
}

// isTime reports whether a metric's unit is a time, which the host-speed
// factor rescales.
func isTime(unit string) bool { return unit == "s" || unit == "ms" || unit == "us" }
