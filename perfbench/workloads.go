package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/server"
)

// workload is one traffic mix. A run prepares it once, times several fresh
// set-ups, then drives its requests through the last set-up's server.
type workload interface {
	// prepare generates n requests from seed and does the untimed work the
	// checks need before any set-up: the warm-restart store, the codesign
	// oracle frontiers.
	prepare(seed uint64, n int) error
	inputs() *inputs
	// setUp builds one fresh measured server: everything from its
	// construction to the first timed request.
	setUp() (*server.Server, error)
	// newSink returns the checking response writer for a phase on srv.
	newSink(srv *server.Server, c *checks, rec *recorder) (sink, error)
	// newReplay returns the traced run's replay of request i through the
	// public calls the server makes for it, on the workload's own replicas.
	newReplay(rec *recorder) (func(i int, serve time.Duration) error, error)
	close()
}

// checks tallies the output checks of one timed phase.
type checks struct {
	failed int
	first  error

	cycles int64 // mapped_cycles: Σ Totals.Cycles over the distinct plans returned

	// codesign: Σ frontier points and response bytes over the phase
	frontierPoints int64
	streamBytes    int64
}

// seenCycles is mapped_cycles over a fixed set of answers: Σ cycles[k]
// over every answer k the phase returned.
func seenCycles(seen []bool, cycles []int64) (sum int64) {
	for k, ok := range seen {
		if ok {
			sum += cycles[k]
		}
	}
	return sum
}

// fail counts one failed request, keeping the first reason.
func (c *checks) fail(i int, format string, args ...any) {
	c.failed++
	if c.first == nil {
		c.first = fmt.Errorf("request %d: %s", i, fmt.Sprintf(format, args...))
	}
}

// zooNets holds the zoo's networks by index into zoo, built once so checks
// do not rebuild them per request.
var zooNets = func() []model.Network {
	nets := make([]model.Network, len(zoo))
	for i, name := range zoo {
		n, err := model.ByName(name)
		if err != nil {
			panic(err) // zoo lists only predefined networks
		}
		nets[i] = n
	}
	return nets
}()

// request rebuilds the compile request r describes from the generator's own
// record, independently of the server's body decoding.
func (r compileReq) request() compile.Request {
	o := options[r.opt]
	return compile.NewRequest(zooNets[r.net], core.Array{Rows: int(r.rows), Cols: int(r.cols)},
		compile.Options{Arrays: o.arrays, GatePeripherals: o.gated})
}

// post sends one untimed request and returns the body of its 200 answer.
func post(h http.Handler, path string, body []byte) ([]byte, error) {
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rw.Code != http.StatusOK {
		return nil, fmt.Errorf("POST %s %s: status %d: %s", path, body, rw.Code, rw.Body.Bytes())
	}
	return rw.Body.Bytes(), nil
}

// wrapManifest wraps one /v1/compile body as a one-entry warm manifest, the
// document server.ParseManifest decodes.
func wrapManifest(body []byte) []byte {
	return append(append([]byte(`{"requests":[`), body...), "]}"...)
}

// outDir is where runs leave their traces and scratch stores, inside the
// checkout's ignored build directory.
var outDir = filepath.Join(".bench_build", "perfbench")
