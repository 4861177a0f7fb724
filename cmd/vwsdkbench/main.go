// Command vwsdkbench runs the standardized search benchmark workloads
// (internal/bench) — the paper's Table-I zoo on 256/512/1024 arrays plus
// large-IFM stress layers — and writes BENCH_search.json: per workload, the
// search's ns/op and allocations, the cost classes it evaluated versus the
// exhaustive sweep's enumeration, and its cost-model calls. CI runs it with
// -benchtime 1x, uploads the JSON as an artifact, and fails the job via
// -check-against when any workload's deterministic counts or chosen mapping
// drift from the committed snapshot.
//
// With -fleet it benchmarks the fleet tier: a zipfian compile mix driven
// round-robin over an in-process 3-node consistent-hash fleet (persistent
// stores, peer proxying, no sockets) versus the same mix over a single node
// with the same plan-cache capacity, and writes BENCH_fleet.json (fleet vs
// baseline hit rate, fleet-wide compile count, proxied/compute/hit latency
// classes). -check-against gates hit-rate, compile-count and proxied-latency
// regressions; the workload is deterministic, so the cache figures reproduce
// across machines.
//
// The serve and co-design paths are measured by the repository benchmark
// (perfbench), and their deterministic counts are pinned by unit tests in
// internal/server and internal/optimize.
//
// Examples:
//
//	vwsdkbench                            # 10ms per timed loop, writes BENCH_search.json
//	vwsdkbench -benchtime 1x -o out.json  # one iteration per loop (CI smoke)
//	vwsdkbench -filter VGG-13 -benchtime 100ms
//	vwsdkbench -benchtime 1x -o out.json -check-against BENCH_search.json
//	vwsdkbench -fleet                     # fleet benchmark, writes BENCH_fleet.json
//	vwsdkbench -fleet -check-against BENCH_fleet.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/cliutil"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vwsdkbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out, progress io.Writer) (retErr error) {
	fs := flag.NewFlagSet("vwsdkbench", flag.ContinueOnError)
	var (
		outPath   = fs.String("o", "", "output file (default BENCH_search.json, or BENCH_fleet.json with -fleet); - writes the JSON to stdout")
		benchtime = fs.String("benchtime", "10ms", "minimum time per timed loop, or Nx for exactly N iterations (only 1x is supported)")
		filter    = fs.String("filter", "", "run only workloads whose name contains this substring")
		fleet     = fs.Bool("fleet", false, "benchmark an in-process 3-node consistent-hash fleet under a zipfian compile mix instead of the search")
		against   = fs.String("check-against", "", "exit non-zero if the run regresses versus this committed snapshot of the same benchmark")
		quiet     = fs.Bool("quiet", false, "suppress per-workload progress output")
		timeout   = fs.Duration("timeout", 0, "abort the harness after this long (0 = no deadline)")
		version   = fs.Bool("version", false, "print the version and exit")
		prof      cliutil.ProfileFlags
		tf        cliutil.TraceFlags
	)
	prof.Register(fs)
	tf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintf(out, "vwsdkbench %s\n", cliutil.Version())
		return nil
	}
	opts := bench.Options{}
	if !*quiet {
		opts.Progress = progress
	}
	if *benchtime == "1x" {
		opts.Once = true
	} else {
		d, err := time.ParseDuration(*benchtime)
		if err != nil {
			return fmt.Errorf("-benchtime: %w (want a duration like 100ms, or 1x)", err)
		}
		opts.Benchtime = d
	}
	opts.Filter = *filter

	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// -trace records one span per workload (with its timed loops as
	// children), so a whole benchmark run can be opened in chrome://tracing.
	ctx = tf.Context(ctx, "vwsdkbench")
	defer func() {
		if terr := tf.Write(); terr != nil && retErr == nil {
			retErr = terr
		}
	}()
	if *fleet {
		if *filter != "" {
			return fmt.Errorf("-filter applies to the search benchmark, not -fleet")
		}
		return runFleet(ctx, opts, *outPath, *against, out, progress)
	}
	if *outPath == "" {
		*outPath = "BENCH_search.json"
	}
	// Read the snapshot before the run: -o may overwrite the same file.
	var base bench.Report
	if *against != "" {
		if err := readSnapshot(*against, bench.Schema, &base); err != nil {
			return err
		}
	}
	rep, err := bench.Run(ctx, opts)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *outPath == "-" {
		if _, err := out.Write(data); err != nil {
			return err
		}
	} else {
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(progress, "wrote %s: %d workloads, best Table-I reduction %.1fx\n",
			*outPath, len(rep.Workloads), rep.MaxTable1Reduction)
	}
	if *against != "" {
		return checkSearch(rep, &base, *filter == "")
	}
	return nil
}

// checkSearch fails when the fresh search run drifts from the committed
// snapshot. Every figure it compares is deterministic: each committed row's
// candidate counts and chosen mapping (cycles, tile) must reproduce exactly,
// and its cost-model calls may not grow. An unfiltered run must also cover
// every committed row. Timings are machine-dependent and not gated.
func checkSearch(rep, base *bench.Report, full bool) error {
	got := make(map[string]bench.LayerResult, len(rep.Workloads))
	for _, r := range rep.Workloads {
		got[r.Workload] = r
	}
	for _, w := range base.Workloads {
		r, ok := got[w.Workload]
		if !ok {
			if full {
				return fmt.Errorf("search workload %s missing from the run", w.Workload)
			}
			continue
		}
		if r.CandidatesCosted != w.CandidatesCosted || r.CandidatesFeasible != w.CandidatesFeasible ||
			r.CandidatesExhaustive != w.CandidatesExhaustive || r.Cycles != w.Cycles || r.Tile != w.Tile {
			return fmt.Errorf("search %s regressed: costed/feasible/exhaustive %d/%d/%d, %d cycles, tile %s != committed %d/%d/%d, %d cycles, tile %s",
				w.Workload, r.CandidatesCosted, r.CandidatesFeasible, r.CandidatesExhaustive, r.Cycles, r.Tile,
				w.CandidatesCosted, w.CandidatesFeasible, w.CandidatesExhaustive, w.Cycles, w.Tile)
		}
		if r.CostModelEvals > w.CostModelEvals {
			return fmt.Errorf("search %s regressed: %d cost-model calls > committed %d",
				w.Workload, r.CostModelEvals, w.CostModelEvals)
		}
	}
	return nil
}

// runFleet executes the fleet benchmark, writes the report, and applies the
// -check-against regression gate.
func runFleet(ctx context.Context, opts bench.Options, outPath, against string, out, progress io.Writer) error {
	rep, err := bench.RunFleet(ctx, opts)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" {
		outPath = "BENCH_fleet.json"
	}
	if outPath == "-" {
		if _, err := out.Write(data); err != nil {
			return err
		}
	} else {
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(progress, "wrote %s: fleet hit rate %.3f vs baseline %.3f, %d fleet compiles (%d baseline)\n",
			outPath, rep.FleetHitRate, rep.BaselineHitRate, rep.FleetCompiles, rep.BaselineCompiles)
	}
	if against != "" {
		return checkFleet(rep, against)
	}
	return nil
}

// checkFleet fails when the fresh fleet run regresses versus the committed
// snapshot. The workload is fully deterministic (seeded zipf, round-robin
// placement, flushed write-behinds), so the cache-behavior figures — hit
// rates and fleet-wide compile count — must reproduce almost exactly on any
// machine; latency is machine-dependent, so proxied latency only gets a
// generous order-of-magnitude bound that still catches protocol regressions
// (extra hops, redundant validation, lost coalescing).
func checkFleet(rep *bench.FleetReport, path string) error {
	var base bench.FleetReport
	if err := readSnapshot(path, bench.FleetSchema, &base); err != nil {
		return err
	}
	if rep.FleetHitRate <= rep.BaselineHitRate {
		return fmt.Errorf("fleet hit rate %.3f not above single-node baseline %.3f",
			rep.FleetHitRate, rep.BaselineHitRate)
	}
	if rep.FleetHitRate < base.FleetHitRate-0.02 {
		return fmt.Errorf("fleet hit rate regressed: %.3f < committed %.3f (tolerance 0.02)",
			rep.FleetHitRate, base.FleetHitRate)
	}
	if base.FleetCompiles > 0 && rep.FleetCompiles > base.FleetCompiles {
		return fmt.Errorf("fleet-wide compiles regressed: %d > committed %d (a key is being recompiled)",
			rep.FleetCompiles, base.FleetCompiles)
	}
	limit := 10 * base.ProxiedP50Ns
	if floor := int64(5 * time.Millisecond); limit < floor {
		limit = floor
	}
	if rep.ProxiedP50Ns > limit {
		return fmt.Errorf("proxied p50 regressed: %dns > limit %dns (committed %dns)",
			rep.ProxiedP50Ns, limit, base.ProxiedP50Ns)
	}
	return nil
}

// readSnapshot decodes the committed -check-against snapshot at path into
// v, which must be a report of the given schema.
func readSnapshot(path, schema string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("-check-against: %w", err)
	}
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("-check-against: parse %s: %w", path, err)
	}
	if head.Schema != schema {
		return fmt.Errorf("-check-against: %s has schema %q, want %q", path, head.Schema, schema)
	}
	return json.Unmarshal(data, v)
}
