package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestRunWritesReport smoke-runs the benchmark in CI mode on a filtered
// workload and validates the written JSON document.
func TestRunWritesReport(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_search.json")
	var stdout, progress bytes.Buffer
	err := run([]string{"-benchtime", "1x", "-filter", "conv4@512x512", "-o", out}, &stdout, &progress)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep bench.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if rep.Schema != bench.Schema || rep.Benchtime != "1x" {
		t.Errorf("report header = %q/%q", rep.Schema, rep.Benchtime)
	}
	// conv4@512x512 matches one VGG-13 and one ResNet-18 workload.
	if len(rep.Workloads) != 2 {
		t.Fatalf("got %d workloads, want 2:\n%s", len(rep.Workloads), data)
	}
	for _, w := range rep.Workloads {
		if w.CandidatesCosted <= 0 || w.CandidatesCosted > w.CandidatesFeasible ||
			int64(w.CandidatesFeasible) > w.CandidatesExhaustive {
			t.Errorf("%s: inconsistent candidates %d/%d/%d", w.Workload,
				w.CandidatesCosted, w.CandidatesFeasible, w.CandidatesExhaustive)
		}
	}
	if !strings.Contains(progress.String(), "wrote "+out) {
		t.Errorf("progress output missing summary:\n%s", progress.String())
	}
}

// TestRunCheckAgainstSearch exercises the search-mode regression gate: a
// full run passes against the committed BENCH_search.json, while snapshots
// doctored to one fewer cost-model call or a different tile fail, as does an
// unfiltered run that lacks a committed row.
func TestRunCheckAgainstSearch(t *testing.T) {
	const committed = "../../BENCH_search.json"
	dir := t.TempDir()
	var out, progress bytes.Buffer
	if err := run([]string{"-benchtime", "1x", "-quiet", "-o", filepath.Join(dir, "a.json"),
		"-check-against", committed}, &out, &progress); err != nil {
		t.Fatalf("committed snapshot failed the gate: %v", err)
	}

	data, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	const row = "VGG-13/conv1@256x256"
	for name, doctor := range map[string]func(*bench.LayerResult){
		"cost_model_evals": func(w *bench.LayerResult) { w.CostModelEvals-- },
		"tile":             func(w *bench.LayerResult) { w.Tile = "1x1x1x1" },
	} {
		var base bench.Report
		if err := json.Unmarshal(data, &base); err != nil {
			t.Fatal(err)
		}
		found := false
		for i := range base.Workloads {
			if base.Workloads[i].Workload == row {
				doctor(&base.Workloads[i])
				found = true
			}
		}
		if !found {
			t.Fatalf("%s missing from %s", row, committed)
		}
		bad, _ := json.Marshal(base)
		badPath := filepath.Join(dir, name+".json")
		if err := os.WriteFile(badPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		err = run([]string{"-benchtime", "1x", "-quiet", "-filter", row, "-o", filepath.Join(dir, "b.json"),
			"-check-against", badPath}, &out, &progress)
		if err == nil || !strings.Contains(err.Error(), "regressed") {
			t.Errorf("snapshot with a doctored %s passed the gate: %v", name, err)
		}
	}

	var base bench.Report
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if err := checkSearch(&bench.Report{}, &base, true); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("unfiltered run without the committed rows passed the gate: %v", err)
	}
}

// TestRunProfileFlags smoke-tests that the shared -cpuprofile/-memprofile
// flags produce non-empty pprof files.
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, progress bytes.Buffer
	err := run([]string{"-benchtime", "1x", "-filter", "conv5@256x256", "-quiet",
		"-o", filepath.Join(dir, "r.json"), "-cpuprofile", cpu, "-memprofile", mem}, &out, &progress)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestRunStdout covers -o - (JSON to stdout) and -version.
func TestRunStdout(t *testing.T) {
	var out, progress bytes.Buffer
	if err := run([]string{"-version"}, &out, &progress); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "vwsdkbench ") {
		t.Errorf("version output = %q", out.String())
	}
	out.Reset()
	if err := run([]string{"-benchtime", "1x", "-filter", "ResNet-18/conv5@256x256", "-quiet", "-o", "-"}, &out, &progress); err != nil {
		t.Fatal(err)
	}
	var rep bench.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("stdout JSON invalid: %v", err)
	}
	if err := run([]string{"-benchtime", "bogus"}, &out, &progress); err == nil {
		t.Error("bad -benchtime accepted")
	}
}

// TestRunServeFlagConflicts pins the flag values that make no sense, and
// that the serve, co-design and fleet modes are gone: perfbench measures
// the serve and co-design paths, and unit tests in internal/server and
// internal/optimize hold their counts and the fleet's.
func TestRunServeFlagConflicts(t *testing.T) {
	var out, progress bytes.Buffer
	for _, flagName := range []string{"-serve", "-optimize", "-fleet"} {
		if err := run([]string{flagName}, &out, &progress); err == nil ||
			!strings.Contains(err.Error(), "flag provided but not defined: "+flagName) {
			t.Errorf("%s: err = %v, want an undefined flag", flagName, err)
		}
	}
	if err := run([]string{"-check-against", "x.json", "-benchtime", "1x"}, &out, &progress); err == nil {
		t.Error("missing -check-against snapshot accepted")
	}
	// A negative deadline is an error naming the flag, not a run without
	// one.
	err := run([]string{"-timeout", "-1s", "-benchtime", "1x", "-filter", "ResNet-18/conv5@256x256", "-quiet", "-o", "-"}, &out, &progress)
	if err == nil || !strings.Contains(err.Error(), "-timeout") {
		t.Errorf("-timeout -1s: err = %v, want an error naming -timeout", err)
	}
}

// TestRunTimeoutExpired pins the -timeout flag: an already-expired deadline
// aborts the harness with a context error instead of running the grid.
func TestRunTimeoutExpired(t *testing.T) {
	var out, progress strings.Builder
	err := run([]string{"-benchtime", "1x", "-timeout", "1ns", "-o", "-"}, &out, &progress)
	if err == nil || !strings.Contains(err.Error(), "context deadline exceeded") {
		t.Fatalf("err = %v, want a deadline error", err)
	}
}
