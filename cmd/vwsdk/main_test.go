package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSingleLayer drives the optimizer end to end on the paper's running
// example (ResNet-18 conv4 on 512x512) and checks the Table I cell.
func TestRunSingleLayer(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-ifm", "14x14", "-kernel", "3x3", "-ic", "256", "-oc", "256",
		"-array", "512x512"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"4x3x42x256", "504", "im2col"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunNetworkCSV exercises the predefined-network path with CSV output.
func TestRunNetworkCSV(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-network", "ResNet-18", "-array", "512x512", "-csv"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "total") {
		t.Errorf("CSV missing total row:\n%s", got)
	}
	// Paper Table I: ResNet-18 VW-SDK total is 4294 cycles.
	if !strings.Contains(got, "4294") {
		t.Errorf("CSV missing ResNet-18 VW total 4294:\n%s", got)
	}
}

// TestRunMultiArray exercises the chip-scheduling branch.
func TestRunMultiArray(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-ifm", "14x14", "-kernel", "3x3", "-ic", "64", "-oc", "64",
		"-array", "256x256", "-arrays", "4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "chip with 4 arrays") {
		t.Errorf("missing chip summary:\n%s", out.String())
	}
}

// TestRunExplain checks the derivation path stays single-layer only.
func TestRunExplain(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-explain", "-ifm", "14x14", "-kernel", "3x3",
		"-ic", "256", "-oc", "256"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "im2col") {
		t.Errorf("explain output unexpectedly empty:\n%s", out.String())
	}
	if err := run([]string{"-explain", "-network", "VGG-13"}, &out); err == nil {
		t.Error("explain on a whole network should error")
	}
}

// TestRunNetworkFromJSON compiles the documented example spec file through
// the -network file.json path.
func TestRunNetworkFromJSON(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-network", "../../examples/networks/tinynet.json",
		"-array", "256x256"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"TinyNet", "conv1", "conv4", "total"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}

	// A spec path without the .json suffix still resolves as a file.
	dir := t.TempDir()
	path := filepath.Join(dir, "netspec")
	data, err := os.ReadFile("../../examples/networks/tinynet.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-network", path, "-array", "256x256"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "TinyNet") {
		t.Errorf("suffixless spec file not resolved:\n%s", out.String())
	}
}

// TestRunStats checks -stats reports the engine counters — with and without
// -csv, which returns early from the table path.
func TestRunStats(t *testing.T) {
	for _, extra := range [][]string{nil, {"-csv"}} {
		var out strings.Builder
		args := append([]string{"-network", "ResNet-18", "-array", "512x512", "-stats"}, extra...)
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		got := out.String()
		if !strings.Contains(got, "engine:") || !strings.Contains(got, "cache hits") ||
			!strings.Contains(got, "in-flight dedupes") || !strings.Contains(got, "evictions") {
			t.Errorf("args %v: missing stats line:\n%s", args, got)
		}
		if !strings.Contains(got, "candidates costed") ||
			!strings.Contains(got, "pruned by breakpoint enumeration") ||
			strings.Contains(got, "search: 0 candidates costed, 0 pruned") {
			t.Errorf("args %v: missing or empty candidate counters:\n%s", args, got)
		}
	}
}

// TestRunProfileFlags smoke-tests that -cpuprofile and -memprofile write
// non-empty pprof files.
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out strings.Builder
	if err := run([]string{"-ifm", "28x28", "-kernel", "3x3", "-ic", "64", "-oc", "64",
		"-cpuprofile", cpu, "-memprofile", mem}, &out); err != nil {
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
	if err := run([]string{"-cpuprofile", filepath.Join(dir, "no", "such", "dir", "x")}, &out); err == nil {
		t.Error("unwritable -cpuprofile path accepted")
	}
}

// TestRunBadFlags covers flag-parsing failures.
func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-array", "0x512"},
		{"-array", "one"},
		{"-network", "LeNet-5"},
		{"-network", "no-such-file.json"},
		{"-ifm", "2x2", "-kernel", "3x3"},
		{"-arrays", "0"},
		{"-nonsense"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// A chip has at least one array, and a deadline is not negative: such
	// a value is an error naming the flag, not a quiet single-array table
	// or a run without a deadline.
	for _, tc := range []struct{ flag, value string }{{"-arrays", "-3"}, {"-timeout", "-1s"}} {
		var out strings.Builder
		if err := run([]string{"-network", "VGG-13", tc.flag, tc.value}, &out); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s %s: err = %v, want an error naming %s", tc.flag, tc.value, err, tc.flag)
		}
	}
	// Only the table output reports a multi-array chip, so every other
	// mode rejects -arrays above 1, naming both flags, rather than drop it.
	space := filepath.Join(t.TempDir(), "space.json")
	if err := os.WriteFile(space, []byte(`{"network": "VGG-13", "arrays": ["256x256"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-network", "VGG-13", "-csv"}, "-csv"},
		{[]string{"-explain"}, "-explain"},
		{[]string{"-optimize", space}, "-optimize"},
	} {
		var out strings.Builder
		err := run(append([]string{"-arrays", "16"}, tc.args...), &out)
		if err == nil || !strings.Contains(err.Error(), "-arrays") || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("-arrays 16 %v: err = %v, want an error naming -arrays and %s", tc.args, err, tc.flag)
		}
	}
	// The engine has no worker pool to size.
	var out strings.Builder
	if err := run([]string{"-workers", "2"}, &out); err == nil || !strings.Contains(err.Error(), "not defined: -workers") {
		t.Errorf("-workers 2: err = %v, want an undefined flag", err)
	}
}

// TestRunVersion checks -version prints the tool name and exits cleanly
// without running anything else.
func TestRunVersion(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "vwsdk ") {
		t.Errorf("version output %q", out.String())
	}
}

// TestRunTimeoutExpired pins the -timeout flag: an already-expired deadline
// aborts the compilation with a context error instead of printing a table.
func TestRunTimeoutExpired(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-network", "VGG-13", "-array", "512x512", "-timeout", "1ns"}, &out)
	if err == nil || !strings.Contains(err.Error(), "context deadline exceeded") {
		t.Fatalf("err = %v, want a deadline error", err)
	}
}
