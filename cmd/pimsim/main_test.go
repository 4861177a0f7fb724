package main

import (
	"strings"
	"testing"
)

// TestRunSchemes executes a small layer on the simulated crossbar under
// every scheme, by every name /v1/compile accepts for it, and requires the
// bit-exact verification to pass.
func TestRunSchemes(t *testing.T) {
	for _, scheme := range []string{"im2col", "smd", "sdk", "vw", "vwsdk", "vw-sdk"} {
		var out strings.Builder
		err := run([]string{"-ifm", "9x9", "-kernel", "3x3", "-ic", "5", "-oc", "7",
			"-array", "64x48", "-scheme", scheme}, &out)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if !strings.Contains(out.String(), "verify   PASS") {
			t.Errorf("%s: no bit-exact verification:\n%s", scheme, out.String())
		}
	}
}

// TestRunNonIdeal exercises the quantization/noise path, which reports a
// max-difference instead of exact verification.
func TestRunNonIdeal(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-ifm", "8x8", "-kernel", "3x3", "-ic", "4", "-oc", "4",
		"-array", "64x64", "-quant", "8", "-noise", "0.01"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "max |diff|") {
		t.Errorf("non-ideal run missing diff report:\n%s", out.String())
	}
}

// TestRunBadFlags covers flag-parsing failures.
func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scheme", "magic"},
		{"-array", "0"},
		{"-ifm", "banana"},
		{"-nonsense"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// A non-ideality setting out of range is an error naming its flag, not
	// a panic inside the crossbar model or an ideal run reported as
	// non-ideal.
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-quant", "40"}, "-quant"},
		{[]string{"-quant", "17"}, "-quant"},
		{[]string{"-quant", "-3", "-noise", "-0.5"}, "-quant"},
		{[]string{"-noise", "-0.5"}, "-noise"},
		{[]string{"-noise", "NaN"}, "-noise"},
	} {
		var out strings.Builder
		if err := run(tc.args, &out); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("args %v: err = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
}

// TestRunVersion checks -version prints the tool name and exits cleanly
// without running anything else.
func TestRunVersion(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "pimsim ") {
		t.Errorf("version output %q", out.String())
	}
}
