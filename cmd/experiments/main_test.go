package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunOnly regenerates a cheap subset quietly and checks one line per
// experiment comes out.
func TestRunOnly(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-only", "fig4,fig5a", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, id := range []string{"fig4", "fig5a"} {
		if !strings.Contains(got, id) {
			t.Errorf("output missing %s:\n%s", id, got)
		}
	}
	if n := strings.Count(got, "\n"); n != 2 {
		t.Errorf("quiet mode printed %d lines, want 2:\n%s", n, got)
	}
}

// TestRunWritesArtifacts checks the -out directory gets one .txt and one
// .csv per experiment.
func TestRunWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-only", "fig4", "-quiet", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fig4.txt", "fig4.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
	if !strings.Contains(out.String(), "wrote 1 experiments") {
		t.Errorf("missing write summary:\n%s", out.String())
	}
}

// TestRunBadFlags covers unknown experiments and flag errors.
func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "fig999"},
		{"-nonsense"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
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
	if !strings.HasPrefix(out.String(), "experiments ") {
		t.Errorf("version output %q", out.String())
	}
}
