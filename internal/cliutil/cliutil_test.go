package cliutil

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestParseSize(t *testing.T) {
	tests := []struct {
		in     string
		w, h   int
		wantOK bool
	}{
		{"512x256", 512, 256, true},
		{"512", 512, 512, true},
		{" 14x14 ", 14, 14, true},
		{"8X4", 8, 4, true},
		{"", 0, 0, false},
		{"axb", 0, 0, false},
		{"1x2x3", 0, 0, false},
		{"12x", 0, 0, false},
	}
	for _, tt := range tests {
		w, h, err := ParseSize(tt.in)
		if tt.wantOK != (err == nil) {
			t.Errorf("ParseSize(%q) err = %v, wantOK %v", tt.in, err, tt.wantOK)
			continue
		}
		if err == nil && (w != tt.w || h != tt.h) {
			t.Errorf("ParseSize(%q) = %d,%d, want %d,%d", tt.in, w, h, tt.w, tt.h)
		}
	}
}

func TestParseArray(t *testing.T) {
	a, err := ParseArray("512x256")
	if err != nil || a != (core.Array{Rows: 512, Cols: 256}) {
		t.Fatalf("ParseArray = %v, %v", a, err)
	}
	if _, err := ParseArray("0x4"); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := ParseArray("bogus"); err == nil {
		t.Error("bogus accepted")
	}
	for ref, want := range map[string]core.Array{
		`"512x256"`:                         {Rows: 512, Cols: 256},
		`{"rows": 512, "cols": 256}`:        {Rows: 512, Cols: 256},
		" {\"rows\": 512, \"cols\": 256}\n": {Rows: 512, Cols: 256},
	} {
		if a, err := ParseArrayRef(json.RawMessage(ref)); err != nil || a != want {
			t.Errorf("ParseArrayRef(%s) = %v, %v; want %v", ref, a, err, want)
		}
	}
	for _, bad := range []string{
		`{"rows": 512, "cols": 256, "x": 1}`,
		`{"rows": 512, "cols": 256}}`,
		`{"rows": 512, "cols": 256} garbage`,
	} {
		if a, err := ParseArrayRef(json.RawMessage(bad)); err == nil {
			t.Errorf("ParseArrayRef accepted %s as %v", bad, a)
		}
	}
}

func TestLayerFlags(t *testing.T) {
	f := LayerFlags{IFM: "14x14", Kernel: "3x3", IC: 256, OC: 256}
	l, err := f.Layer("conv4")
	if err != nil {
		t.Fatal(err)
	}
	if l.StrideW != 1 || l.IW != 14 || l.KW != 3 || l.IC != 256 {
		t.Errorf("layer = %v", l)
	}
	f.Stride = 2
	f.Pad = 1
	l, err = f.Layer("strided")
	if err != nil {
		t.Fatal(err)
	}
	if l.StrideH != 2 || l.PadW != 1 {
		t.Errorf("layer = %v", l)
	}
	bad := LayerFlags{IFM: "x", Kernel: "3x3", IC: 1, OC: 1}
	if _, err := bad.Layer("b"); err == nil {
		t.Error("bad IFM accepted")
	}
	bad = LayerFlags{IFM: "8x8", Kernel: "q", IC: 1, OC: 1}
	if _, err := bad.Layer("b"); err == nil {
		t.Error("bad kernel accepted")
	}
	bad = LayerFlags{IFM: "8x8", Kernel: "3x3", IC: 0, OC: 1}
	if _, err := bad.Layer("b"); err == nil {
		t.Error("zero IC accepted")
	}
}

// TestVersion checks the -version string is non-empty and stable across
// calls; under go test there is no tagged module version, so it must fall
// back to a "devel" form rather than the empty string.
func TestVersion(t *testing.T) {
	v := Version()
	if v == "" {
		t.Fatal("empty version")
	}
	if !strings.HasPrefix(v, "devel") && strings.TrimSpace(v) == "" {
		t.Errorf("unexpected version %q", v)
	}
	if again := Version(); again != v {
		t.Errorf("version not stable: %q then %q", v, again)
	}
}

// TestRevision pins the one VCS walk Version and Revision share: the
// revision cut to 12 characters, "+dirty" for a modified tree, and nothing
// when the build embedded no revision.
func TestRevision(t *testing.T) {
	for _, c := range []struct {
		settings []debug.BuildSetting
		want     string
	}{
		{nil, ""},
		{[]debug.BuildSetting{{Key: "vcs.modified", Value: "true"}}, ""},
		{[]debug.BuildSetting{{Key: "vcs.revision", Value: "abc123"}}, "abc123"},
		{[]debug.BuildSetting{{Key: "vcs.revision", Value: "0123456789abcdef"}, {Key: "vcs.modified", Value: "true"}}, "0123456789ab+dirty"},
		{[]debug.BuildSetting{{Key: "vcs.revision", Value: "0123456789abcdef"}, {Key: "vcs.modified", Value: "false"}}, "0123456789ab"},
	} {
		if got := revision(&debug.BuildInfo{Settings: c.settings}); got != c.want {
			t.Errorf("revision(%v) = %q, want %q", c.settings, got, c.want)
		}
	}
}

// TestProfileFlags covers the shared -cpuprofile/-memprofile plumbing: flag
// registration, profile files written on stop, the no-profiling no-op, and
// the unwritable-path error.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	var p ProfileFlags
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p.Register(fs)
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1e5; i++ {
		_ = i * i // give the CPU profiler something to sample
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", f)
		}
	}

	// No flags: Start and stop are no-ops.
	var none ProfileFlags
	stop, err = none.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	bad := ProfileFlags{CPU: filepath.Join(dir, "no", "such", "dir", "cpu")}
	if _, err := bad.Start(); err == nil {
		t.Error("unwritable -cpuprofile path accepted")
	}
	badMem := ProfileFlags{Mem: filepath.Join(dir, "no", "such", "dir", "mem")}
	stop, err = badMem.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("unwritable -memprofile path accepted")
	}
}
