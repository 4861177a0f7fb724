// Package cliutil holds the small flag-parsing helpers shared by the
// command-line tools in cmd/, and the two JSON input helpers shared across
// packages: the strict decode (DecodeStrict) and the array reference parser
// (ParseArrayRef).
package cliutil

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
)

// ProfileFlags holds the shared -cpuprofile/-memprofile flag values of the
// cmd/ tools. Register the flags with Register, then bracket the work:
//
//	stop, err := prof.Start()
//	if err != nil { return err }
//	defer stop() // or collect stop()'s error on the happy path
//
// Start begins CPU profiling when -cpuprofile was given; the returned stop
// finishes the CPU profile and writes the heap profile when -memprofile was
// given. Both profiles are pprof-format files for `go tool pprof`.
type ProfileFlags struct {
	CPU string
	Mem string

	cpuFile *os.File
}

// Register declares the -cpuprofile and -memprofile flags on fs.
func (p *ProfileFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to `file` on exit")
}

// Start begins CPU profiling if requested and returns the function that
// stops it and writes the heap profile; stop is never nil and is safe to
// call when no profiling was requested.
func (p *ProfileFlags) Start() (stop func() error, err error) {
	if p.CPU != "" {
		p.cpuFile, err = os.Create(p.CPU)
		if err != nil {
			return nil, fmt.Errorf("cliutil: -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(p.cpuFile); err != nil {
			p.cpuFile.Close()
			return nil, fmt.Errorf("cliutil: -cpuprofile: %w", err)
		}
	}
	return p.stop, nil
}

func (p *ProfileFlags) stop() error {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			return fmt.Errorf("cliutil: -cpuprofile: %w", err)
		}
		p.cpuFile = nil
	}
	if p.Mem != "" {
		f, err := os.Create(p.Mem)
		if err != nil {
			return fmt.Errorf("cliutil: -memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC() // materialize the final live set
		if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
			return fmt.Errorf("cliutil: -memprofile: %w", err)
		}
	}
	return nil
}

// TraceFlags holds the shared -trace flag of the cmd/ tools: a Chrome
// trace-event JSON output path. Register the flag, derive the run's context
// through Context (a no-op returning ctx unchanged when -trace was not
// given), run the work, then Write the recorded trace:
//
//	ctx := tf.Context(context.Background(), "vwsdk")
//	... run ...
//	if err := tf.Write(); err != nil { return err }
//
// The produced file opens directly in chrome://tracing and Perfetto's legacy
// importer.
type TraceFlags struct {
	Out string

	tr *obs.Trace
}

// Register declares the -trace flag on fs.
func (t *TraceFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.Out, "trace", "", "write a Chrome trace-event JSON trace to `file`")
}

// Context attaches a fresh trace named name to ctx when -trace was given;
// otherwise it returns ctx unchanged and the whole span path stays on the
// disabled no-op fast path.
func (t *TraceFlags) Context(ctx context.Context, name string) context.Context {
	if t.Out == "" {
		return ctx
	}
	t.tr = obs.New(name)
	return obs.NewContext(ctx, t.tr)
}

// Trace returns the active trace, or nil when -trace was not given (or
// Context has not run yet).
func (t *TraceFlags) Trace() *obs.Trace { return t.tr }

// Write writes the recorded trace to the -trace file; call it after the
// traced work has finished. It is a no-op when tracing is disabled.
func (t *TraceFlags) Write() error {
	if t.tr == nil {
		return nil
	}
	f, err := os.Create(t.Out)
	if err != nil {
		return fmt.Errorf("cliutil: -trace: %w", err)
	}
	if err := t.tr.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("cliutil: -trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("cliutil: -trace: %w", err)
	}
	return nil
}

// Version returns the version string the cmd/ tools print for -version: the
// module version when the binary was built from a tagged module, otherwise
// the VCS revision ("devel+<rev>[+dirty]") when the build embedded one, and
// "devel" as the last resort (e.g. under go test).
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	if rev := revision(bi); rev != "" {
		return "devel+" + rev
	}
	return "devel"
}

// Revision returns the bare VCS revision the build embedded ("+dirty" when
// the working tree was modified), or "unknown" when the build carried none
// (e.g. under go test). Fleet dashboards use it to detect version skew
// across vwsdkd instances, independent of the tagged module version.
func Revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		if rev := revision(bi); rev != "" {
			return rev
		}
	}
	return "unknown"
}

// revision reads the VCS revision bi embedded, cut to 12 characters, with
// "+dirty" when the working tree was modified; it is empty when bi carries
// no revision.
func revision(bi *debug.BuildInfo) string {
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	return rev[:min(len(rev), 12)] + dirty
}

// ParseSize parses "WxH" (e.g. "512x256") or a single integer "512"
// (meaning a square) into width and height.
func ParseSize(s string) (w, h int, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, 0, fmt.Errorf("cliutil: empty size")
	}
	ws, hs, two := strings.Cut(strings.ToLower(s), "x")
	if strings.Contains(hs, "x") {
		return 0, 0, fmt.Errorf("cliutil: bad size %q (want WxH)", s)
	}
	if w, err = strconv.Atoi(ws); err != nil {
		return 0, 0, fmt.Errorf("cliutil: bad size %q: %w", s, err)
	}
	if !two {
		return w, w, nil
	}
	if h, err = strconv.Atoi(hs); err != nil {
		return 0, 0, fmt.Errorf("cliutil: bad size %q: %w", s, err)
	}
	return w, h, nil
}

// ParseArray parses "RowsxCols" (or a square "512") into a core.Array.
func ParseArray(s string) (core.Array, error) {
	r, c, err := ParseSize(s)
	if err != nil {
		return core.Array{}, err
	}
	return validArray(r, c)
}

// validArray returns the rows × cols array, or the error Validate finds in
// it.
func validArray(rows, cols int) (core.Array, error) {
	a := core.Array{Rows: rows, Cols: cols}
	if err := a.Validate(); err != nil {
		return core.Array{}, err
	}
	return a, nil
}

// sizeBytes parses a size's common form in place: one run of one to nine
// ASCII digits, or two joined by 'x' or 'X'. It reports false for anything
// else, which ParseSize parses or rejects; on what it accepts, the two
// agree.
func sizeBytes(b []byte) (w, h int, ok bool) {
	w, rest, ok := digits(b)
	if !ok || len(rest) == 0 {
		return w, w, ok
	}
	if rest[0] != 'x' && rest[0] != 'X' {
		return 0, 0, false
	}
	h, rest, ok = digits(rest[1:])
	return w, h, ok && len(rest) == 0
}

// digits reads the run of up to nine ASCII digits that b starts with, a
// value no int overflows on, and returns it and the rest of b.
func digits(b []byte) (int, []byte, bool) {
	v, i := 0, 0
	for ; i < len(b) && i < 9 && '0' <= b[i] && b[i] <= '9'; i++ {
		v = 10*v + int(b[i]-'0')
	}
	return v, b[i:], i > 0
}

// PlainString returns the contents of the JSON string literal lit when they
// need no decoding: printable ASCII with no quote or backslash, so the
// bytes between the quotes are the string json.Unmarshal would make. It
// reports false for anything else, escapes, control bytes, non-ASCII and
// bytes past the closing quote included, which only json.Unmarshal reads.
func PlainString(lit []byte) ([]byte, bool) {
	if len(lit) < 2 || lit[0] != '"' || lit[len(lit)-1] != '"' {
		return nil, false
	}
	s := lit[1 : len(lit)-1]
	for _, c := range s {
		if c < ' ' || c > '~' || c == '"' || c == '\\' {
			return nil, false
		}
	}
	return s, true
}

// ErrTrailingData is DecodeStrict's error for a document that goes on past
// its JSON value.
var ErrTrailingData = errors.New("trailing data after JSON value")

// DecodeStrict decodes the one JSON value in data into v, strictly: an
// object field v does not declare is an error, and so is anything but JSON
// whitespace after the value (ErrTrailingData). Network specs, design
// spaces, request bodies, warm manifests and array references all decode
// through it. Decoder.More is no trailing-data check: it reports false when
// the next byte is a closing '}' or ']'.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) != 0 {
		return ErrTrailingData
	}
	return nil
}

// ParseArrayRef parses a JSON array reference: a string in ParseArray's
// form ("RowsxCols" or a square "512") or a {"rows", "cols"} object. It is
// the one parser for every wire field that names an array: /v1/compile's
// "array", /v1/sweep's "arrays" and a design space's "arrays".
func ParseArrayRef(raw json.RawMessage) (core.Array, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return core.Array{}, errors.New(`missing "array": give "RowsxCols" or {"rows", "cols"}`)
	}
	switch trimmed[0] {
	case '"':
		// The common reference, "512x512", is read in place; any other
		// string is decoded and parsed as a flag value is.
		if spec, ok := PlainString(trimmed); ok {
			if r, c, ok := sizeBytes(spec); ok {
				return validArray(r, c)
			}
		}
		var spec string
		if err := json.Unmarshal(trimmed, &spec); err != nil {
			return core.Array{}, fmt.Errorf("parse array: %w", err)
		}
		return ParseArray(spec)
	case '{':
		var obj struct {
			Rows int `json:"rows"`
			Cols int `json:"cols"`
		}
		if err := DecodeStrict(trimmed, &obj); err != nil {
			return core.Array{}, fmt.Errorf("parse array: %w", err)
		}
		return validArray(obj.Rows, obj.Cols)
	default:
		return core.Array{}, errors.New(`array must be a "RowsxCols" string or a {"rows", "cols"} object`)
	}
}

// LayerFlags collects the per-layer flag values the tools share.
type LayerFlags struct {
	IFM    string
	Kernel string
	IC, OC int
	Stride int
	Pad    int
	Groups int
}

// Layer converts the flag values into a validated core.Layer.
func (f LayerFlags) Layer(name string) (core.Layer, error) {
	iw, ih, err := ParseSize(f.IFM)
	if err != nil {
		return core.Layer{}, fmt.Errorf("-ifm: %w", err)
	}
	kw, kh, err := ParseSize(f.Kernel)
	if err != nil {
		return core.Layer{}, fmt.Errorf("-kernel: %w", err)
	}
	l := core.Layer{
		Name: name,
		IW:   iw, IH: ih, KW: kw, KH: kh,
		IC: f.IC, OC: f.OC,
		StrideW: f.Stride, StrideH: f.Stride,
		PadW: f.Pad, PadH: f.Pad,
		Groups: f.Groups,
	}
	l = l.Normalized()
	if err := l.Validate(); err != nil {
		return core.Layer{}, err
	}
	return l, nil
}
