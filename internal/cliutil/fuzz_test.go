package cliutil

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
)

// decodedArrayRef is ParseArrayRef with every string decoded by
// json.Unmarshal and parsed by ParseArray, the reading the in-place fast
// path must agree with.
func decodedArrayRef(raw []byte) (core.Array, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 || trimmed[0] != '"' {
		return ParseArrayRef(raw)
	}
	var spec string
	if err := json.Unmarshal(trimmed, &spec); err != nil {
		return core.Array{}, fmt.Errorf("parse array: %w", err)
	}
	return ParseArray(spec)
}

// FuzzParseArrayRef holds ParseArrayRef's in-place reading of a string
// reference to json.Unmarshal and ParseArray: the same array, or the same
// error text, for escaped digits, signs, spaces, long and overflowing
// digit runs, arrays past the size limit, invalid UTF-8 and trailing
// bytes.
func FuzzParseArrayRef(f *testing.F) {
	for _, seed := range []string{
		`"512x512"`, `"512"`, `"512X256"`, ` "64x48" `, `"0x4"`, `"70000x1"`,
		`"5\u0031\u0032x512"`, `"+5x5"`, `"-5"`, `"05x007"`, `" 512x512 "`, `"512x"`, `"x512"`,
		`"512x512x3"`, `"123456789x1"`, `"1234567890x1"`, `"99999999999999999999"`,
		"\"\xffx1\"", `"512x512"x`, `"512x512`, `""`, `"x"`, `"ｘ"`,
		`{"rows": 3, "cols": 4}`, `[1]`, `42`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := ParseArrayRef(raw)
		want, wantErr := decodedArrayRef(raw)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ParseArrayRef(%q) = %v, %v; decoded reading %v, %v", raw, got, err, want, wantErr)
		}
	})
}

// TestParseArrayRefAllocs pins that a plain "RowsxCols" reference is read
// in place, allocating nothing; json.Unmarshal into a string allocated
// twice.
func TestParseArrayRefAllocs(t *testing.T) {
	for _, ref := range []string{`"512x512"`, `"300"`, ` "64X48"` + "\n"} {
		raw := []byte(ref)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := ParseArrayRef(raw); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("ParseArrayRef(%s) allocates %.0f times, want 0", ref, allocs)
		}
	}
}
