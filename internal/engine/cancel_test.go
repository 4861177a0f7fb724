package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
)

// TestEngineSearchCancelled pins that a cancelled context stops an engine
// search before any work is scheduled: the search errors with
// context.Canceled, nothing is cached, and no candidates are costed.
func TestEngineSearchCancelled(t *testing.T) {
	e := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := core.Layer{Name: "c", IW: 14, IH: 14, KW: 3, KH: 3, IC: 64, OC: 64}
	a := core.Array{Rows: 256, Cols: 256}
	if _, err := e.Search(ctx, l, a, core.MethodVWSDK); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := e.Stats()
	if st.CachedResults != 0 || st.CandidatesCosted != 0 {
		t.Errorf("cancelled search left work behind: %+v", st)
	}
	// The same engine still serves the search under a live context, and the
	// result is the serial one.
	res, err := e.Search(context.Background(), l, a, core.MethodVWSDK)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.SearchVWSDK(l, a)
	if err != nil {
		t.Fatal(err)
	}
	if res != want {
		t.Error("post-cancel search differs from serial")
	}
}
