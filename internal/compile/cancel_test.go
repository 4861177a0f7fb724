package compile

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
)

// TestCompileCancelled pins the pipeline's cancellation contract: a
// cancelled context aborts the compilation with an error wrapping
// context.Canceled (no partial plan), for both the serial searcher and the
// engine, and the compiler stays usable afterwards.
func TestCompileCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := NewRequest(model.VGG13(), array512, Options{})
	for _, c := range []*Compiler{New(core.Serial{}), New(engine.New())} {
		p, err := c.Compile(ctx, req)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if p != nil {
			t.Fatal("cancelled compile returned a partial plan")
		}
		if _, err := c.Compile(context.Background(), req); err != nil {
			t.Fatalf("compiler unusable after cancel: %v", err)
		}
	}
}

// TestCompileCancelledStartsNoSearch pins the dispatch checkpoint: a compile
// under an already-cancelled context starts no layer, so the engine serves
// no search at all.
func TestCompileCancelledStartsNoSearch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := engine.New()
	if _, err := New(eng).Compile(ctx, NewRequest(model.VGG13(), array512, Options{})); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := eng.Stats(); st.Searches != 0 {
		t.Errorf("cancelled compile started %d searches, want 0", st.Searches)
	}
}

// TestCompileCancelledAllSchemes covers the scheme dispatch: every scheme —
// including Im2col, which runs no search loop — observes the cancel.
func TestCompileCancelledAllSchemes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New(core.Serial{})
	l := core.Layer{Name: "c", IW: 14, IH: 14, KW: 3, KH: 3, IC: 64, OC: 64}
	for _, s := range []Scheme{VWSDK, Im2col, SMD, SDK} {
		if _, err := c.CompileLayer(ctx, l, array512, Options{Scheme: s}); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", s, err)
		}
	}
}

// TestRequestValidate pins Request.Validate against what Compile accepts.
func TestRequestValidate(t *testing.T) {
	good := NewRequest(model.VGG13(), array512, Options{})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	if err := (Request{Network: model.Network{Name: "empty"}, Array: array512}).Validate(); err == nil {
		t.Error("empty network accepted")
	}
	if err := (Request{Network: model.VGG13()}).Validate(); err == nil {
		t.Error("zero array accepted")
	}
	if err := NewRequest(model.VGG13(), array512, Options{Scheme: Scheme(42)}).Validate(); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := NewRequest(model.VGG13(), array512, Options{Arrays: MaxArrays}).Validate(); err != nil {
		t.Errorf("array count at the limit rejected: %v", err)
	}
	if err := NewRequest(model.VGG13(), array512, Options{Arrays: MaxArrays + 1}).Validate(); err == nil {
		t.Error("array count over the limit accepted")
	}
}
