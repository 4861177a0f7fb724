package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestSearchContextCancelled pins the cooperative cancellation contract: a
// search entered with an already-cancelled context returns ctx.Err() (not a
// result, not a different error) for every search family and both the pruned
// and exhaustive implementations.
func TestSearchContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := Layer{Name: "c", IW: 14, IH: 14, KW: 3, KH: 3, IC: 64, OC: 64}
	a := Array{Rows: 256, Cols: 256}
	searches := map[string]func() (Result, error){
		"vwsdk":     func() (Result, error) { return SearchVWSDKContext(ctx, l, a) },
		"sdk":       func() (Result, error) { return SearchSDKContext(ctx, l, a) },
		"smd":       func() (Result, error) { return SearchSMDContext(ctx, l, a) },
		"full":      func() (Result, error) { return SearchVariantContext(ctx, l, a, VariantFull) },
		"square":    func() (Result, error) { return SearchVariantContext(ctx, l, a, VariantSquareTiled) },
		"rect":      func() (Result, error) { return SearchVariantContext(ctx, l, a, VariantRectFullChannel) },
		"exh-vwsdk": func() (Result, error) { return Exhaustive{}.SearchVWSDK(ctx, l, a) },
		"exh-rect":  func() (Result, error) { return Exhaustive{}.SearchVariant(ctx, l, a, VariantRectFullChannel) },
	}
	for name, search := range searches {
		res, err := search()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if res != (Result{}) {
			t.Errorf("%s: cancelled search returned a result: %+v", name, res)
		}
	}
}

// TestSearchNetworkCancelled pins that a cancelled context surfaces from the
// network aggregation as a layer-wrapped context error, and that no layer
// search is started after the cancel.
func TestSearchNetworkCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	layers := resnet18Shapes()
	a := Array{Rows: 512, Cols: 512}

	if _, err := SearchNetworkContext(ctx, layers, a); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}

	var started atomic.Int32
	_, err := SearchNetworkWith(ctx, layers, a, func(ctx context.Context, l Layer, a Array) (Result, error) {
		started.Add(1)
		return SearchVWSDKContext(ctx, l, a)
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("with: err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n != 0 {
		t.Errorf("started %d layer searches after cancel, want 0", n)
	}
}

// TestSearchContextBackgroundMatchesPlain pins that threading a live context
// changes nothing: the context form returns bit-identical results to the
// context-free wrapper on a zoo sample.
func TestSearchContextBackgroundMatchesPlain(t *testing.T) {
	ctx := context.Background()
	a := Array{Rows: 512, Cols: 512}
	for _, l := range resnet18Shapes() {
		plain, err1 := SearchVWSDK(l, a)
		withCtx, err2 := SearchVWSDKContext(ctx, l, a)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", l.Name, err1, err2)
		}
		if plain != withCtx {
			t.Errorf("%s: context form differs from plain form", l.Name)
		}
	}
}
