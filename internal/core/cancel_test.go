package core

import (
	"context"
	"errors"
	"testing"
)

// allMethods lists every search method Search dispatches.
var allMethods = []Method{
	{Scheme: SchemeIm2col},
	{Scheme: SchemeSMD},
	{Scheme: SchemeSDK},
	MethodVWSDK,
	{Scheme: SchemeVWSDK, Variant: VariantSquareTiled},
	{Scheme: SchemeVWSDK, Variant: VariantRectFullChannel},
}

// TestSearchContextCancelled pins the cooperative cancellation contract: a
// search entered with an already-cancelled context returns ctx.Err() (not a
// result, not a different error) for every search method under both the
// default and the exhaustive searcher.
func TestSearchContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := Layer{Name: "c", IW: 14, IH: 14, KW: 3, KH: 3, IC: 64, OC: 64}
	a := Array{Rows: 256, Cols: 256}
	for _, s := range []Searcher{Serial{}, Exhaustive{}} {
		for _, m := range allMethods {
			res, err := s.Search(ctx, l, a, m)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%T %v: err = %v, want context.Canceled", s, m, err)
			}
			if res != (Result{}) {
				t.Errorf("%T %v: cancelled search returned a result: %+v", s, m, res)
			}
		}
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
