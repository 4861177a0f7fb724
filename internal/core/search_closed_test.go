package core

import (
	"context"
	"testing"
)

// TestClosedFormRouting pins that SearchVWSDK resolves every layer shape —
// dense, padded, rectangular, pointwise, strided, grouped and depthwise —
// with the one closed-form walk (checkClosedForm), so no shape can silently
// fall off onto a slower path.
func TestClosedFormRouting(t *testing.T) {
	tests := []struct {
		name  string
		layer Layer
	}{
		{"dense unit stride", Layer{IW: 32, IH: 32, KW: 3, KH: 3, IC: 64, OC: 64}},
		{"dense padded", Layer{IW: 224, IH: 224, KW: 3, KH: 3, IC: 3, OC: 64, PadW: 1, PadH: 1}},
		{"dense rect kernel", Layer{IW: 40, IH: 12, KW: 5, KH: 3, IC: 16, OC: 32}},
		{"dense pointwise", Layer{IW: 14, IH: 14, KW: 1, KH: 1, IC: 96, OC: 576}},
		{"explicit groups=1", Layer{IW: 32, IH: 32, KW: 3, KH: 3, IC: 64, OC: 64, Groups: 1}},
		{"strided", Layer{IW: 224, IH: 224, KW: 7, KH: 7, IC: 3, OC: 64, StrideW: 2, StrideH: 2, PadW: 3, PadH: 3}},
		{"strided one axis", Layer{IW: 40, IH: 12, KW: 5, KH: 3, IC: 16, OC: 32, StrideW: 1, StrideH: 2}},
		{"grouped", Layer{IW: 56, IH: 56, KW: 3, KH: 3, IC: 128, OC: 128, Groups: 32, PadW: 1, PadH: 1}},
		{"depthwise", Layer{IW: 112, IH: 112, KW: 3, KH: 3, IC: 32, OC: 32, Groups: 32, PadW: 1, PadH: 1}},
		{"depthwise strided", Layer{IW: 56, IH: 56, KW: 3, KH: 3, IC: 144, OC: 144, Groups: 144, StrideW: 2, StrideH: 2, PadW: 1, PadH: 1}},
	}
	a := Array{Rows: 512, Cols: 512}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := SearchVWSDK(tt.layer, a)
			if err != nil {
				t.Fatal(err)
			}
			checkClosedForm(t, tt.layer, a, res)
		})
	}
}

// TestClosedFormCancellation pins that the closed-form walk honors its
// per-row cancellation checkpoints like every other search loop.
func TestClosedFormCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := Layer{IW: 224, IH: 224, KW: 3, KH: 3, IC: 64, OC: 64, PadW: 1, PadH: 1}
	if _, err := SearchVWSDKContext(ctx, l, Array{Rows: 1024, Cols: 1024}); err == nil {
		t.Fatal("closed-form search ignored a cancelled context")
	}
}
