package core

import (
	"strings"
	"testing"
)

func TestExplainVWSDK(t *testing.T) {
	l := Layer{Name: "conv4", IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256}
	res, err := SearchVWSDK(l, array512)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Best.Explain()
	for _, want := range []string{
		"VW-SDK mapping",
		"ICt (eq.4)       = floor(Rows / PW area) = floor(512/12) = 42",
		"AR  (eq.5)       = ceil(IC / ICt) = ceil(256/42) = 7",
		"OCt (eq.6)       = floor(Cols / Nw) = floor(512/2) = 256",
		"cycles (eq.8)    = N_PW x AR x AC = 72 x 7 x 1 = 504",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Explain missing %q in:\n%s", want, s)
		}
	}
	full := ExplainSearch(res)
	if !strings.Contains(full, "baseline:") || !strings.Contains(full, "speedup vs im2col: 1.43x") {
		t.Errorf("ExplainSearch malformed:\n%s", full)
	}
}

func TestExplainOtherSchemes(t *testing.T) {
	l := Layer{IW: 12, IH: 12, KW: 3, KH: 3, IC: 8, OC: 8}
	a := Array{Rows: 96, Cols: 64}
	im, err := Im2col(l, a)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(im.Explain(), "window = kernel") {
		t.Error("im2col explain malformed")
	}
	sdk, err := SDK(l, a, Window{W: 4, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sdk.Explain(), "entire channels") {
		t.Error("SDK explain malformed")
	}
	smd, err := SMD(l, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(smd.Explain(), "block-diagonal") {
		t.Error("SMD explain malformed")
	}
}
