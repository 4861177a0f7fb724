package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/textplot"
)

// Fig8a reproduces Fig. 8(a): per-layer speedup over im2col of the SDK
// baseline and VW-SDK on VGG-13 and ResNet-18 with array a (paper: 512×512).
func Fig8a(a core.Array) (*Result, error) {
	r := &Result{
		ID:    "fig8a",
		Paper: "Fig. 8(a): per-layer speedup normalized to im2col",
		Table: &textplot.Table{
			Title:  fmt.Sprintf("Per-layer speedup vs im2col (array %s)", a),
			Header: []string{"net", "layer", "im2col cycles", "SDK speedup", "VW-SDK speedup"},
		},
		Summary: map[string]float64{},
	}
	for _, n := range []model.Network{model.VGG13(), model.ResNet18()} {
		cn, err := mapNetwork(n, a)
		if err != nil {
			return nil, err
		}
		cats := make([]string, 0, len(cn.layers)+1)
		sdkS := textplot.Series{Name: "SDK"}
		vwS := textplot.Series{Name: "VW-SDK"}
		for i, t := range cn.layers {
			sdk := t.sdk.Speedup(t.im)
			vw := t.vw.Speedup(t.im)
			r.Table.AddRow(n.Name, n.Layers[i].Name, t.im.Cycles,
				fmt.Sprintf("%.2f", sdk), fmt.Sprintf("%.2f", vw))
			cats = append(cats, n.Layers[i].Name)
			sdkS.Values = append(sdkS.Values, sdk)
			vwS.Values = append(vwS.Values, vw)
		}
		im, sdk, vw := cn.vw.Im2colCycles, cn.sdk.Cycles, cn.vw.Cycles
		totSDK := float64(im) / float64(sdk)
		totVW := float64(im) / float64(vw)
		r.Table.AddRow(n.Name, "total", im,
			fmt.Sprintf("%.2f", totSDK), fmt.Sprintf("%.2f", totVW))
		cats = append(cats, "total")
		sdkS.Values = append(sdkS.Values, totSDK)
		vwS.Values = append(vwS.Values, totVW)
		r.Charts = append(r.Charts, textplot.GroupedBars(
			fmt.Sprintf("%s speedup vs im2col", n.Name), cats,
			[]textplot.Series{sdkS, vwS}, 40))
		key := netKey(n)
		r.Summary[key+"/sdk-total-speedup"] = totSDK
		r.Summary[key+"/vw-total-speedup"] = totVW
	}
	return r, nil
}

// Fig8b reproduces Fig. 8(b): whole-network speedup over im2col for the
// paper's five array sizes.
func Fig8b() (*Result, error) {
	r := &Result{
		ID:    "fig8b",
		Paper: "Fig. 8(b): total speedup across PIM array sizes",
		Table: &textplot.Table{
			Title:  "Whole-network speedup vs im2col",
			Header: []string{"net", "array", "im2col cycles", "SDK speedup", "VW-SDK speedup"},
		},
		Summary: map[string]float64{},
	}
	for _, n := range []model.Network{model.VGG13(), model.ResNet18()} {
		cats := make([]string, 0, len(PaperArrays))
		sdkS := textplot.Series{Name: "SDK"}
		vwS := textplot.Series{Name: "VW-SDK"}
		for _, a := range PaperArrays {
			cn, err := mapNetwork(n, a)
			if err != nil {
				return nil, err
			}
			im, sdk, vw := cn.vw.Im2colCycles, cn.sdk.Cycles, cn.vw.Cycles
			sdkSp := float64(im) / float64(sdk)
			vwSp := float64(im) / float64(vw)
			r.Table.AddRow(n.Name, a, im,
				fmt.Sprintf("%.2f", sdkSp), fmt.Sprintf("%.2f", vwSp))
			cats = append(cats, a.String())
			sdkS.Values = append(sdkS.Values, sdkSp)
			vwS.Values = append(vwS.Values, vwSp)
			r.Summary[fmt.Sprintf("%s/%s/vw-speedup", netKey(n), a)] = vwSp
			r.Summary[fmt.Sprintf("%s/%s/sdk-speedup", netKey(n), a)] = sdkSp
		}
		r.Charts = append(r.Charts, textplot.GroupedBars(
			fmt.Sprintf("%s speedup by array size", n.Name), cats,
			[]textplot.Series{sdkS, vwS}, 40))
	}
	return r, nil
}

// Fig9a reproduces Fig. 9(a): average array utilization (eq. 9) of im2col,
// SDK and VW-SDK on VGG-13 layers 1–6 with array a (paper: 512×512).
func Fig9a(a core.Array) (*Result, error) {
	r := &Result{
		ID:    "fig9a",
		Paper: "Fig. 9(a): utilization in VGG-13 conv layers 1-6",
		Table: &textplot.Table{
			Title:  fmt.Sprintf("Utilization %% (array %s)", a),
			Header: []string{"layer", "im2col", "SDK", "VW-SDK", "VW-SDK peak"},
			Notes: []string{
				"utilization counts weight-holding cells per eq. 9, averaged over AR x AC tiles",
				"the paper's 'up to 73.8% at layer 5' is the peak (full-tile) value",
			},
		},
		Summary: map[string]float64{},
	}
	n := model.VGG13()
	layers := n.Layers[:6]
	cats := make([]string, 0, len(layers))
	imS := textplot.Series{Name: "im2col"}
	sdkS := textplot.Series{Name: "SDK"}
	vwS := textplot.Series{Name: "VW-SDK"}
	for i, cl := range layers {
		t, err := mapLayer(cl.Layer, a)
		if err != nil {
			return nil, err
		}
		uIm, uSDK, uVW := t.im.Utilization(), t.sdk.Utilization(), t.vw.Utilization()
		r.Table.AddRow(cl.Name,
			fmt.Sprintf("%.1f", uIm), fmt.Sprintf("%.1f", uSDK),
			fmt.Sprintf("%.1f", uVW), fmt.Sprintf("%.1f", t.vw.PeakUtilization()))
		cats = append(cats, cl.Name)
		imS.Values = append(imS.Values, uIm)
		sdkS.Values = append(sdkS.Values, uSDK)
		vwS.Values = append(vwS.Values, uVW)
		r.Summary[fmt.Sprintf("layer%d/vw-util", i+1)] = uVW
		r.Summary[fmt.Sprintf("layer%d/im2col-util", i+1)] = uIm
	}
	t5, err := mapLayer(layers[4].Layer, a)
	if err != nil {
		return nil, err
	}
	r.Summary["layer5/vw-peak-util"] = t5.vw.PeakUtilization()
	r.Charts = append(r.Charts, textplot.GroupedBars(
		"VGG-13 utilization (%)", cats,
		[]textplot.Series{imS, sdkS, vwS}, 40))
	return r, nil
}

// Fig9b reproduces Fig. 9(b): utilization of VGG-13 layers 4 and 5 across
// array sizes.
func Fig9b() (*Result, error) {
	arrays := []core.Array{
		{Rows: 128, Cols: 128},
		{Rows: 256, Cols: 256},
		{Rows: 512, Cols: 256},
		{Rows: 512, Cols: 512},
	}
	r := &Result{
		ID:    "fig9b",
		Paper: "Fig. 9(b): utilization of VGG-13 layers 4-5 across array sizes",
		Table: &textplot.Table{
			Title:  "Utilization %",
			Header: []string{"layer", "array", "im2col", "SDK", "VW-SDK"},
		},
		Summary: map[string]float64{},
	}
	n := model.VGG13()
	for _, li := range []int{3, 4} { // conv4, conv5
		cl := n.Layers[li]
		cats := make([]string, 0, len(arrays))
		imS := textplot.Series{Name: "im2col"}
		sdkS := textplot.Series{Name: "SDK"}
		vwS := textplot.Series{Name: "VW-SDK"}
		for _, a := range arrays {
			t, err := mapLayer(cl.Layer, a)
			if err != nil {
				return nil, err
			}
			uIm, uSDK, uVW := t.im.Utilization(), t.sdk.Utilization(), t.vw.Utilization()
			r.Table.AddRow(cl.Name, a,
				fmt.Sprintf("%.1f", uIm), fmt.Sprintf("%.1f", uSDK), fmt.Sprintf("%.1f", uVW))
			cats = append(cats, a.String())
			imS.Values = append(imS.Values, uIm)
			sdkS.Values = append(sdkS.Values, uSDK)
			vwS.Values = append(vwS.Values, uVW)
			r.Summary[fmt.Sprintf("%s/%s/vw-util", cl.Name, a)] = uVW
			r.Summary[fmt.Sprintf("%s/%s/im2col-util", cl.Name, a)] = uIm
		}
		r.Charts = append(r.Charts, textplot.GroupedBars(
			fmt.Sprintf("%s utilization (%%)", cl.Name), cats,
			[]textplot.Series{imS, sdkS, vwS}, 40))
	}
	return r, nil
}

func netKey(n model.Network) string {
	switch n.Name {
	case "VGG-13":
		return "vgg13"
	case "ResNet-18":
		return "resnet18"
	default:
		return n.Name
	}
}
