package experiments

import (
	"context"
	"fmt"

	"repro/internal/bitslice"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/textplot"
)

// Bitslice (extension E14) quantifies the cost of finite cell/DAC precision:
// weight slices shrink the per-window column budget (eq. 6) and bit-serial
// input passes multiply the cycles. The optimal window is re-searched at
// every precision, so the table also shows where the best window shape
// changes under slicing.
func Bitslice(a core.Array) (*Result, error) {
	precisions := []struct {
		name string
		p    bitslice.Precision
	}{
		{"ideal (1 slice, 1 pass)", bitslice.Full()},
		{"w4/c2 a4/d2", bitslice.Precision{WeightBits: 4, CellBits: 2, InputBits: 4, DACBits: 2}},
		{"w8/c2 a8/d2", bitslice.Precision{WeightBits: 8, CellBits: 2, InputBits: 8, DACBits: 2}},
		{"w8/c1 a8/d1", bitslice.Precision{WeightBits: 8, CellBits: 1, InputBits: 8, DACBits: 1}},
	}
	r := &Result{
		ID:    "bitslice",
		Paper: "Extension: VW-SDK under finite cell/DAC precision (bit slicing)",
		Table: &textplot.Table{
			Title: fmt.Sprintf("ResNet-18 total cycles under bit slicing (array %s)", a),
			Header: []string{"precision", "slices", "passes",
				"total cycles", "slowdown vs ideal", "conv1 window"},
			Notes: []string{
				"slices multiply the column demand (eq. 6); passes multiply cycles directly",
				"the optimal window is re-searched per precision",
			},
		},
		Summary: map[string]float64{},
	}
	layers := model.ResNet18().CoreLayers()
	var ideal int64
	for i, pc := range precisions {
		var total int64
		var conv1 string
		for li, l := range layers {
			res, err := bitslice.Search(l, a, pc.p)
			if err != nil {
				return nil, err
			}
			total += res.Best.Cycles
			if li == 0 {
				conv1 = res.Best.PW.String()
			}
		}
		if i == 0 {
			ideal = total
		}
		slow := float64(total) / float64(ideal)
		r.Table.AddRow(pc.name, pc.p.WeightSlices(), pc.p.InputPasses(),
			total, fmt.Sprintf("%.1fx", slow), conv1)
		r.Summary[fmt.Sprintf("p%d/cycles", i)] = float64(total)
		r.Summary[fmt.Sprintf("p%d/slowdown", i)] = slow
	}
	return r, nil
}

// Chip (extension E15) scales each network across multi-array chips,
// comparing VW-SDK and im2col makespans.
func Chip(a core.Array) (*Result, error) {
	counts := []int{1, 2, 4, 8, 16, 32, 64}
	r := &Result{
		ID:    "chip",
		Paper: "Extension: multi-array chip scheduling (makespan in computing cycles)",
		Table: &textplot.Table{
			Title:  fmt.Sprintf("Layer-sequential network makespan (arrays of %s)", a),
			Header: []string{"net", "arrays", "im2col makespan", "VW-SDK makespan", "VW speedup", "VW scaling"},
			Notes: []string{
				"scaling = single-array VW makespan / this VW makespan",
				"scaling saturates once every tile is replicated across spare arrays per layer",
			},
		},
		Summary: map[string]float64{},
	}
	for _, n := range []model.Network{model.VGG13(), model.ResNet18()} {
		// One compile per (scheme, chip size); the per-layer searches behind
		// every chip size are served once from the compiler's cache.
		imSpans := make([]int64, len(counts))
		vwSpans := make([]int64, len(counts))
		for i, count := range counts {
			imPlan, err := pipeline().Compile(context.Background(), compile.NewRequest(n, a, compile.Options{Scheme: compile.Im2col, Arrays: count}))
			if err != nil {
				return nil, err
			}
			vwPlan, err := pipeline().Compile(context.Background(), compile.NewRequest(n, a, compile.Options{Arrays: count}))
			if err != nil {
				return nil, err
			}
			imSpans[i] = imPlan.Totals.Makespan
			vwSpans[i] = vwPlan.Totals.Makespan
		}
		cats := make([]string, 0, len(counts))
		scaling := textplot.Series{Name: "VW-SDK scaling"}
		for i, count := range counts {
			vwScaling := float64(vwSpans[0]) / float64(vwSpans[i])
			r.Table.AddRow(n.Name, count, imSpans[i], vwSpans[i],
				fmt.Sprintf("%.2f", float64(imSpans[i])/float64(vwSpans[i])),
				fmt.Sprintf("%.2f", vwScaling))
			cats = append(cats, fmt.Sprint(count))
			scaling.Values = append(scaling.Values, vwScaling)
			key := fmt.Sprintf("%s/arrays%d", netKey(n), count)
			r.Summary[key+"/vw-makespan"] = float64(vwSpans[i])
			r.Summary[key+"/vw-scaling"] = vwScaling
		}
		r.Charts = append(r.Charts, textplot.GroupedBars(
			fmt.Sprintf("%s VW-SDK scaling over chip size", n.Name),
			cats, []textplot.Series{scaling}, 40))
	}
	return r, nil
}

// Reuse (extension E17) quantifies the input-reuse motivation of the
// paper's Fig. 1: average DAC loads per distinct IFM element for each
// mapping scheme on ResNet-18.
func Reuse(a core.Array) (*Result, error) {
	r := &Result{
		ID:    "reuse",
		Paper: "Extension: input-feature-map reuse (Fig. 1 motivation, quantified)",
		Table: &textplot.Table{
			Title:  fmt.Sprintf("DAC loads per distinct IFM element (array %s)", a),
			Header: []string{"layer", "im2col", "SDK", "VW-SDK"},
			Notes: []string{
				"1.0 = each needed input element crosses a DAC exactly once",
				"parallel windows share one input patch across their duplicated kernels",
			},
		},
		Summary: map[string]float64{},
	}
	// Compile ResNet-18 once per scheme with physical plans: the reuse
	// numbers come straight from each layer's weight-placement plan.
	n := model.ResNet18()
	plans := make([]*compile.NetworkPlan, 0, 3)
	for _, s := range []compile.Scheme{compile.Im2col, compile.SDK, compile.VWSDK} {
		p, err := pipeline().Compile(context.Background(), compile.NewRequest(n, a, compile.Options{Scheme: s, Plans: true}))
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	for i, cl := range n.Layers {
		row := []any{cl.Name}
		for _, p := range plans {
			lp := p.Layers[i]
			lpe := lp.Plan.InputReuse().LoadsPerElement
			row = append(row, fmt.Sprintf("%.2f", lpe))
			r.Summary[fmt.Sprintf("%s/%v/loads", cl.Name, lp.Search.Best.Scheme)] = lpe
		}
		r.Table.AddRow(row...)
	}
	return r, nil
}
