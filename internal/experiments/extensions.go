package experiments

import (
	"context"
	"fmt"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/textplot"
)

// Ablation (extension E11) attributes VW-SDK's gain between its two ideas —
// rectangular windows and channel tiling — by compiling each network under
// the restricted variants of the search, with the SMD baseline for context.
func Ablation(a core.Array) (*Result, error) {
	r := &Result{
		ID:    "ablation",
		Paper: "Extension: ablation of VW-SDK's two ideas (DESIGN.md §5)",
		Table: &textplot.Table{
			Title:  fmt.Sprintf("Total cycles and speedup vs im2col (array %s)", a),
			Header: []string{"net", "mapping", "total cycles", "speedup"},
			Notes: []string{
				"square+tiled: channel tiling only (square windows)",
				"rect+full-channels: rectangular windows with the SDK baseline's whole-channel rule",
			},
		},
		Summary: map[string]float64{},
	}
	// Each ablation is one compile of the whole network; the pipeline's
	// totals replace the old hand-summed per-layer loops.
	ablations := []struct {
		name string
		opts compile.Options
	}{
		{"SMD", compile.Options{Scheme: compile.SMD}},
		{"SDK (square, full channels)", compile.Options{Scheme: compile.SDK}},
		{"square + tiled channels", compile.Options{Variant: core.VariantSquareTiled}},
		{"rect + full channels", compile.Options{Variant: core.VariantRectFullChannel}},
		{"VW-SDK (full)", compile.Options{}},
	}
	for _, n := range []model.Network{model.VGG13(), model.ResNet18()} {
		cycles := make([]int64, len(ablations))
		var im int64
		for i, ab := range ablations {
			p, err := pipeline().Compile(context.Background(), compile.NewRequest(n, a, ab.opts))
			if err != nil {
				return nil, err
			}
			cycles[i] = p.Totals.Cycles
			im = p.Totals.Im2colCycles
		}
		r.Table.AddRow(n.Name, "im2col", im, "1.00")
		for i, ab := range ablations {
			sp := float64(im) / float64(cycles[i])
			r.Table.AddRow(n.Name, ab.name, cycles[i], fmt.Sprintf("%.2f", sp))
		}
		key := netKey(n)
		r.Summary[key+"/smd-cycles"] = float64(cycles[0])
		r.Summary[key+"/square-tiled-cycles"] = float64(cycles[2])
		r.Summary[key+"/rect-full-cycles"] = float64(cycles[3])
		r.Summary[key+"/vw-cycles"] = float64(cycles[4])
	}
	return r, nil
}

// Energy (extension E12) estimates per-inference latency and energy for
// im2col, SDK and VW-SDK under the default (full-array peripherals) model
// and reports the conversion-dominated split the paper cites.
func Energy(a core.Array) (*Result, error) {
	r := &Result{
		ID:    "energy",
		Paper: "Extension: latency/energy estimate (conversion-dominated, Section II-B)",
		Table: &textplot.Table{
			Title: fmt.Sprintf("Per-inference latency and energy (array %s, synthetic constants)", a),
			Header: []string{"net", "mapping", "cycles", "latency",
				"energy (uJ)", "conversion %", "gated energy (uJ)"},
			Notes: []string{
				"full-array peripherals (paper's implicit model): energy tracks cycles",
				"gated peripherals: only the programmed footprint converts; VW-SDK's wider cycles close the gap",
			},
		},
		Summary: map[string]float64{},
	}
	schemes := []struct {
		name   string
		scheme compile.Scheme
	}{
		{"im2col", compile.Im2col},
		{"SDK", compile.SDK},
		{"VW-SDK", compile.VWSDK},
	}
	for _, n := range []model.Network{model.VGG13(), model.ResNet18()} {
		for _, s := range schemes {
			// Two compiles per scheme — default and gated peripherals; the
			// searches behind them are shared through the compiler's cache.
			p, err := pipeline().Compile(context.Background(), compile.NewRequest(n, a, compile.Options{Scheme: s.scheme}))
			if err != nil {
				return nil, err
			}
			gp, err := pipeline().Compile(context.Background(), compile.NewRequest(n, a, compile.Options{Scheme: s.scheme, GatePeripherals: true}))
			if err != nil {
				return nil, err
			}
			rep, gRep := p.Totals.Energy, gp.Totals.Energy
			r.Table.AddRow(n.Name, s.name, rep.Cycles, rep.Latency,
				fmt.Sprintf("%.2f", rep.EnergyTotal*1e6),
				fmt.Sprintf("%.1f", 100*rep.ConversionFraction()),
				fmt.Sprintf("%.2f", gRep.EnergyTotal*1e6))
			key := fmt.Sprintf("%s/%s", netKey(n), s.name)
			r.Summary[key+"/energy-uj"] = rep.EnergyTotal * 1e6
			r.Summary[key+"/conversion-frac"] = rep.ConversionFraction()
		}
	}
	return r, nil
}

// VerifyFunctional (extension E13) executes sampled layers on the simulated
// crossbar under all four schemes and confirms bit-exact equivalence with
// the reference convolution, plus exact cycle agreement with the analytic
// model.
func VerifyFunctional(seed uint64) (*Result, error) {
	cases := []struct {
		name string
		l    core.Layer
		a    core.Array
	}{
		{"small mixed", core.Layer{Name: "small", IW: 9, IH: 8, KW: 3, KH: 3, IC: 5, OC: 7},
			core.Array{Rows: 64, Cols: 48}},
		{"rect kernel", core.Layer{Name: "rk", IW: 10, IH: 9, KW: 3, KH: 2, IC: 4, OC: 5},
			core.Array{Rows: 64, Cols: 48}},
		{"channel heavy", core.Layer{Name: "ch", IW: 8, IH: 8, KW: 3, KH: 3, IC: 40, OC: 24},
			core.Array{Rows: 96, Cols: 64}},
		{"resnet conv5 512x512", core.Layer{Name: "conv5", IW: 7, IH: 7, KW: 3, KH: 3, IC: 512, OC: 512},
			core.Array{Rows: 512, Cols: 512}},
	}
	r := &Result{
		ID:    "verify",
		Paper: "Extension: functional verification of every scheme on the crossbar simulator",
		Table: &textplot.Table{
			Title:  "Crossbar OFM vs reference convolution (exact integer comparison)",
			Header: []string{"case", "layer", "array", "schemes", "result"},
		},
		Summary: map[string]float64{},
	}
	pass := 0
	for _, c := range cases {
		res := "PASS"
		if err := mapping.VerifyAllSchemes(c.l, c.a, seed); err != nil {
			res = "FAIL: " + err.Error()
		} else {
			pass++
		}
		r.Table.AddRow(c.name, c.l.String(), c.a, "im2col+SMD+SDK+VW", res)
	}
	r.Summary["cases"] = float64(len(cases))
	r.Summary["passed"] = float64(pass)
	if pass != len(cases) {
		return r, fmt.Errorf("experiments: functional verification failed (%d/%d passed)",
			pass, len(cases))
	}
	return r, nil
}

// generators lists every experiment with the paper's default parameters:
// Table I and the figures in the paper's order, then the extensions.
func generators() []generator {
	return []generator{
		{"table1", func() (*Result, error) { return TableI(Array512) }},
		{"fig4", Fig4},
		{"fig5a", Fig5a},
		{"fig5b", Fig5b},
		{"fig7a", Fig7a},
		{"fig7b", Fig7b},
		{"fig8a", func() (*Result, error) { return Fig8a(Array512) }},
		{"fig8b", Fig8b},
		{"fig9a", func() (*Result, error) { return Fig9a(Array512) }},
		{"fig9b", Fig9b},
		{"ablation", func() (*Result, error) { return Ablation(Array512) }},
		{"energy", func() (*Result, error) { return Energy(Array512) }},
		{"verify", func() (*Result, error) { return VerifyFunctional(0xbeef) }},
		{"bitslice", func() (*Result, error) { return Bitslice(Array512) }},
		{"chip", func() (*Result, error) { return Chip(Array512) }},
		{"reuse", func() (*Result, error) { return Reuse(Array512) }},
	}
}

// generator is one named experiment entry.
type generator struct {
	name string
	f    func() (*Result, error)
}

// IDs returns every experiment identifier, in run order.
func IDs() []string {
	gens := generators()
	ids := make([]string, len(gens))
	for i, g := range gens {
		ids[i] = g.name
	}
	return ids
}

// Run regenerates the experiments with the given ids, in the order given,
// or every experiment in generator order when none are listed. Unknown ids
// error before anything runs.
func Run(ids ...string) ([]*Result, error) {
	gens := generators()
	if len(ids) > 0 {
		byName := make(map[string]generator, len(gens))
		for _, g := range gens {
			byName[g.name] = g
		}
		picked := make([]generator, 0, len(ids))
		for _, id := range ids {
			g, ok := byName[id]
			if !ok {
				return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
			}
			picked = append(picked, g)
		}
		gens = picked
	}
	out := make([]*Result, 0, len(gens))
	for _, g := range gens {
		res, err := g.f()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", g.name, err)
		}
		out = append(out, res)
	}
	return out, nil
}
