// Package experiments regenerates every table and figure of the paper's
// evaluation (and the extensions listed in DESIGN.md §4): each generator
// returns a Result holding an aligned text table, optional ASCII charts and
// a Summary of the headline numbers that tests pin against the paper.
package experiments

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/textplot"
)

// Array512 is the paper's default evaluation array.
var Array512 = core.Array{Rows: 512, Cols: 512}

// pipeline is the one compile pipeline every generator that searches runs
// on. It runs on one concurrent engine: experiments repeat (layer, array)
// pairs heavily (Table I, Fig. 8 and Fig. 9 all sweep the same networks),
// so one cache serves them all. Engine results are bit-identical to the
// serial searches, which the package's golden tests pin against the paper.
// It is built on first use, so a program that imports the package without
// running an experiment never allocates the engine's cache.
var pipeline = sync.OnceValue(func() *compile.Compiler { return compile.New(engine.New()) })

// PaperArrays are the array sizes of the paper's Fig. 8(b), in its order.
var PaperArrays = []core.Array{
	{Rows: 128, Cols: 128},
	{Rows: 128, Cols: 256},
	{Rows: 256, Cols: 256},
	{Rows: 512, Cols: 256},
	{Rows: 512, Cols: 512},
}

// Result is one regenerated experiment.
type Result struct {
	// ID is the experiment identifier from DESIGN.md §4, e.g. "table1".
	ID string

	// Paper names the artifact reproduced, e.g. "Table I".
	Paper string

	// Table is the tabular data.
	Table *textplot.Table

	// Charts are rendered ASCII figures accompanying the table.
	Charts []string

	// Summary holds the headline numbers by name (e.g.
	// "vgg13/vw-vs-im2col") for golden tests and EXPERIMENTS.md.
	Summary map[string]float64
}

// String renders the experiment: table, charts, then summary lines in
// deterministic order.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s\n\n", r.ID, r.Paper)
	b.WriteString(r.Table.String())
	for _, c := range r.Charts {
		b.WriteString("\n" + c)
	}
	if len(r.Summary) > 0 {
		b.WriteString("\nsummary:\n")
		for _, k := range slices.Sorted(maps.Keys(r.Summary)) {
			fmt.Fprintf(&b, "  %-40s %.4g\n", k, r.Summary[k])
		}
	}
	return b.String()
}

// trio holds the three mappings the paper compares on every layer.
type trio struct {
	im, sdk, vw core.Mapping
}

// mapLayer compiles one layer under the SDK and VW-SDK schemes (the im2col
// baseline rides along in every search result).
func mapLayer(l core.Layer, a core.Array) (trio, error) {
	c := pipeline()
	sdk, err := c.CompileLayer(context.Background(), l, a, compile.Options{Scheme: compile.SDK})
	if err != nil {
		return trio{}, err
	}
	vw, err := c.CompileLayer(context.Background(), l, a, compile.Options{})
	if err != nil {
		return trio{}, err
	}
	return trio{im: vw.Search.Im2col, sdk: sdk.Search.Best, vw: vw.Search.Best}, nil
}

// compiled is a network compiled under the SDK and VW-SDK schemes: the
// per-layer mappings paired up in layer order, and both plans' totals.
type compiled struct {
	layers  []trio
	sdk, vw compile.Totals
}

// mapNetwork compiles a whole network under the SDK and VW-SDK schemes.
func mapNetwork(n model.Network, a core.Array) (compiled, error) {
	c := pipeline()
	sdk, err := c.Compile(context.Background(), compile.NewRequest(n, a, compile.Options{Scheme: compile.SDK}))
	if err != nil {
		return compiled{}, err
	}
	vw, err := c.Compile(context.Background(), compile.NewRequest(n, a, compile.Options{}))
	if err != nil {
		return compiled{}, err
	}
	out := compiled{layers: make([]trio, len(n.Layers)), sdk: sdk.Totals, vw: vw.Totals}
	for i := range n.Layers {
		out.layers[i] = trio{
			im:  vw.Layers[i].Search.Im2col,
			sdk: sdk.Layers[i].Search.Best,
			vw:  vw.Layers[i].Search.Best,
		}
	}
	return out, nil
}

// TableI reproduces the paper's Table I: per-layer window/tile choices of
// the SDK baseline and VW-SDK, and total cycles per network, on array a
// (the paper uses 512×512).
func TableI(a core.Array) (*Result, error) {
	r := &Result{
		ID:    "table1",
		Paper: "Table I: information of CNNs and results",
		Table: &textplot.Table{
			Title: fmt.Sprintf("Table I (array %s)", a),
			Header: []string{"net", "#", "image", "kernel",
				"SDK (PWxICxOC)", "SDK cycles", "VW-SDK (PWxICtxOCt)", "VW cycles"},
			Notes: []string{
				"paper prints VGG-13 layer 2 as 4x4x64x64; eq. 4 yields ICt=32 (4·4·64 rows > 512), asserted here",
				"PW=K rows mean the search degenerated to im2col, as the paper reports after layer 3",
			},
		},
		Summary: map[string]float64{},
	}
	for _, n := range []model.Network{model.VGG13(), model.ResNet18()} {
		cn, err := mapNetwork(n, a)
		if err != nil {
			return nil, err
		}
		for i, t := range cn.layers {
			l := n.Layers[i]
			r.Table.AddRow(n.Name, i+1,
				fmt.Sprintf("%dx%d", l.IW, l.IH),
				fmt.Sprintf("%dx%dx%dx%d", l.KW, l.KH, l.IC, l.OC),
				fmt.Sprintf("%sx%dx%d", t.sdk.PW, t.sdk.ICt, t.sdk.OCt),
				t.sdk.Cycles,
				t.vw.TileString(),
				t.vw.Cycles)
		}
		im, sdk, vw := cn.vw.Im2colCycles, cn.sdk.Cycles, cn.vw.Cycles
		r.Table.AddRow(n.Name, "total", "", "", "", sdk, "", vw)
		key := netKey(n)
		r.Summary[key+"/im2col-cycles"] = float64(im)
		r.Summary[key+"/sdk-cycles"] = float64(sdk)
		r.Summary[key+"/vw-cycles"] = float64(vw)
	}
	return r, nil
}

// Fig4 reproduces Fig. 4: the input/output channel counts each mapping can
// serve in one cycle on contemporary array sizes, against the actual demands
// of VGG-13 conv2–conv8 (3×3 kernels). Im2col computes floor(Rows/9)
// input channels and Cols output channels at once; SDK with its 4×4 window
// computes floor(Rows/16) and floor(Cols/4).
func Fig4() (*Result, error) {
	arrays := []core.Array{
		{Rows: 128, Cols: 128},
		{Rows: 256, Cols: 256},
		{Rows: 512, Cols: 512},
		{Rows: 512, Cols: 256},
	}
	demands := model.VGG13().Layers[1:8] // conv2..conv8
	r := &Result{
		ID:    "fig4",
		Paper: "Fig. 4: computable channel size per mapping vs. VGG-13 demands",
		Table: &textplot.Table{
			Title:  "Computable channels per cycle (3x3 kernels)",
			Header: []string{"array", "method", "IC max", "OC max", "VGG-13 conv layers fully mappable"},
		},
		Summary: map[string]float64{},
	}
	for _, a := range arrays {
		type method struct {
			name   string
			ic, oc int
		}
		methods := []method{
			{"im2col", a.Rows / 9, a.Cols},
			{"SDK 4x4", a.Rows / 16, a.Cols / 4},
		}
		for _, m := range methods {
			fit := 0
			var names []string
			for _, d := range demands {
				if d.IC <= m.ic && d.OC <= m.oc {
					fit++
					names = append(names, d.Name)
				}
			}
			r.Table.AddRow(a, m.name, m.ic, m.oc, strings.Join(names, " "))
			r.Summary[fmt.Sprintf("%s/%s/mappable", a, m.name)] = float64(fit)
		}
	}
	r.Table.Notes = append(r.Table.Notes,
		"the paper's point: no contemporary array maps the later VGG-13 layers in one cycle, so tiling is mandatory")
	return r, nil
}

// fig5Layer is the running example of the paper's Fig. 5: 3×3 kernel,
// IC 42, OC 96 on a 512×256 array.
func fig5Layer(ifm int) core.Layer {
	return core.Layer{Name: fmt.Sprintf("example-%d", ifm),
		IW: ifm, IH: ifm, KW: 3, KH: 3, IC: 42, OC: 96}
}

var fig5Array = core.Array{Rows: 512, Cols: 256}

// Fig5a reproduces the worked example of Fig. 5(a): on a 4×4 IFM, im2col
// needs 4 cycles, the 4×3 rectangular window 2 cycles, and the 4×4 square
// window 4 cycles (its 672 rows and 384 columns overflow the 512×256 array,
// doubling AR and AC).
func Fig5a() (*Result, error) {
	l := fig5Layer(4)
	r := &Result{
		ID:    "fig5a",
		Paper: "Fig. 5(a): cycle calculation example (512x256 array, 3x3 kernel, IC 42, OC 96, 4x4 IFM)",
		Table: &textplot.Table{
			Title:  "Computing-cycle breakdown",
			Header: []string{"mapping", "rows needed", "cols needed", "N_PW", "AR", "AC", "cycles"},
		},
		Summary: map[string]float64{},
	}
	im, err := core.Im2col(l, fig5Array)
	if err != nil {
		return nil, err
	}
	r.Table.AddRow("im2col 3x3", l.KernelRows(), l.OC, im.NPW, im.AR, im.AC, im.Cycles)
	r.Summary["im2col/cycles"] = float64(im.Cycles)
	for _, pw := range []core.Window{{W: 4, H: 3}, {W: 4, H: 4}} {
		m, err := core.VW(l, fig5Array, pw)
		if err != nil {
			return nil, err
		}
		rows := pw.Area() * l.IC
		cols := m.Nw() * l.OC
		r.Table.AddRow("window "+pw.String(), rows, cols, m.NPW, m.AR, m.AC, m.Cycles)
		r.Summary[pw.String()+"/cycles"] = float64(m.Cycles)
	}
	return r, nil
}

// Fig5b reproduces Fig. 5(b): speedup over im2col of the fixed 4×4 square
// window versus the 6×3 and 4×3 rectangular windows as the IFM grows over
// the sizes VGGNet uses.
func Fig5b() (*Result, error) {
	sizes := []int{7, 8, 14, 16, 28, 32, 56, 64, 112, 128, 224, 256}
	windows := []core.Window{{W: 4, H: 4}, {W: 6, H: 3}, {W: 4, H: 3}}
	r := &Result{
		ID:    "fig5b",
		Paper: "Fig. 5(b): square vs rectangular window speedup over IFM sizes",
		Table: &textplot.Table{
			Title:  "Speedup over im2col (512x256 array, 3x3 kernel, IC 42, OC 96)",
			Header: []string{"IFM", "4x4 square", "6x3 rect", "4x3 rect"},
		},
		Summary: map[string]float64{},
	}
	series := make([]textplot.Series, len(windows))
	for i, w := range windows {
		series[i] = textplot.Series{Name: w.String()}
	}
	var labels []string
	for _, s := range sizes {
		l := fig5Layer(s)
		im, err := core.Im2col(l, fig5Array)
		if err != nil {
			return nil, err
		}
		row := []any{s}
		for i, w := range windows {
			m, err := core.VW(l, fig5Array, w)
			if err != nil {
				return nil, err
			}
			sp := m.Speedup(im)
			row = append(row, fmt.Sprintf("%.2f", sp))
			series[i].Values = append(series[i].Values, sp)
		}
		r.Table.AddRow(row...)
		labels = append(labels, fmt.Sprint(s))
	}
	r.Charts = append(r.Charts,
		textplot.Line("speedup vs IFM size", labels, series, 12))
	// Paper highlight: at IFM 14 the 4×3 window is ~2× the 4×4 window.
	i14 := 2 // index of size 14
	r.Summary["ifm14/4x3-over-4x4"] = series[2].Values[i14] / series[0].Values[i14]
	r.Summary["ifm14/4x3-speedup"] = series[2].Values[i14]
	r.Summary["ifm14/4x4-speedup"] = series[0].Values[i14]
	return r, nil
}

// Fig7a reproduces Fig. 7(a): tiled input channels (eq. 4) versus
// parallel-window area for 128/256/512-row arrays.
func Fig7a() (*Result, error) {
	rows := []int{128, 256, 512}
	r := &Result{
		ID:    "fig7a",
		Paper: "Fig. 7(a): tiled ICs vs parallel window size",
		Table: &textplot.Table{
			Title:  "ICt = floor(rows / window area)   (eq. 4)",
			Header: []string{"window area", "128 rows", "256 rows", "512 rows"},
		},
		Summary: map[string]float64{},
	}
	series := make([]textplot.Series, len(rows))
	var labels []string
	for i, rw := range rows {
		series[i] = textplot.Series{Name: fmt.Sprintf("%d rows", rw)}
	}
	for area := 9; area <= 76; area++ {
		row := []any{area}
		for i, rw := range rows {
			ict := rw / area
			row = append(row, ict)
			series[i].Values = append(series[i].Values, float64(ict))
		}
		r.Table.AddRow(row...)
		labels = append(labels, fmt.Sprint(area))
	}
	// Chart only every 6th point to keep the x-axis readable.
	var cl []string
	cs := make([]textplot.Series, len(series))
	for i := range cs {
		cs[i] = textplot.Series{Name: series[i].Name}
	}
	for j := 0; j < len(labels); j += 6 {
		cl = append(cl, labels[j])
		for i := range series {
			cs[i].Values = append(cs[i].Values, series[i].Values[j])
		}
	}
	r.Charts = append(r.Charts, textplot.Line("tiled ICs vs window area", cl, cs, 10))
	r.Summary["area9/512rows"] = 512 / 9
	r.Summary["area76/512rows"] = 512 / 76
	return r, nil
}

// Fig7b reproduces Fig. 7(b): tiled output channels (eq. 6) versus the
// number of windows in the parallel window for 128/256/512-column arrays.
func Fig7b() (*Result, error) {
	cols := []int{128, 256, 512}
	r := &Result{
		ID:    "fig7b",
		Paper: "Fig. 7(b): tiled OCs vs windows per parallel window",
		Table: &textplot.Table{
			Title:  "OCt = floor(cols / Nw)   (eq. 6)",
			Header: []string{"windows (Nw)", "128 cols", "256 cols", "512 cols"},
		},
		Summary: map[string]float64{},
	}
	series := make([]textplot.Series, len(cols))
	for i, c := range cols {
		series[i] = textplot.Series{Name: fmt.Sprintf("%d cols", c)}
	}
	var labels []string
	for nw := 1; nw <= 15; nw += 2 {
		row := []any{nw}
		for i, c := range cols {
			oct := c / nw
			row = append(row, oct)
			series[i].Values = append(series[i].Values, float64(oct))
		}
		r.Table.AddRow(row...)
		labels = append(labels, fmt.Sprint(nw))
	}
	r.Charts = append(r.Charts, textplot.Line("tiled OCs vs Nw", labels, series, 10))
	r.Summary["nw1/512cols"] = 512
	r.Summary["nw15/512cols"] = float64(512 / 15)
	return r, nil
}
