// Command vwsdk is the mapping optimizer CLI: given a convolutional layer
// (or a whole network) and a PIM array size, it compiles the network and
// reports the minimum-cycle mapping found by the paper's VW-SDK algorithm
// next to the im2col, SMD and SDK baselines — the same interface as the
// paper's released script.
//
// -network accepts either a predefined model-zoo name or a path to a JSON
// network spec file (see the repository README for the format), so arbitrary
// user CNNs can be compiled.
//
// Examples:
//
//	vwsdk -ifm 14x14 -kernel 3x3 -ic 256 -oc 256 -array 512x512
//	vwsdk -network ResNet-18 -array 512x512
//	vwsdk -network mynet.json -array 512x512 -arrays 16
//	vwsdk -network VGG-13 -array 256x256 -csv
//	vwsdk -network ResNet-18 -array 512x512 -trace trace.json  # open in chrome://tracing
//	vwsdk -optimize space.json  # hardware co-design: print the cycles/energy/area Pareto frontier
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/textplot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vwsdk:", err)
		os.Exit(1)
	}
}

// resolveNetwork turns the -network flag into a Network: a path to a JSON
// spec when the argument names an existing file or ends in .json (any
// case), a model-zoo entry otherwise.
func resolveNetwork(spec string) (model.Network, error) {
	if st, err := os.Stat(spec); (err == nil && !st.IsDir()) ||
		strings.HasSuffix(strings.ToLower(spec), ".json") {
		return model.FromJSONFile(spec)
	}
	return model.ByName(spec)
}

func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("vwsdk", flag.ContinueOnError)
	var (
		network = fs.String("network", "", "predefined network (VGG-13, ResNet-18, VGG-16, AlexNet, MobileNet-V2, ResNeXt-50) or a JSON spec file; overrides the layer flags")
		optSp   = fs.String("optimize", "", "design-space spec file: search the hardware space and print the Pareto frontier (overrides -network)")
		arraySp = fs.String("array", "512x512", "PIM array size RowsxCols")
		nArrays = fs.Int("arrays", 1, "number of crossbars on the chip (multi-array makespan)")
		explain = fs.Bool("explain", false, "print the equation-by-equation derivation (single layer only)")
		csv     = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		stats   = fs.Bool("stats", false, "print engine statistics (cache hits/misses, candidates costed/pruned)")
		timeout = fs.Duration("timeout", 0, "abort the whole run after this long (0 = no deadline)")
		version = fs.Bool("version", false, "print the version and exit")
		prof    cliutil.ProfileFlags
		tf      cliutil.TraceFlags
		lf      cliutil.LayerFlags
	)
	prof.Register(fs)
	tf.Register(fs)
	fs.StringVar(&lf.IFM, "ifm", "14x14", "input feature map size WxH")
	fs.StringVar(&lf.Kernel, "kernel", "3x3", "kernel size WxH")
	fs.IntVar(&lf.IC, "ic", 256, "input channels")
	fs.IntVar(&lf.OC, "oc", 256, "output channels")
	fs.IntVar(&lf.Stride, "stride", 1, "convolution stride")
	fs.IntVar(&lf.Pad, "pad", 0, "zero padding")
	fs.IntVar(&lf.Groups, "groups", 1, "convolution groups (ic for depthwise)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintf(out, "vwsdk %s\n", cliutil.Version())
		return nil
	}
	if *nArrays < 1 {
		return fmt.Errorf("-arrays must be at least 1, got %d", *nArrays)
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout must not be negative, got %s", *timeout)
	}
	// Only the table output reports the multi-array chip; the other modes
	// would drop -arrays without a word.
	modes := [...]string{"-csv", "-explain", "-optimize"}
	for i, set := range [...]bool{*csv, *explain, *optSp != ""} {
		if set && *nArrays > 1 {
			return fmt.Errorf("-arrays %d cannot be combined with %s: only the table output reports the multi-array chip", *nArrays, modes[i])
		}
	}
	a, err := cliutil.ParseArray(*arraySp)
	if err != nil {
		return err
	}
	// The one context every compilation below runs under: the -timeout
	// deadline aborts the searches at their next cancellation checkpoint,
	// and -trace attaches the span recording every compile threads through.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx = tf.Context(ctx, "vwsdk")
	defer func() {
		if terr := tf.Write(); terr != nil && retErr == nil {
			retErr = terr
		}
	}()
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()
	// Everything below runs through one compile pipeline on one engine: each
	// compilation fans its layers out on at most GOMAXPROCS workers, and each
	// of the four scheme compilations (plus the multi-array one) reuses the
	// cached per-layer searches.
	eng := engine.New()
	comp := compile.New(eng)

	if *optSp != "" {
		if err := runOptimize(ctx, out, comp, *optSp, *csv); err != nil {
			return err
		}
		printEngineStats(out, eng, *stats)
		return nil
	}

	var net model.Network
	if *network != "" {
		if net, err = resolveNetwork(*network); err != nil {
			return err
		}
	} else {
		l, err := lf.Layer("layer")
		if err != nil {
			return err
		}
		net = model.Single(l)
	}
	title := fmt.Sprintf("%s on a %s PIM array", net.Name, a)
	if len(net.Layers) == 1 {
		title = fmt.Sprintf("%s on a %s PIM array", net.Layers[0].Layer, a)
	}

	if *explain {
		if len(net.Layers) != 1 {
			return fmt.Errorf("-explain works on a single layer, not a network")
		}
		res, err := eng.Search(ctx, net.Layers[0].Layer, a, core.MethodVWSDK)
		if err != nil {
			return err
		}
		fmt.Fprint(out, core.ExplainSearch(res))
		return nil
	}

	// Compile the network under every scheme the paper compares.
	smd, err := comp.Compile(ctx, compile.NewRequest(net, a, compile.Options{Scheme: compile.SMD}))
	if err != nil {
		return err
	}
	sdk, err := comp.Compile(ctx, compile.NewRequest(net, a, compile.Options{Scheme: compile.SDK}))
	if err != nil {
		return err
	}
	vw, err := comp.Compile(ctx, compile.NewRequest(net, a, compile.Options{}))
	if err != nil {
		return err
	}

	table := &textplot.Table{
		Title: title,
		Header: []string{"layer", "kernel", "im2col", "SMD", "SDK",
			"VW-SDK window", "VW-SDK cycles", "speedup vs im2col", "util %"},
	}
	for i := range net.Layers {
		l := net.Layers[i].Layer
		vwRes := vw.Layers[i].Search
		table.AddRow(l.Name,
			fmt.Sprintf("%dx%dx%dx%d", l.KW, l.KH, l.IC, l.OC),
			vwRes.Im2col.Cycles, smd.Layers[i].Search.Best.Cycles,
			sdk.Layers[i].Search.Best.Cycles,
			vwRes.Best.TileString(), vwRes.Best.Cycles,
			fmt.Sprintf("%.2f", vwRes.SpeedupVsIm2col()),
			fmt.Sprintf("%.1f", vwRes.Best.Utilization()))
	}
	if len(net.Layers) > 1 {
		table.AddRow("total", "", vw.Totals.Im2colCycles, smd.Totals.Cycles,
			sdk.Totals.Cycles, "", vw.Totals.Cycles,
			fmt.Sprintf("%.2f", vw.Totals.Speedup), "")
	}
	printStats := func() { printEngineStats(out, eng, *stats) }
	if *csv {
		fmt.Fprint(out, table.CSV())
		printStats()
		return nil
	}
	fmt.Fprint(out, table.String())
	if *nArrays > 1 {
		many, err := comp.Compile(ctx, compile.NewRequest(net, a, compile.Options{Arrays: *nArrays}))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nchip with %d arrays: VW-SDK makespan %d cycles (%.2fx over one array, %d tile programmings)\n",
			*nArrays, many.Totals.Makespan,
			float64(vw.Totals.Makespan)/float64(many.Totals.Makespan), many.Totals.Programs)
	}
	printStats()
	return nil
}

// printEngineStats prints the -stats block shared by the compile and
// optimize modes.
func printEngineStats(out io.Writer, eng *engine.Engine, enabled bool) {
	if !enabled {
		return
	}
	st := eng.Stats()
	fmt.Fprintf(out, "\nengine: %d searches, %d cache hits (%d in-flight dedupes), %d misses, %d cached results, %d evictions\n",
		st.Searches, st.CacheHits, st.FlightDedupes, st.CacheMisses, st.CachedResults, st.Evictions)
	fmt.Fprintf(out, "search: %d candidates costed, %d pruned by breakpoint enumeration\n",
		st.CandidatesCosted, st.CandidatesPruned)
}

// runOptimize is the -optimize mode: load the design-space spec, search it
// through the shared compiler and print the Pareto frontier, best cycles
// first.
func runOptimize(ctx context.Context, out io.Writer, comp *compile.Compiler, path string, csv bool) error {
	space, err := optimize.FromJSONFile(path)
	if err != nil {
		return err
	}
	f, err := optimize.New(comp).Run(ctx, space, nil)
	if err != nil {
		return err
	}
	name := space.Name
	if name == "" {
		name = space.Network.Name
	}
	table := &textplot.Table{
		Title:  fmt.Sprintf("Pareto frontier for %s (%d design points, %d layer groups)", name, f.Evaluated, f.Groups),
		Header: []string{"id", "arrays", "chips/group", "gated", "cycles", "energy (J)", "area (cells)"},
	}
	for _, p := range f.Points {
		specs := make([]string, len(p.Arrays))
		for i, a := range p.Arrays {
			specs[i] = a.String()
		}
		table.AddRow(p.ID, strings.Join(specs, "+"), p.Chips, p.Gated,
			p.Metrics.Cycles, fmt.Sprintf("%.3e", p.Metrics.EnergyJ), p.Metrics.AreaCells)
	}
	if csv {
		fmt.Fprint(out, table.CSV())
	} else {
		fmt.Fprint(out, table.String())
	}
	fmt.Fprintf(out, "\n%d of %d design points dominated (%d rejected on arrival, %d evicted); frontier keeps %d\n",
		f.Dominated, f.Evaluated, f.Rejected, f.Evicted, len(f.Points))
	return nil
}
