// Command pimsim runs a convolutional layer on the functional PIM crossbar
// simulator under a chosen mapping scheme, verifies the output against the
// reference convolution, and reports cycle, conversion, utilization and
// energy statistics.
//
// Examples:
//
//	pimsim -ifm 14x14 -kernel 3x3 -ic 64 -oc 64 -array 512x512 -scheme vw
//	pimsim -ifm 9x9 -kernel 3x3 -ic 5 -oc 7 -array 64x48 -scheme sdk -quant 8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cliutil"
	"repro/internal/compile"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/pimarray"
	"repro/internal/tensor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pimsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pimsim", flag.ContinueOnError)
	var (
		arraySp = fs.String("array", "512x512", "PIM array size RowsxCols")
		scheme  = fs.String("scheme", "vw", "mapping scheme: im2col, smd, sdk or vw (also vwsdk, vw-sdk)")
		seed    = fs.Uint64("seed", 1, "seed for the deterministic input/weight fill")
		quant   = fs.Int("quant", 0, "weight quantization bits, 1 to 16 (0 = ideal cells)")
		noise   = fs.Float64("noise", 0, "ADC read-noise sigma (0 = ideal readout)")
		version = fs.Bool("version", false, "print the version and exit")
		tf      cliutil.TraceFlags
		lf      cliutil.LayerFlags
	)
	tf.Register(fs)
	fs.StringVar(&lf.IFM, "ifm", "14x14", "input feature map size WxH")
	fs.StringVar(&lf.Kernel, "kernel", "3x3", "kernel size WxH")
	fs.IntVar(&lf.IC, "ic", 64, "input channels")
	fs.IntVar(&lf.OC, "oc", 64, "output channels")
	fs.IntVar(&lf.Stride, "stride", 1, "convolution stride")
	fs.IntVar(&lf.Pad, "pad", 0, "zero padding")
	fs.IntVar(&lf.Groups, "groups", 1, "convolution groups (ic for depthwise)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintf(out, "pimsim %s\n", cliutil.Version())
		return nil
	}
	if *quant < 0 || *quant > 16 {
		return fmt.Errorf("-quant must be 0 (ideal cells) to 16 bits, got %d", *quant)
	}
	if !(*noise >= 0) {
		return fmt.Errorf("-noise must be 0 (ideal readout) or a positive sigma, got %g", *noise)
	}
	a, err := cliutil.ParseArray(*arraySp)
	if err != nil {
		return err
	}
	l, err := lf.Layer("layer")
	if err != nil {
		return err
	}
	sc, err := compile.ParseScheme(*scheme)
	if err != nil {
		return err
	}
	// Compile the layer: one call yields the chosen mapping, its energy
	// report and the physical plan the simulator executes; -trace records
	// the compilation's span tree.
	ctx := tf.Context(context.Background(), "pimsim")
	lp, err := compile.New(core.Serial{}).CompileLayer(ctx, l, a, compile.Options{Scheme: sc})
	if err != nil {
		return err
	}
	if err := tf.Write(); err != nil {
		return err
	}
	m := lp.Search.Best

	var opts []pimarray.Option
	if *quant > 0 {
		opts = append(opts, pimarray.WithQuantization(*quant, 4))
	}
	if *noise > 0 {
		opts = append(opts, pimarray.WithReadNoise(*noise, *seed^0x5eed))
	}

	ifm := tensor.RandTensor3(*seed, l.IC, l.IH, l.IW)
	w := tensor.RandTensor4(*seed^0x9e3779b97f4a7c15, l.OC, l.ICg(), l.KH, l.KW)
	got, stats, err := mapping.Run(m, ifm, w, opts...)
	if err != nil {
		return err
	}
	want, err := conv.Reference(l, ifm, w)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "layer    %v\n", l)
	fmt.Fprintf(out, "array    %v\n", a)
	fmt.Fprintf(out, "mapping  %v\n", m)
	fmt.Fprintf(out, "tile     %s (paper notation PWxICtxOCt)\n", m.TileString())
	fmt.Fprintf(out, "cycles   %d (analytic %d)\n", stats.Cycles, m.Cycles)
	fmt.Fprintf(out, "DAC/ADC  %d / %d conversions\n", stats.DACConversions, stats.ADCConversions)
	fmt.Fprintf(out, "programs %d tiles, %d cell writes\n", stats.ProgramOps, stats.CellWrites)
	fmt.Fprintf(out, "util     %.1f%% analytic (eq. 9), %.1f%% executed\n",
		m.Utilization(), float64(stats.UsedCellCycles)*100/
			(float64(stats.Cycles)*float64(a.Rows)*float64(a.Cols)))

	rep := lp.Energy
	fmt.Fprintf(out, "latency  %v   energy %.3g uJ (%.1f%% conversions)\n",
		rep.Latency, rep.EnergyTotal*1e6, 100*rep.ConversionFraction())

	if *quant == 0 && *noise == 0 {
		if !got.Equal(want) {
			return errors.New("VERIFY FAILED: crossbar output differs from reference convolution")
		}
		fmt.Fprintln(out, "verify   PASS (bit-exact vs reference convolution)")
	} else {
		fmt.Fprintf(out, "verify   max |diff| vs reference = %g (non-idealities enabled)\n",
			got.MaxAbsDiff(want))
	}
	return nil
}
