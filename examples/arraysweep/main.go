// Array sweep: show how the optimal parallel window changes with the PIM
// array size (the paper's Fig. 8(b) observation that VW-SDK gains more on
// larger arrays), for a user-defined layer — running every search through
// one memoizing engine.
//
// Run with: go run ./examples/arraysweep
package main

import (
	"context"
	"fmt"
	"log"

	vwsdk "repro"
)

func main() {
	ctx := context.Background()
	// VGG-13 conv5: the layer where rectangular windows shine.
	layer := vwsdk.Layer{
		Name: "vgg13-conv5",
		IW:   56, IH: 56,
		KW: 3, KH: 3,
		IC: 128, OC: 256,
	}
	arrays := []vwsdk.Array{
		{Rows: 64, Cols: 64},
		{Rows: 128, Cols: 128},
		{Rows: 128, Cols: 256},
		{Rows: 256, Cols: 256},
		{Rows: 512, Cols: 256},
		{Rows: 512, Cols: 512},
		{Rows: 1024, Cols: 1024},
		{Rows: 2048, Cols: 2048},
	}

	// One engine-backed compiler serves the whole sweep: every compilation
	// shares the engine's search cache.
	eng := vwsdk.NewEngine()
	comp := vwsdk.NewCompiler(eng)

	fmt.Printf("optimal VW-SDK mapping of %v across array sizes\n\n", layer)
	fmt.Printf("%-10s %14s %14s %10s %10s %8s\n",
		"array", "window (tile)", "im2col cycles", "VW cycles", "speedup", "util %")
	for _, a := range arrays {
		lp, err := comp.CompileLayer(ctx, layer, a, vwsdk.CompileOptions{})
		if err != nil {
			log.Fatal(err)
		}
		vw := lp.Search
		fmt.Printf("%-10v %14s %14d %10d %9.2fx %7.1f\n",
			a, vw.Best.TileString(), vw.Im2col.Cycles, vw.Best.Cycles,
			vw.SpeedupVsIm2col(), vw.Best.Utilization())
	}

	fmt.Println("\nlarger arrays admit bigger windows and more tiled channels per")
	fmt.Println("cycle, so the speedup over im2col keeps growing — the paper's")
	fmt.Println("closing argument for VW-SDK on future PIM arrays.")

	// The same layer under each ablation variant, one compile per variant on
	// the same compiler: the full search is already cached from the sweep.
	net := vwsdk.SingleLayerNetwork(layer)
	a := vwsdk.Array{Rows: 512, Cols: 512}
	fmt.Printf("\nablation on %v (one compile per variant):\n", a)
	for _, v := range []vwsdk.Variant{
		vwsdk.VariantFull, vwsdk.VariantSquareTiled, vwsdk.VariantRectFullChannel,
	} {
		plan, err := comp.Compile(ctx, vwsdk.NewCompileRequest(net, a, vwsdk.CompileOptions{Variant: v}))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-20s %6d cycles (%.2fx vs im2col)\n",
			v, plan.Totals.Cycles, plan.Totals.Speedup)
	}

	st := eng.Stats()
	fmt.Printf("\nengine: %d searches, %d cache hits (%d in-flight dedupes), %d computed\n",
		st.Searches, st.CacheHits, st.FlightDedupes, st.CacheMisses)
}
