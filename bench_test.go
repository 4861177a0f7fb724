package vwsdk

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/mapping"
)

// Benchmarks regenerating every table and figure of the paper (DESIGN.md §4
// maps each to its experiment id). Each iteration recomputes the full
// artifact, so ns/op measures the cost of the reproduction itself.

func benchExperiment(b *testing.B, f func() (*experiments.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if r.Table == nil {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkTableI regenerates Table I (E1): per-layer SDK/VW-SDK choices and
// totals on the 512x512 array.
func BenchmarkTableI(b *testing.B) {
	benchExperiment(b, func() (*experiments.Result, error) {
		return experiments.TableI(experiments.Array512)
	})
}

// BenchmarkFig4 regenerates Fig. 4 (E2): computable channel sizes.
func BenchmarkFig4(b *testing.B) { benchExperiment(b, experiments.Fig4) }

// BenchmarkFig5a regenerates Fig. 5(a) (E3): the worked cycle example.
func BenchmarkFig5a(b *testing.B) { benchExperiment(b, experiments.Fig5a) }

// BenchmarkFig5b regenerates Fig. 5(b) (E4): square vs rectangular speedup
// across IFM sizes.
func BenchmarkFig5b(b *testing.B) { benchExperiment(b, experiments.Fig5b) }

// BenchmarkFig7 regenerates Fig. 7 (E5+E6): tiled channel curves.
func BenchmarkFig7(b *testing.B) {
	benchExperiment(b, experiments.Fig7a)
	benchExperiment(b, experiments.Fig7b)
}

// BenchmarkFig8a regenerates Fig. 8(a) (E7): per-layer speedups.
func BenchmarkFig8a(b *testing.B) {
	benchExperiment(b, func() (*experiments.Result, error) {
		return experiments.Fig8a(experiments.Array512)
	})
}

// BenchmarkFig8b regenerates Fig. 8(b) (E8): speedups across the paper's
// five array sizes.
func BenchmarkFig8b(b *testing.B) { benchExperiment(b, experiments.Fig8b) }

// BenchmarkFig9a regenerates Fig. 9(a) (E9): per-layer utilization.
func BenchmarkFig9a(b *testing.B) {
	benchExperiment(b, func() (*experiments.Result, error) {
		return experiments.Fig9a(experiments.Array512)
	})
}

// BenchmarkFig9b regenerates Fig. 9(b) (E10): utilization vs array size.
func BenchmarkFig9b(b *testing.B) { benchExperiment(b, experiments.Fig9b) }

// BenchmarkAblation regenerates the ablation table (E11).
func BenchmarkAblation(b *testing.B) {
	benchExperiment(b, func() (*experiments.Result, error) {
		return experiments.Ablation(experiments.Array512)
	})
}

// BenchmarkEnergy regenerates the energy table (E12).
func BenchmarkEnergy(b *testing.B) {
	benchExperiment(b, func() (*experiments.Result, error) {
		return experiments.Energy(experiments.Array512)
	})
}

// BenchmarkFunctionalVerify runs the functional-verification experiment
// (E13): all four schemes executed on the crossbar simulator and compared
// against the reference convolution.
func BenchmarkFunctionalVerify(b *testing.B) {
	benchExperiment(b, func() (*experiments.Result, error) {
		return experiments.VerifyFunctional(uint64(b.N))
	})
}

// BenchmarkSearchVWSDK measures Algorithm 1 itself (the optimizer a
// compiler would run per layer) on the 512x512 array. On representative
// Table-I layers it times the closed-form class walk beside the exhaustive
// sweep it replaces, so the ratio of the two is the walk's speedup. On
// large-IFM stress layers, whose sweeps enumerate 10⁵–10⁶ windows, it times
// the closed form alone. TestSearchResultsGolden (internal/core) pins each
// search's counts and chosen mapping.
func BenchmarkSearchVWSDK(b *testing.B) {
	tableI := []Layer{
		{Name: "vgg-conv1", IW: 224, IH: 224, KW: 3, KH: 3, IC: 3, OC: 64},
		{Name: "vgg-conv5", IW: 56, IH: 56, KW: 3, KH: 3, IC: 128, OC: 256},
		{Name: "resnet-conv1", IW: 112, IH: 112, KW: 7, KH: 7, IC: 3, OC: 64},
		{Name: "resnet-conv5", IW: 7, IH: 7, KW: 3, KH: 3, IC: 512, OC: 512},
	}
	stress := []Layer{
		{Name: "hd-512", IW: 512, IH: 512, KW: 3, KH: 3, IC: 64, OC: 64},
		{Name: "hd-768", IW: 768, IH: 768, KW: 3, KH: 3, IC: 32, OC: 64},
		{Name: "hd-1024", IW: 1024, IH: 1024, KW: 3, KH: 3, IC: 16, OC: 32},
	}
	run := func(l Layer, name string, search func(Layer, Array) (core.Result, error)) {
		b.Run(l.Name+"/"+name, func(b *testing.B) {
			for b.Loop() {
				if _, err := search(l, experiments.Array512); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, l := range tableI {
		run(l, "closed-form", core.SearchVWSDK)
		run(l, "exhaustive", core.SearchVWSDKExhaustive)
	}
	for _, l := range stress {
		run(l, "closed-form", core.SearchVWSDK)
	}
}

// BenchmarkSearchBaselines measures the SDK and SMD baseline searches.
func BenchmarkSearchBaselines(b *testing.B) {
	l := Layer{IW: 56, IH: 56, KW: 3, KH: 3, IC: 128, OC: 256}
	b.Run("sdk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SearchSDK(l, experiments.Array512); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("smd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SearchSMD(l, experiments.Array512); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCrossbarExecute measures the functional simulator: one full layer
// execution under the VW-SDK mapping for growing layer sizes.
func BenchmarkCrossbarExecute(b *testing.B) {
	cases := []Layer{
		{Name: "8x8x4x8", IW: 8, IH: 8, KW: 3, KH: 3, IC: 4, OC: 8},
		{Name: "12x12x16x16", IW: 12, IH: 12, KW: 3, KH: 3, IC: 16, OC: 16},
		{Name: "14x14x64x64", IW: 14, IH: 14, KW: 3, KH: 3, IC: 64, OC: 64},
	}
	a := Array{Rows: 256, Cols: 256}
	for _, l := range cases {
		b.Run(l.Name, func(b *testing.B) {
			res, err := core.SearchVWSDK(l, a)
			if err != nil {
				b.Fatal(err)
			}
			ifm := RandFeatureMap(1, l.IC, l.IH, l.IW)
			w := RandWeights(2, l.OC, l.IC, l.KH, l.KW)
			b.ReportMetric(float64(res.Best.Cycles), "pim-cycles")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := mapping.Run(res.Best, ifm, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetworkOptimization measures optimizing every layer of each
// paper network (the whole-model compile step).
func BenchmarkNetworkOptimization(b *testing.B) {
	for _, n := range []Network{VGG13(), ResNet18()} {
		b.Run(n.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var total int64
				for _, l := range n.CoreLayers() {
					res, err := core.SearchVWSDK(l, experiments.Array512)
					if err != nil {
						b.Fatal(err)
					}
					total += res.Best.Cycles
				}
				if total == 0 {
					b.Fatal("no cycles")
				}
			}
		})
	}
}

// BenchmarkUtilization measures eq. 9 evaluation including the exact SDK
// used-cell enumeration.
func BenchmarkUtilization(b *testing.B) {
	l := Layer{IW: 56, IH: 56, KW: 3, KH: 3, IC: 128, OC: 256}
	sdk, err := core.SDK(l, experiments.Array512, Window{W: 4, H: 4})
	if err != nil {
		b.Fatal(err)
	}
	vw, err := core.VW(l, experiments.Array512, Window{W: 4, H: 3})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []Mapping{sdk, vw} {
		b.Run(fmt.Sprintf("%v-%s", m.Scheme, m.PW), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if u := m.Utilization(); u <= 0 {
					b.Fatal("bad utilization")
				}
			}
		})
	}
}

// BenchmarkBitslice regenerates the bit-slicing table (E14).
func BenchmarkBitslice(b *testing.B) {
	benchExperiment(b, func() (*experiments.Result, error) {
		return experiments.Bitslice(experiments.Array512)
	})
}

// BenchmarkChip regenerates the multi-array scheduling table (E15).
func BenchmarkChip(b *testing.B) {
	benchExperiment(b, func() (*experiments.Result, error) {
		return experiments.Chip(experiments.Array512)
	})
}

// BenchmarkBitSlicedExecution measures the bit-sliced crossbar run against
// the ideal run on the same mapping.
func BenchmarkBitSlicedExecution(b *testing.B) {
	l := Layer{IW: 10, IH: 10, KW: 3, KH: 3, IC: 8, OC: 8}
	a := Array{Rows: 96, Cols: 64}
	m, err := VW(l, a, Window{W: 4, H: 4})
	if err != nil {
		b.Fatal(err)
	}
	ifm := RandFeatureMap(1, l.IC, l.IH, l.IW)
	w := RandWeights(2, l.OC, l.IC, l.KH, l.KW)
	b.Run("ideal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := RunOnCrossbar(m, ifm, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("w4c2-a4d2", func(b *testing.B) {
		p := Precision{WeightBits: 4, CellBits: 2, InputBits: 4, DACBits: 2}
		for i := 0; i < b.N; i++ {
			if _, _, err := RunBitSliced(m, p, ifm, w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReuse regenerates the input-reuse table (E17).
func BenchmarkReuse(b *testing.B) {
	benchExperiment(b, func() (*experiments.Result, error) {
		return experiments.Reuse(experiments.Array512)
	})
}

// The network-sweep benchmarks compile the Table-I workload — both paper
// networks across the paper's five array sizes — once on the serial
// reference searcher and twice on the engine. "Cold" builds a fresh engine
// per iteration, so it measures intra-sweep dedup of repeated layer shapes;
// "Warm" shares one engine across iterations, the steady state of a server
// re-answering known (layer, array) pairs from its LRU cache.

// compileSweep compiles every paper network on every paper array through c.
func compileSweep(b *testing.B, c *compile.Compiler) {
	b.Helper()
	for _, n := range []Network{VGG13(), ResNet18()} {
		for _, a := range experiments.PaperArrays {
			if _, err := c.Compile(context.Background(), compile.NewRequest(n, a, compile.Options{})); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkNetworkSweepSerial is the baseline: every (network, array, layer)
// searched from scratch by the serial reference searcher, with no cache.
func BenchmarkNetworkSweepSerial(b *testing.B) {
	c := compile.New(core.Serial{})
	for i := 0; i < b.N; i++ {
		compileSweep(b, c)
	}
}

// BenchmarkNetworkSweepEngineCold runs the same sweep through a fresh
// engine each iteration.
func BenchmarkNetworkSweepEngineCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		compileSweep(b, compile.New(engine.New()))
	}
}

// BenchmarkNetworkSweepEngineWarm shares one engine across iterations.
func BenchmarkNetworkSweepEngineWarm(b *testing.B) {
	c := compile.New(engine.New())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compileSweep(b, c)
	}
}

// BenchmarkCompile measures the whole-network compile pipeline (search →
// chip schedule → energy) on both paper networks: "cold" with a fresh
// compiler per iteration, "warm" reusing one compiler's search cache.
func BenchmarkCompile(b *testing.B) {
	for _, n := range []Network{VGG13(), ResNet18()} {
		b.Run(n.Name+"-cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compile(n, PaperArray, CompileOptions{Arrays: 16}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(n.Name+"-warm", func(b *testing.B) {
			comp := NewCompiler(nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := comp.Compile(context.Background(), NewCompileRequest(n, PaperArray, CompileOptions{Arrays: 16})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchVWSDKEngine measures Algorithm 1 through the engine on
// the largest single-layer sweep (VGG conv1's 224x224 IFM, ~49k candidate
// windows), cache disabled so every iteration runs the search.
func BenchmarkSearchVWSDKEngine(b *testing.B) {
	l := Layer{Name: "vgg-conv1", IW: 224, IH: 224, KW: 3, KH: 3, IC: 3, OC: 64}
	eng := engine.New(engine.WithCacheSize(0))
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(context.Background(), l, experiments.Array512, core.MethodVWSDK); err != nil {
			b.Fatal(err)
		}
	}
}
