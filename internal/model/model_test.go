package model

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestAllNetworksValidate(t *testing.T) {
	for _, n := range All() {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

func TestVGG13MatchesTableI(t *testing.T) {
	n := VGG13()
	if len(n.Layers) != 10 {
		t.Fatalf("VGG-13 has %d layers, want 10", len(n.Layers))
	}
	first := n.Layers[0]
	if first.IW != 224 || first.KW != 3 || first.IC != 3 || first.OC != 64 {
		t.Errorf("conv1 = %v", first.Layer)
	}
	last := n.Layers[9]
	if last.IW != 14 || last.IC != 512 || last.OC != 512 {
		t.Errorf("conv10 = %v", last.Layer)
	}
}

func TestResNet18MatchesTableI(t *testing.T) {
	n := ResNet18()
	if len(n.Layers) != 5 {
		t.Fatalf("ResNet-18 has %d distinct shapes, want 5", len(n.Layers))
	}
	if n.Layers[0].KW != 7 || n.Layers[0].IW != 112 {
		t.Errorf("conv1 = %v", n.Layers[0].Layer)
	}
	if n.Layers[4].IW != 7 || n.Layers[4].IC != 512 {
		t.Errorf("conv5 = %v", n.Layers[4].Layer)
	}
	for _, l := range n.Layers[1:] {
		if l.Count != 4 {
			t.Errorf("%s count = %d, want 4", l.Name, l.Count)
		}
	}
}

func TestCoreLayers(t *testing.T) {
	n := ResNet18()
	ls := n.CoreLayers()
	if len(ls) != len(n.Layers) {
		t.Fatal("CoreLayers length mismatch")
	}
	for i := range ls {
		if ls[i] != n.Layers[i].Layer {
			t.Fatalf("layer %d differs", i)
		}
	}
}

func TestByName(t *testing.T) {
	n, err := ByName("VGG-13")
	if err != nil || n.Name != "VGG-13" {
		t.Fatalf("ByName(VGG-13) = %v, %v", n.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	} else if !strings.Contains(err.Error(), "VGG-13") {
		t.Errorf("error should list options: %v", err)
	}
}

// TestZooTable pins the name table ByName and All share: every entry's
// name is the name its constructor gives the network, and All lists the
// networks in table order.
func TestZooTable(t *testing.T) {
	all := All()
	if len(all) != len(zoo) {
		t.Fatalf("All returned %d networks, want %d", len(all), len(zoo))
	}
	for i, z := range zoo {
		if all[i].Name != z.name {
			t.Errorf("All()[%d] is %q, want table entry %q", i, all[i].Name, z.name)
		}
		n, err := ByName(z.name)
		if err != nil || n.Name != z.name || len(n.Layers) != len(all[i].Layers) {
			t.Errorf("ByName(%q) = %q with %d layers, %v", z.name, n.Name, len(n.Layers), err)
		}
	}
}

// TestByNameBuildsOne pins that ByName builds only the named network: at
// most one allocation (its layer slice) per call, for every zoo name.
func TestByNameBuildsOne(t *testing.T) {
	for _, z := range zoo {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ByName(z.name); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("ByName(%q) allocates %.0f times, want at most 1", z.name, allocs)
		}
	}
}

// TestByNameFresh pins that every call builds its own network: a caller
// that edits one result does not change the next.
func TestByNameFresh(t *testing.T) {
	a, _ := ByName("ResNet-18")
	b, _ := ByName("ResNet-18")
	if &a.Layers[0] == &b.Layers[0] {
		t.Fatal("two ByName calls share one Layers slice")
	}
	a.Layers[0].IC++
	if c, _ := ByName("ResNet-18"); c.Layers[0] != b.Layers[0] {
		t.Errorf("editing one result changed a later one: %+v", c.Layers[0])
	}
}

func TestAlexNetStride(t *testing.T) {
	n := AlexNet()
	c1 := n.Layers[0].Layer.Normalized()
	if c1.StrideW != 4 {
		t.Fatalf("conv1 stride = %d, want 4", c1.StrideW)
	}
	if got := c1.OutW(); got != 55 {
		t.Fatalf("conv1 OutW = %d, want 55", got)
	}
	c2 := n.Layers[1].Layer
	if got := c2.OutW(); got != 27 {
		t.Fatalf("conv2 OutW = %d, want 27 (padded same conv)", got)
	}
}

func TestTotalMACs(t *testing.T) {
	// ResNet-18 distinct shapes: conv1 contributes 106²·147·64 MACs.
	n := Network{Name: "one", Layers: []ConvLayer{
		{Layer: core.Layer{Name: "c", IW: 112, IH: 112, KW: 7, KH: 7, IC: 3, OC: 64}, Count: 1},
	}}
	want := int64(106*106) * 147 * 64
	if got := n.TotalMACs(); got != want {
		t.Fatalf("TotalMACs = %d, want %d", got, want)
	}
}

func TestValidateRejects(t *testing.T) {
	if err := (Network{Name: "empty"}).Validate(); err == nil {
		t.Error("empty network accepted")
	}
	bad := Network{Name: "bad", Layers: []ConvLayer{
		{Layer: core.Layer{Name: "c", IW: 0, IH: 1, KW: 1, KH: 1, IC: 1, OC: 1}, Count: 1},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("invalid layer accepted")
	}
	zeroCount := Network{Name: "zc", Layers: []ConvLayer{
		{Layer: core.Layer{Name: "c", IW: 4, IH: 4, KW: 3, KH: 3, IC: 1, OC: 1}, Count: 0},
	}}
	if err := zeroCount.Validate(); err == nil {
		t.Error("zero count accepted")
	}
}

func TestRandomNetworkDeterministic(t *testing.T) {
	a := Random(5, 6)
	b := Random(5, 6)
	if len(a.Layers) != 6 {
		t.Fatalf("layers = %d, want 6", len(a.Layers))
	}
	for i := range a.Layers {
		if a.Layers[i] != b.Layers[i] {
			t.Fatal("Random not deterministic")
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("random network invalid: %v", err)
	}
	if got := Random(1, 0); len(got.Layers) != 1 {
		t.Fatal("Random(n<1) should produce one layer")
	}
}

// TestPaperTotalsViaModel re-derives the Table I totals through the model
// zoo, tying the zoo's dimension tables to the golden numbers.
func TestPaperTotalsViaModel(t *testing.T) {
	a := core.Array{Rows: 512, Cols: 512}
	totals := func(n Network) (im, sdk, vw int64) {
		for _, l := range n.CoreLayers() {
			m, err := core.Im2col(l, a)
			if err != nil {
				t.Fatal(err)
			}
			im += m.Cycles
			rs, err := core.SearchSDK(l, a)
			if err != nil {
				t.Fatal(err)
			}
			sdk += rs.Best.Cycles
			rv, err := core.SearchVWSDK(l, a)
			if err != nil {
				t.Fatal(err)
			}
			vw += rv.Best.Cycles
		}
		return
	}
	im, sdk, vw := totals(VGG13())
	if im != 243736 || sdk != 114697 || vw != 77102 {
		t.Errorf("VGG-13 totals = %d/%d/%d, want 243736/114697/77102", im, sdk, vw)
	}
	im, sdk, vw = totals(ResNet18())
	if im != 20041 || sdk != 7240 || vw != 4294 {
		t.Errorf("ResNet-18 totals = %d/%d/%d, want 20041/7240/4294", im, sdk, vw)
	}
}

// TestGroupedZooNetworks pins the structure of the grouped zoo entries:
// MobileNet-V2's inverted residuals alternate pointwise and depthwise
// (G == IC) layers, and ResNeXt-50's bottlenecks use cardinality-32 3x3
// convolutions. Both resolve by name.
func TestGroupedZooNetworks(t *testing.T) {
	mb, err := ByName("MobileNet-V2")
	if err != nil {
		t.Fatal(err)
	}
	depthwise, pointwise := 0, 0
	for _, cl := range mb.Layers {
		l := cl.Layer
		if l.NumGroups() > 1 {
			if l.Groups != l.IC || l.IC != l.OC || l.KW != 3 || l.KH != 3 {
				t.Errorf("MobileNet-V2 %s: grouped layer is not depthwise 3x3: %v", l.Name, l)
			}
			depthwise += cl.Count
		} else if l.KW == 1 && l.KH == 1 {
			pointwise += cl.Count
		}
	}
	if depthwise < 10 || pointwise < 10 {
		t.Errorf("MobileNet-V2: %d depthwise / %d pointwise layers, want >=10 of each",
			depthwise, pointwise)
	}

	rx, err := ByName("ResNeXt-50")
	if err != nil {
		t.Fatal(err)
	}
	grouped := 0
	for _, cl := range rx.Layers {
		l := cl.Layer
		if l.NumGroups() > 1 {
			if l.Groups != 32 || l.KW != 3 || l.KH != 3 {
				t.Errorf("ResNeXt-50 %s: grouped layer is not cardinality-32 3x3: %v", l.Name, l)
			}
			grouped += cl.Count
		}
	}
	if grouped != 16 {
		t.Errorf("ResNeXt-50: %d grouped 3x3 layers, want 16 (block counts 3+4+6+3)", grouped)
	}
}

// TestRandomGeneratesGroupedLayers: the random generator emits depthwise and
// grouped layers often enough that downstream fuzzing exercises them.
func TestRandomGeneratesGroupedLayers(t *testing.T) {
	depthwise, grouped := 0, 0
	for seed := uint64(0); seed < 40; seed++ {
		n := Random(seed, 8)
		if err := n.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, cl := range n.Layers {
			l := cl.Layer
			switch {
			case l.NumGroups() > 1 && l.Groups == l.IC:
				depthwise++
			case l.NumGroups() > 1:
				grouped++
			}
		}
	}
	if depthwise == 0 || grouped == 0 {
		t.Fatalf("40 random networks produced %d depthwise and %d grouped layers; generator lost group coverage", depthwise, grouped)
	}
}
