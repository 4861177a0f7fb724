// Package model is the CNN model zoo: the layer dimension tables the paper
// evaluates on (VGG-13 and ResNet-18, Table I), plus a few extra networks
// and a parametric generator used by examples and property tests.
//
// The paper models every convolution as a stride-1 "valid" convolution over
// the listed IFM size and counts each distinct layer shape once (DESIGN.md
// §2); the constructors here reproduce those exact tables. Networks carry
// an optional Count per layer so callers can also weight shapes by how often
// they repeat in the real architecture.
package model

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/tensor"
)

// ConvLayer is a network layer entry: the geometry plus how many times the
// shape occurs in the full architecture.
type ConvLayer struct {
	core.Layer

	// Count is the number of occurrences of this shape in the real
	// network; the paper's evaluation uses 1 per distinct shape.
	Count int
}

// Network is a named list of convolutional layers.
type Network struct {
	Name   string
	Layers []ConvLayer
}

// Validate checks every layer.
func (n Network) Validate() error {
	if len(n.Layers) == 0 {
		return fmt.Errorf("model: network %q has no layers", n.Name)
	}
	for i := range n.Layers {
		l := &n.Layers[i]
		if err := l.Validate(); err != nil {
			return fmt.Errorf("model: network %q: %w", n.Name, err)
		}
		if l.Count < 1 {
			return fmt.Errorf("model: network %q layer %q: count %d", n.Name, l.Name, l.Count)
		}
	}
	return nil
}

// CoreLayers returns the bare core.Layer slice (one entry per distinct
// shape, ignoring Count), the form the paper's totals use.
func (n Network) CoreLayers() []core.Layer {
	out := make([]core.Layer, len(n.Layers))
	for i, l := range n.Layers {
		out[i] = l.Layer
	}
	return out
}

// TotalMACs returns the multiply-accumulate count over distinct shapes.
func (n Network) TotalMACs() int64 {
	var total int64
	for _, l := range n.Layers {
		total += l.MACs()
	}
	return total
}

func conv(name string, ifm, k, ic, oc int) ConvLayer {
	return ConvLayer{
		Layer: core.Layer{Name: name, IW: ifm, IH: ifm, KW: k, KH: k, IC: ic, OC: oc},
		Count: 1,
	}
}

func convN(name string, ifm, k, ic, oc, count int) ConvLayer {
	l := conv(name, ifm, k, ic, oc)
	l.Count = count
	return l
}

// pw is a pointwise (1×1, stride-1, no-padding) convolution, the expand and
// project layers of inverted-residual blocks.
func pw(name string, ifm, ic, oc, count int) ConvLayer {
	l := conv(name, ifm, 1, ic, oc)
	l.Count = count
	return l
}

// dw is a depthwise 3×3 "same" convolution: Groups == IC == OC == c, so each
// kernel sees exactly one channel (ICg == 1).
func dw(name string, ifm, c, stride, count int) ConvLayer {
	return ConvLayer{
		Layer: core.Layer{Name: name, IW: ifm, IH: ifm, KW: 3, KH: 3,
			IC: c, OC: c, StrideW: stride, StrideH: stride,
			PadW: 1, PadH: 1, Groups: c},
		Count: count,
	}
}

// grp is a grouped 3×3 "same" convolution with g groups (the ResNeXt
// cardinality dimension).
func grp(name string, ifm, c, g, stride, count int) ConvLayer {
	return ConvLayer{
		Layer: core.Layer{Name: name, IW: ifm, IH: ifm, KW: 3, KH: 3,
			IC: c, OC: c, StrideW: stride, StrideH: stride,
			PadW: 1, PadH: 1, Groups: g},
		Count: count,
	}
}

// VGG13 returns the ten conv layers of VGG-13 exactly as the paper's
// Table I lists them.
func VGG13() Network {
	return Network{
		Name: "VGG-13",
		Layers: []ConvLayer{
			conv("conv1", 224, 3, 3, 64),
			conv("conv2", 224, 3, 64, 64),
			conv("conv3", 112, 3, 64, 128),
			conv("conv4", 112, 3, 128, 128),
			conv("conv5", 56, 3, 128, 256),
			conv("conv6", 56, 3, 256, 256),
			conv("conv7", 28, 3, 256, 512),
			conv("conv8", 28, 3, 512, 512),
			conv("conv9", 14, 3, 512, 512),
			conv("conv10", 14, 3, 512, 512),
		},
	}
}

// ResNet18 returns the five distinct conv shapes of ResNet-18 exactly as the
// paper's Table I lists them (one entry per shape). Count records how often
// each 3x3 shape appears in the real architecture's residual blocks.
func ResNet18() Network {
	return Network{
		Name: "ResNet-18",
		Layers: []ConvLayer{
			conv("conv1", 112, 7, 3, 64),
			convN("conv2", 56, 3, 64, 64, 4),
			convN("conv3", 28, 3, 128, 128, 4),
			convN("conv4", 14, 3, 256, 256, 4),
			convN("conv5", 7, 3, 512, 512, 4),
		},
	}
}

// VGG16 returns the thirteen conv layers of VGG-16 in the same convention
// (extra network beyond the paper's evaluation, for the examples).
func VGG16() Network {
	return Network{
		Name: "VGG-16",
		Layers: []ConvLayer{
			conv("conv1_1", 224, 3, 3, 64),
			conv("conv1_2", 224, 3, 64, 64),
			conv("conv2_1", 112, 3, 64, 128),
			conv("conv2_2", 112, 3, 128, 128),
			conv("conv3_1", 56, 3, 128, 256),
			convN("conv3_2", 56, 3, 256, 256, 2),
			conv("conv4_1", 28, 3, 256, 512),
			convN("conv4_2", 28, 3, 512, 512, 2),
			convN("conv5", 14, 3, 512, 512, 3),
		},
	}
}

// AlexNet returns the five conv layers of AlexNet (extra network; conv1 is
// the classic 11x11 stride-4 layer, exercising the cost model's stride
// generalization).
func AlexNet() Network {
	return Network{
		Name: "AlexNet",
		Layers: []ConvLayer{
			{Layer: core.Layer{Name: "conv1", IW: 227, IH: 227, KW: 11, KH: 11,
				IC: 3, OC: 96, StrideW: 4, StrideH: 4}, Count: 1},
			{Layer: core.Layer{Name: "conv2", IW: 27, IH: 27, KW: 5, KH: 5,
				IC: 96, OC: 256, PadW: 2, PadH: 2}, Count: 1},
			conv("conv3", 13, 3, 256, 384),
			conv("conv4", 13, 3, 384, 384),
			conv("conv5", 13, 3, 384, 256),
		},
	}
}

// MobileNetV2 returns the convolutional layers of MobileNet-V2 (Sandler et
// al., CVPR'18) at the 224×224 input resolution: the stem, the seven
// inverted-residual stages (t, c, n, s) = (1,16,1,1), (6,24,2,2), (6,32,3,2),
// (6,64,4,2), (6,96,3,1), (6,160,3,2), (6,320,1,1), and the final 1×1 —
// one entry per distinct shape with Count recording repetitions, in the same
// convention as the Table I networks. Every block is a 1×1 expand, a
// depthwise 3×3 (Groups == channels, stride on the stage's first block) and
// a 1×1 project, so the network exercises the grouped cost model end to end.
func MobileNetV2() Network {
	return Network{
		Name: "MobileNet-V2",
		Layers: []ConvLayer{
			{Layer: core.Layer{Name: "conv1", IW: 224, IH: 224, KW: 3, KH: 3,
				IC: 3, OC: 32, StrideW: 2, StrideH: 2, PadW: 1, PadH: 1}, Count: 1},
			// Stage 1 (t=1): no expand, depthwise straight on the stem output.
			dw("dw1", 112, 32, 1, 1),
			pw("pj1", 112, 32, 16, 1),
			// Stage 2 (t=6, c=24, n=2, s=2).
			pw("ex2_1", 112, 16, 96, 1),
			dw("dw2_1", 112, 96, 2, 1),
			pw("pj2_1", 56, 96, 24, 1),
			pw("ex24_144", 56, 24, 144, 2), // stage-2 block 2 + stage-3 block 1
			dw("dw144", 56, 144, 1, 1),
			pw("pj144_24", 56, 144, 24, 1),
			// Stage 3 (t=6, c=32, n=3, s=2).
			dw("dw144_s2", 56, 144, 2, 1),
			pw("pj144_32", 28, 144, 32, 1),
			pw("ex32_192", 28, 32, 192, 3), // stage-3 blocks 2-3 + stage-4 block 1
			dw("dw192", 28, 192, 1, 2),
			pw("pj192_32", 28, 192, 32, 2),
			// Stage 4 (t=6, c=64, n=4, s=2).
			dw("dw192_s2", 28, 192, 2, 1),
			pw("pj192_64", 14, 192, 64, 1),
			pw("ex64_384", 14, 64, 384, 4), // stage-4 blocks 2-4 + stage-5 block 1
			dw("dw384", 14, 384, 1, 4),
			pw("pj384_64", 14, 384, 64, 3),
			// Stage 5 (t=6, c=96, n=3, s=1).
			pw("pj384_96", 14, 384, 96, 1),
			pw("ex96_576", 14, 96, 576, 3), // stage-5 blocks 2-3 + stage-6 block 1
			dw("dw576", 14, 576, 1, 2),
			pw("pj576_96", 14, 576, 96, 2),
			// Stage 6 (t=6, c=160, n=3, s=2).
			dw("dw576_s2", 14, 576, 2, 1),
			pw("pj576_160", 7, 576, 160, 1),
			pw("ex160_960", 7, 160, 960, 3), // stage-6 blocks 2-3 + stage 7
			dw("dw960", 7, 960, 1, 3),
			pw("pj960_160", 7, 960, 160, 2),
			// Stage 7 (t=6, c=320) and the final 1×1.
			pw("pj960_320", 7, 960, 320, 1),
			pw("conv_last", 7, 320, 1280, 1),
		},
	}
}

// ResNeXt50 returns the convolutional layers of ResNeXt-50 (32×4d) (Xie et
// al., CVPR'17): the 7×7 stem and four bottleneck stages of [3, 4, 6, 3]
// blocks, each block a 1×1 reduce, a grouped 3×3 with cardinality 32 (stride
// on the first block of stages 2-4), and a 1×1 expand — one entry per
// distinct shape, Count per repetition.
func ResNeXt50() Network {
	return Network{
		Name: "ResNeXt-50",
		Layers: []ConvLayer{
			{Layer: core.Layer{Name: "conv1", IW: 224, IH: 224, KW: 7, KH: 7,
				IC: 3, OC: 64, StrideW: 2, StrideH: 2, PadW: 3, PadH: 3}, Count: 1},
			// Stage 1: width 128, output 256, 3 blocks at 56×56.
			pw("s1_rd1", 56, 64, 128, 1),
			pw("s1_rd", 56, 256, 128, 2),
			grp("s1_g", 56, 128, 32, 1, 3),
			pw("s1_ex", 56, 128, 256, 3),
			// Stage 2: width 256, output 512, 4 blocks at 28×28 (stride in
			// the first block's grouped conv).
			pw("s2_rd1", 56, 256, 256, 1),
			grp("s2_g_s2", 56, 256, 32, 2, 1),
			pw("s2_rd", 28, 512, 256, 3),
			grp("s2_g", 28, 256, 32, 1, 3),
			pw("s2_ex", 28, 256, 512, 4),
			// Stage 3: width 512, output 1024, 6 blocks at 14×14.
			pw("s3_rd1", 28, 512, 512, 1),
			grp("s3_g_s2", 28, 512, 32, 2, 1),
			pw("s3_rd", 14, 1024, 512, 5),
			grp("s3_g", 14, 512, 32, 1, 5),
			pw("s3_ex", 14, 512, 1024, 6),
			// Stage 4: width 1024, output 2048, 3 blocks at 7×7.
			pw("s4_rd1", 14, 1024, 1024, 1),
			grp("s4_g_s2", 14, 1024, 32, 2, 1),
			pw("s4_rd", 7, 2048, 1024, 2),
			grp("s4_g", 7, 1024, 32, 1, 2),
			pw("s4_ex", 7, 1024, 2048, 3),
		},
	}
}

// zoo is the one table of predefined networks: each name with the
// constructor that builds it, in the order All returns them.
var zoo = []struct {
	name  string
	build func() Network
}{
	{"VGG-13", VGG13},
	{"ResNet-18", ResNet18},
	{"VGG-16", VGG16},
	{"AlexNet", AlexNet},
	{"MobileNet-V2", MobileNetV2},
	{"ResNeXt-50", ResNeXt50},
}

// All returns every predefined network.
func All() []Network {
	out := make([]Network, len(zoo))
	for i, z := range zoo {
		out[i] = z.build()
	}
	return out
}

// ByName returns the predefined network with the given name
// (case-sensitive, e.g. "VGG-13"), or an error listing the options. It
// builds only the named network, afresh on every call, so the caller may
// modify it.
func ByName(name string) (Network, error) {
	for _, z := range zoo {
		if z.name == name {
			return z.build(), nil
		}
	}
	names := make([]string, len(zoo))
	for i, z := range zoo {
		names[i] = z.name
	}
	return Network{}, fmt.Errorf("model: unknown network %q (have %v)", name, names)
}

// Random returns a deterministic pseudo-random network of n small layers for
// property tests and fuzz-style examples. Roughly a quarter of the layers
// are grouped (channel counts drawn as multiples of the group count) and
// some of those depthwise (Groups == IC, ICg == 1), so downstream property
// tests exercise the grouped paths without hand-written cases.
func Random(seed uint64, n int) Network {
	if n < 1 {
		n = 1
	}
	rng := tensor.NewRNG(seed)
	net := Network{Name: fmt.Sprintf("random-%d", seed)}
	for i := 0; i < n; i++ {
		k := 1 + rng.IntN(3)
		ifm := k + 4 + rng.IntN(24)
		l := core.Layer{
			Name: fmt.Sprintf("conv%d", i+1),
			IW:   ifm, IH: ifm, KW: k, KH: k,
			IC: 1 + rng.IntN(64), OC: 1 + rng.IntN(64),
		}
		switch rng.IntN(8) {
		case 0: // depthwise: one channel per group
			c := 1 + rng.IntN(64)
			l.IC, l.OC, l.Groups = c, c, c
		case 1: // grouped: channels are multiples of the group count
			g := 2 + rng.IntN(7)
			l.IC = g * (1 + rng.IntN(8))
			l.OC = g * (1 + rng.IntN(8))
			l.Groups = g
		}
		net.Layers = append(net.Layers, ConvLayer{Layer: l, Count: 1})
	}
	return net
}
