// Package optimize searches the hardware design space itself: instead of
// "what does this network cost on this chip?" (compile) it answers "which
// chip should you build for this network?". A DesignSpace enumerates
// candidate hardware configurations — array geometries assigned per layer
// group, chips per bank, gated or full-array peripherals — and the Optimizer
// scores every design point through the existing compile.Compiler on (total
// cycles, total energy, total cell area) and keeps only the non-dominated
// Pareto frontier, pruning dominated points incrementally as the enumeration
// proceeds.
//
// A point's scores are sums of per-group terms, so design points share work
// at two levels. Within one run, each cell — a layer group on one array with
// one chip count and gating setting — is compiled once, and every point
// containing it reads the cell's totals. Below that, the compile pipeline's
// engine searches each distinct (layer, array) pair exactly once, across
// cells and runs. The enumeration is sequential and its order deterministic,
// which fixes the frontier's tie handling: when two points score
// identically, the first-enumerated one is admitted and the later one is
// rejected as dominated.
package optimize

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"repro/internal/cliutil"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/model"
)

// MaxPoints bounds the number of design points one space may enumerate,
// mirroring the sweep surface's cell bound: len(Arrays)^Groups × len(Chips)
// × len(Gating) must not exceed it.
const MaxPoints = 4096

// DesignSpace describes the hardware configurations to search for one
// network. Build one with FromJSON (the wire format below) or construct it
// directly and call Normalize before use.
//
// The JSON form mirrors the network-spec format:
//
//	{
//	  "name": "tinynet-codesign",
//	  "network": "VGG-13",            // zoo name, or an inline network spec
//	  "arrays": ["64x64", "128"],     // "RxC", square "R" or {"rows":..,"cols":..}
//	  "chips": [1, 4],                // crossbars per layer-group bank
//	  "gating": [false, true],        // peripheral gating on/off
//	  "layer_groups": 2               // heterogeneous array assignment granularity
//	}
//
// "arrays" and "network" are required. Each "arrays" element takes every
// form /v1/compile's "array" takes, through the same parser
// (cliutil.ParseArrayRef). "chips" defaults to [1], "gating" to [false],
// "layer_groups" to 1 (one array for the whole network). Unknown fields are
// rejected.
type DesignSpace struct {
	// Name labels the space in reports.
	Name string

	// Network is the CNN the hardware is being designed for.
	Network model.Network

	// Arrays are the candidate crossbar geometries. Each layer group is
	// assigned one of them independently (heterogeneous hardware), so the
	// assignment space is Arrays^Groups.
	Arrays []core.Array

	// Chips are the candidate crossbar counts per layer-group bank.
	Chips []int

	// Gating are the candidate peripheral models: false = full-array
	// conversions, true = gated on the programmed tile footprint.
	Gating []bool

	// Groups is the number of contiguous layer groups the network is split
	// into; each group gets its own array geometry and bank. 0 is
	// normalized to 1.
	Groups int
}

// spaceJSON is the wire form of a DesignSpace.
type spaceJSON struct {
	Name    string            `json:"name,omitempty"`
	Network json.RawMessage   `json:"network"`
	Arrays  []json.RawMessage `json:"arrays"`
	Chips   []int             `json:"chips,omitempty"`
	Gating  []bool            `json:"gating,omitempty"`
	Groups  int               `json:"layer_groups,omitempty"`
}

// FromJSON parses and validates a design-space spec, strictly
// (cliutil.DecodeStrict): an unknown field, or anything but whitespace after
// the spec's object, is an error. The returned space is normalized: arrays
// deduplicated and sorted by (rows, cols), chips and gating deduplicated and
// sorted, defaults applied — so equal spaces have equal parsed forms and
// ToJSON(FromJSON(x)) is a fixed point.
func FromJSON(data []byte) (DesignSpace, error) {
	var spec spaceJSON
	if err := cliutil.DecodeStrict(data, &spec); err != nil {
		return DesignSpace{}, fmt.Errorf("optimize: parse design space: %w", err)
	}
	if len(spec.Network) == 0 {
		return DesignSpace{}, fmt.Errorf("optimize: design space %q has no network", spec.Name)
	}
	net, err := model.ResolveSpec(spec.Network)
	if err != nil {
		return DesignSpace{}, fmt.Errorf("optimize: design space %q: %w", spec.Name, err)
	}
	s := DesignSpace{
		Name:    spec.Name,
		Network: net,
		Chips:   spec.Chips,
		Gating:  spec.Gating,
		Groups:  spec.Groups,
	}
	for _, raw := range spec.Arrays {
		a, err := cliutil.ParseArrayRef(raw)
		if err != nil {
			return DesignSpace{}, fmt.Errorf("optimize: design space %q: %w", spec.Name, err)
		}
		s.Arrays = append(s.Arrays, a)
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return DesignSpace{}, err
	}
	return s, nil
}

// FromJSONFile reads and parses a design-space spec file. A parse error is
// FromJSON's, which names the package, prefixed with the path.
func FromJSONFile(path string) (DesignSpace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return DesignSpace{}, fmt.Errorf("optimize: read design space: %w", err)
	}
	s, err := FromJSON(data)
	if err != nil {
		return DesignSpace{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Normalize canonicalizes the space: axes are deduplicated and sorted
// (arrays by rows then cols, chips ascending, false before true) and absent
// axes get their defaults (chips [1], gating [false], one group). An axis
// that is already strictly ascending is kept as is, so normalizing a
// canonical space allocates nothing; any other axis is sorted as a copy, so
// the slices of the space Normalize was copied from keep their order.
// Normalization is idempotent, which makes ToJSON∘FromJSON a fixed point.
func (s *DesignSpace) Normalize() {
	s.Arrays = canonical(s.Arrays, func(a, b core.Array) int {
		return cmp.Or(cmp.Compare(a.Rows, b.Rows), cmp.Compare(a.Cols, b.Cols))
	})
	if len(s.Chips) == 0 {
		s.Chips = []int{1}
	}
	s.Chips = canonical(s.Chips, cmp.Compare[int])
	if len(s.Gating) == 0 {
		s.Gating = []bool{false}
	}
	s.Gating = canonical(s.Gating, func(a, b bool) int {
		switch {
		case a == b:
			return 0
		case b:
			return -1
		}
		return 1
	})
	if s.Groups == 0 {
		s.Groups = 1
	}
}

// canonical returns axis sorted by compare without duplicates: axis itself
// when it is strictly ascending already, else a sorted copy.
func canonical[T comparable](axis []T, compare func(a, b T) int) []T {
	for i := 1; i < len(axis); i++ {
		if compare(axis[i-1], axis[i]) >= 0 {
			out := slices.Clone(axis)
			slices.SortFunc(out, compare)
			return slices.Compact(out)
		}
	}
	return axis
}

// Validate checks a normalized space: valid network, at least one valid
// array, positive chip counts, group count within the layer count, and a
// total point count within MaxPoints.
func (s DesignSpace) Validate() error {
	if err := s.Network.Validate(); err != nil {
		return err
	}
	if len(s.Arrays) == 0 {
		return fmt.Errorf("optimize: design space %q has no candidate arrays", s.Name)
	}
	for _, a := range s.Arrays {
		if err := a.Validate(); err != nil {
			return err
		}
	}
	for _, c := range s.Chips {
		if c < 1 {
			return fmt.Errorf("optimize: design space %q: non-positive chip count %d", s.Name, c)
		}
		if c > compile.MaxArrays {
			return fmt.Errorf("optimize: design space %q: chip count %d exceeds the limit of %d", s.Name, c, compile.MaxArrays)
		}
	}
	if s.Groups < 1 || s.Groups > len(s.Network.Layers) {
		return fmt.Errorf("optimize: design space %q: %d layer groups for %d layers",
			s.Name, s.Groups, len(s.Network.Layers))
	}
	n, err := s.Points()
	if err != nil {
		return err
	}
	if n > MaxPoints {
		return fmt.Errorf("optimize: design space %q enumerates %d points, limit %d", s.Name, n, MaxPoints)
	}
	return nil
}

// Points returns the number of design points the space enumerates:
// len(Arrays)^Groups × len(Chips) × len(Gating). It errors instead of
// overflowing when the assignment space explodes.
func (s DesignSpace) Points() (int, error) {
	n := 1
	for g := 0; g < s.groups(); g++ {
		n *= len(s.Arrays)
		if n > MaxPoints {
			return 0, fmt.Errorf("optimize: design space %q: %d^%d array assignments exceed limit %d",
				s.Name, len(s.Arrays), s.groups(), MaxPoints)
		}
	}
	n *= max(len(s.Chips), 1) * max(len(s.Gating), 1)
	return n, nil
}

func (s DesignSpace) groups() int {
	if s.Groups < 1 {
		return 1
	}
	return s.Groups
}

// LayerGroups splits the network's layers into Groups contiguous,
// near-equal-size slices: group i is layers[⌊iL/G⌋ : ⌊(i+1)L/G⌋].
func (s DesignSpace) LayerGroups() [][]model.ConvLayer {
	l, g := len(s.Network.Layers), s.groups()
	out := make([][]model.ConvLayer, g)
	for i := 0; i < g; i++ {
		out[i] = s.Network.Layers[i*l/g : (i+1)*l/g]
	}
	return out
}

// ToJSON serializes the space as a spec FromJSON accepts. The network is
// always inlined (never a zoo reference) and the axes are written in
// normalized form, so parsing the output yields the same space and
// re-serializing it yields the same bytes.
func (s DesignSpace) ToJSON() ([]byte, error) {
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	net, err := model.ToJSON(s.Network)
	if err != nil {
		return nil, err
	}
	spec := spaceJSON{
		Name:    s.Name,
		Network: json.RawMessage(bytes.TrimSpace(net)),
		Chips:   s.Chips,
		Gating:  s.Gating,
		Groups:  s.Groups,
	}
	for _, a := range s.Arrays {
		ref, err := json.Marshal(a.String())
		if err != nil {
			return nil, err
		}
		spec.Arrays = append(spec.Arrays, ref)
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("optimize: marshal design space: %w", err)
	}
	return append(data, '\n'), nil
}
