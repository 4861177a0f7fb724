// Package chip schedules mapped convolutional layers across a multi-array
// PIM chip (extension E15, DESIGN.md).
//
// A real PIM accelerator holds many crossbars. A mapped layer consists of
// AR×AC independent weight tiles, each of which must sweep all N_PW
// parallel-window positions; tiles only exchange data at the accumulation
// stage, so they can run on different arrays concurrently, and a single
// tile's positions can additionally be split across replicas of that tile
// (the input is broadcast). Arrays are weight-stationary within a layer:
// each array is programmed with one tile (or a sequence of tiles when the
// chip has fewer arrays than the layer has tiles).
//
// With identical per-tile work (every tile runs N_PW cycles), the balanced
// schedule computed here is makespan-optimal:
//
//   - arrays ≥ tiles: give every tile floor(arrays/tiles) replicas;
//     makespan = ceil(N_PW / floor(arrays/tiles)).
//   - arrays < tiles: ceil(tiles/arrays) sequential rounds of N_PW cycles,
//     reprogramming between rounds.
//
// Layers run one after another (each layer's inputs are the previous
// layer's outputs), so a network's makespan is the sum of its layers'; the
// compile pipeline adds them up in its plan totals.
package chip

import (
	"fmt"

	"repro/internal/core"
)

// LayerSchedule is the placement of one mapped layer on a chip.
type LayerSchedule struct {
	// Mapping is the scheduled layer mapping.
	Mapping core.Mapping

	// Arrays is the number of crossbars used (≤ the chip size).
	Arrays int

	// Tiles is AR×AC×Groups, the weight tiles of the mapping (a grouped
	// layer lays out an independent AR×AC grid per convolution group).
	Tiles int

	// Replicas is the number of copies of each tile when the chip has
	// arrays to spare (1 otherwise).
	Replicas int

	// Rounds is the number of sequential program-then-sweep rounds an
	// array performs (1 when every tile has its own array).
	Rounds int

	// Makespan is the layer latency in computing cycles.
	Makespan int64

	// Programs counts tile programmings across the chip.
	Programs int

	// BusyFraction is the mean fraction of the used arrays' time spent
	// computing (1.0 = perfectly balanced).
	BusyFraction float64
}

// ScheduleLayer places mapping m on a chip with nArrays crossbars, each at
// least m.Array in size.
func ScheduleLayer(m core.Mapping, nArrays int) (LayerSchedule, error) {
	if nArrays < 1 {
		return LayerSchedule{}, fmt.Errorf("chip: need at least one array, got %d", nArrays)
	}
	if m.AR < 1 || m.AC < 1 || m.NPW < 1 {
		return LayerSchedule{}, fmt.Errorf("chip: mapping not costed: %v", m)
	}
	tiles := m.Tiles()
	npw := int64(m.NPW)
	s := LayerSchedule{Mapping: m, Tiles: tiles}
	if nArrays >= tiles {
		// Replicate tiles over the spare arrays and split positions.
		rep := nArrays / tiles
		s.Replicas = rep
		s.Rounds = 1
		s.Arrays = tiles * rep
		s.Makespan = ceilDiv64(npw, int64(rep))
		s.Programs = s.Arrays
	} else {
		rounds := ceilDiv(tiles, nArrays)
		s.Replicas = 1
		s.Rounds = rounds
		s.Arrays = nArrays
		s.Makespan = int64(rounds) * npw
		s.Programs = tiles
	}
	total := m.Cycles // G·AR·AC·NPW array-cycles of real work
	s.BusyFraction = float64(total) / (float64(s.Makespan) * float64(s.Arrays))
	return s, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func ceilDiv64(a, b int64) int64 { return (a + b - 1) / b }
