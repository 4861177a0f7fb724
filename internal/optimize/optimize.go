package optimize

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
)

// Design is one enumerated hardware configuration: an array geometry per
// layer group, a chip count per group bank, and the peripheral model.
type Design struct {
	// ID is the 1-based enumeration index; it is the deterministic
	// tiebreaker everywhere (first-enumerated wins).
	ID int

	// Arrays is the per-group array assignment, len == space Groups.
	Arrays []core.Array

	// Chips is the number of crossbars in each group's bank.
	Chips int

	// Gated selects the gated peripheral model.
	Gated bool
}

// Metrics are the three objectives a design point is scored on. Lower is
// better on every component.
type Metrics struct {
	// Cycles is the whole-network chip latency: the sum over layer groups
	// of the group's schedule makespan on its bank.
	Cycles int64 `json:"cycles"`

	// EnergyJ is the per-inference energy in joules (programming excluded),
	// summed over groups.
	EnergyJ float64 `json:"energy_j"`

	// AreaCells is the total cell area: Σ groups Chips × array cells.
	AreaCells int64 `json:"area_cells"`
}

// Dominates reports whether m weakly dominates o: no worse on every
// component. Equal metrics dominate each other, which is what makes the
// first-enumerated of two tied points win admission.
func (m Metrics) Dominates(o Metrics) bool {
	return m.Cycles <= o.Cycles && m.EnergyJ <= o.EnergyJ && m.AreaCells <= o.AreaCells
}

// FrontierPoint is one admitted design point with its scores.
type FrontierPoint struct {
	// ID is the design's enumeration index.
	ID int `json:"id"`

	// Arrays, Chips and Gated identify the hardware configuration.
	Arrays []core.Array `json:"arrays"`
	Chips  int          `json:"chips"`
	Gated  bool         `json:"gated"`

	// Metrics are the point's objective scores.
	Metrics Metrics `json:"metrics"`
}

// Event is one frontier update, emitted as each design point is evaluated.
type Event struct {
	// Kind is "admit" (point joined the frontier), "evict" (a previously
	// admitted point was dominated by a new admit) or "reject" (the
	// evaluated point was dominated on arrival).
	Kind string `json:"event"`

	// ID is the design point the event is about.
	ID int `json:"id"`

	// By is the dominating point's ID for evict/reject events; 0 for admit.
	By int `json:"by,omitempty"`

	// Point carries the evaluated point for admit and reject events so
	// streams are self-contained; nil for evict (the point was already
	// streamed when admitted).
	Point *FrontierPoint `json:"point,omitempty"`
}

// Frontier is the search result: the non-dominated points plus the
// bookkeeping that proves how much of the space was pruned.
type Frontier struct {
	// Name and Groups echo the searched space; Network names the network.
	Name    string `json:"name,omitempty"`
	Network string `json:"network"`
	Groups  int    `json:"layer_groups"`

	// Evaluated counts enumerated design points; Admitted and Evicted
	// count frontier admissions and subsequent evictions; Rejected counts
	// points dominated on arrival. Dominated = Rejected + Evicted.
	Evaluated int `json:"evaluated"`
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Evicted   int `json:"evicted"`
	Dominated int `json:"dominated"`

	// Points are the surviving non-dominated designs, sorted by (cycles,
	// energy, area, id).
	Points []FrontierPoint `json:"points"`
}

// Validate cross-checks the frontier's invariants: counts consistent,
// points sorted, and no point weakly dominated by another.
func (f *Frontier) Validate() error {
	if f.Dominated != f.Rejected+f.Evicted {
		return fmt.Errorf("optimize: dominated %d != rejected %d + evicted %d", f.Dominated, f.Rejected, f.Evicted)
	}
	if f.Evaluated != f.Admitted+f.Rejected {
		return fmt.Errorf("optimize: evaluated %d != admitted %d + rejected %d", f.Evaluated, f.Admitted, f.Rejected)
	}
	if len(f.Points) != f.Admitted-f.Evicted {
		return fmt.Errorf("optimize: %d points != admitted %d - evicted %d", len(f.Points), f.Admitted, f.Evicted)
	}
	if !sort.SliceIsSorted(f.Points, func(i, j int) bool { return pointLess(f.Points[i], f.Points[j]) }) {
		return fmt.Errorf("optimize: frontier points out of order")
	}
	for i, p := range f.Points {
		for j, q := range f.Points {
			if i != j && q.Metrics.Dominates(p.Metrics) {
				return fmt.Errorf("optimize: frontier point %d dominated by point %d", p.ID, q.ID)
			}
		}
	}
	return nil
}

// pointLess is the frontier's canonical order: cycles, then energy, area
// and enumeration ID.
func pointLess(a, b FrontierPoint) bool {
	if a.Metrics.Cycles != b.Metrics.Cycles {
		return a.Metrics.Cycles < b.Metrics.Cycles
	}
	if a.Metrics.EnergyJ != b.Metrics.EnergyJ {
		return a.Metrics.EnergyJ < b.Metrics.EnergyJ
	}
	if a.Metrics.AreaCells != b.Metrics.AreaCells {
		return a.Metrics.AreaCells < b.Metrics.AreaCells
	}
	return a.ID < b.ID
}

// ToJSON serializes the frontier; FromJSONFrontier parses and validates one.
func (f *Frontier) ToJSON() ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("optimize: marshal frontier: %w", err)
	}
	return append(data, '\n'), nil
}

// FromJSONFrontier parses a serialized frontier and validates its
// invariants.
func FromJSONFrontier(data []byte) (*Frontier, error) {
	var f Frontier
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("optimize: parse frontier: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Optimizer enumerates a DesignSpace through a compile.Compiler. Build one
// with New; a single Optimizer may be shared and reuses its compiler's
// engine memoization across Run calls, so design points sharing a (layer,
// array) cell — within one run or across runs — search it once.
type Optimizer struct {
	c *compile.Compiler
}

// New returns an Optimizer compiling through c; nil selects a fresh
// compiler on a fresh engine (compile.New(nil)).
func New(c *compile.Compiler) *Optimizer {
	if c == nil {
		c = compile.New(nil)
	}
	return &Optimizer{c: c}
}

// Compiler returns the compiler the optimizer runs on.
func (o *Optimizer) Compiler() *compile.Compiler { return o.c }

// Designs enumerates the space's design points in the canonical order:
// array assignments as an odometer (last group fastest), then chip counts,
// then gating. IDs start at 1.
func Designs(s DesignSpace) []Design {
	s.Normalize()
	groups := s.groups()
	assign := make([]int, groups)
	var out []Design
	for {
		arrays := make([]core.Array, groups)
		for g, ai := range assign {
			arrays[g] = s.Arrays[ai]
		}
		for _, chips := range s.Chips {
			for _, gated := range s.Gating {
				out = append(out, Design{ID: len(out) + 1, Arrays: arrays, Chips: chips, Gated: gated})
			}
		}
		g := groups - 1
		for g >= 0 {
			assign[g]++
			if assign[g] < len(s.Arrays) {
				break
			}
			assign[g] = 0
			g--
		}
		if g < 0 {
			return out
		}
	}
}

// Evaluate scores one design: each layer group is compiled as a sub-network
// on its assigned array with the design's chip count and peripheral model,
// and the group totals are summed in group order. It compiles every group
// afresh, which makes it the single-point oracle Run's scores are checked
// against.
func (o *Optimizer) Evaluate(ctx context.Context, s DesignSpace, d Design) (FrontierPoint, error) {
	return o.evaluate(ctx, s.Network.Name, s.LayerGroups(), d, nil, nil)
}

// cell is one group compile: a layer group on one array, with one chip count
// and one peripheral model. Every design point of a run that contains the
// cell gets the same group totals from it.
type cell struct {
	group int
	array core.Array
	chips int
	gated bool
}

// cellCost is a compiled cell's share of a design point's scores.
type cellCost struct {
	cycles  int64
	energyJ float64
}

// evaluate scores d on the given layer groups. A cell found in memo is read
// instead of compiled, and a compiled cell is recorded in memo unless memo
// is nil. Either way the group terms are added in group order, so a
// memoized score is bit-identical to a fresh one. A cell compiles into
// scratch, whose layer plans each compile reuses, or into a fresh plan when
// scratch is nil.
func (o *Optimizer) evaluate(ctx context.Context, network string, groups [][]model.ConvLayer, d Design, memo map[cell]cellCost, scratch *compile.NetworkPlan) (FrontierPoint, error) {
	if len(d.Arrays) != len(groups) {
		return FrontierPoint{}, fmt.Errorf("optimize: design %d assigns %d arrays to %d groups",
			d.ID, len(d.Arrays), len(groups))
	}
	p := FrontierPoint{ID: d.ID, Arrays: d.Arrays, Chips: d.Chips, Gated: d.Gated}
	for g, layers := range groups {
		k := cell{group: g, array: d.Arrays[g], chips: d.Chips, gated: d.Gated}
		c, ok := memo[k]
		if !ok {
			sub := model.Network{Name: network, Layers: layers}
			opts := compile.Options{Arrays: d.Chips, GatePeripherals: d.Gated}
			plan := scratch
			if plan == nil {
				plan = new(compile.NetworkPlan)
			}
			if err := o.c.CompileInto(ctx, compile.NewRequest(sub, d.Arrays[g], opts), plan); err != nil {
				return FrontierPoint{}, fmt.Errorf("optimize: design %d group %d on %v: %w", d.ID, g, d.Arrays[g], err)
			}
			c = cellCost{cycles: plan.Totals.Makespan, energyJ: plan.Totals.Energy.EnergyTotal}
			if memo != nil {
				memo[k] = c
			}
		}
		p.Metrics.Cycles += c.cycles
		p.Metrics.EnergyJ += c.energyJ
		p.Metrics.AreaCells += int64(d.Chips) * d.Arrays[g].Cells()
	}
	return p, nil
}

// Run searches the space: every design point is evaluated in enumeration
// order and admitted to the frontier unless an already-admitted point weakly
// dominates it; an admission evicts the frontier points it dominates. emit,
// when non-nil, receives one Event per admission, eviction and rejection as
// they happen — the streaming surface. Cancelling ctx aborts the search
// inside the current compile.
//
// Each cell — one layer group on one array with one chip count and gating
// setting — is compiled once per run, by the first design point that needs
// it; later points read its memoized totals. Cells compile lazily in
// enumeration order, so events, scores and errors are those of evaluating
// every point afresh. Every cell of a run compiles into one scratch plan of
// the run's own (compile.Compiler.CompileInto), so concurrent runs on one
// Optimizer share nothing but the compiler.
func (o *Optimizer) Run(ctx context.Context, s DesignSpace, emit func(Event)) (*Frontier, error) {
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	ctx, sp := obs.Start(ctx, "optimize")
	defer sp.End()
	sp.SetStr("network", s.Network.Name)

	f := &Frontier{Name: s.Name, Network: s.Network.Name, Groups: s.groups()}
	groups := s.LayerGroups()
	memo := make(map[cell]cellCost, len(groups)*len(s.Arrays)*len(s.Chips)*len(s.Gating))
	var scratch compile.NetworkPlan
	var frontier []FrontierPoint
	for _, d := range Designs(s) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := o.evaluate(ctx, s.Network.Name, groups, d, memo, &scratch)
		if err != nil {
			return nil, err
		}
		f.Evaluated++
		if by, dominated := dominatedBy(frontier, p.Metrics); dominated {
			f.Rejected++
			f.Dominated++
			if emit != nil {
				emit(pointEvent("reject", by, p))
			}
			continue
		}
		// Admit p, evicting the points it now dominates. Admission already
		// established that no survivor weakly dominates p, so any point p
		// weakly dominates here is strictly worse somewhere.
		kept := frontier[:0]
		for _, q := range frontier {
			if p.Metrics.Dominates(q.Metrics) {
				f.Evicted++
				f.Dominated++
				if emit != nil {
					emit(Event{Kind: "evict", ID: q.ID, By: p.ID})
				}
				continue
			}
			kept = append(kept, q)
		}
		frontier = append(kept, p)
		f.Admitted++
		if emit != nil {
			emit(pointEvent("admit", 0, p))
		}
	}
	sort.Slice(frontier, func(i, j int) bool { return pointLess(frontier[i], frontier[j]) })
	f.Points = frontier
	sp.SetInt("evaluated", int64(f.Evaluated)).SetInt("frontier", int64(len(f.Points))).
		SetInt("compiles", int64(len(memo)))
	return f, nil
}

// pointEvent returns the event of the given kind about p, by the ID of the
// point that dominates it or 0, carrying its own copy of p, so that a point
// moves to the heap only when a run emits it.
func pointEvent(kind string, by int, p FrontierPoint) Event {
	return Event{Kind: kind, ID: p.ID, By: by, Point: &p}
}

// dominatedBy returns the ID of the first frontier point (in admission
// order) that weakly dominates m, if any.
func dominatedBy(frontier []FrontierPoint, m Metrics) (int, bool) {
	for _, q := range frontier {
		if q.Metrics.Dominates(m) {
			return q.ID, true
		}
	}
	return 0, false
}
