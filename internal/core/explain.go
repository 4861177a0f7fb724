package core

import (
	"fmt"
	"strings"
)

// Explain renders a step-by-step derivation of the mapping's cycle count in
// terms of the paper's equations — the trace a user needs to audit why the
// optimizer chose (or rejected) a window. The output is stable text suitable
// for CLI display and golden tests.
func (m Mapping) Explain() string {
	l := m.Layer.Normalized()
	var b strings.Builder
	fmt.Fprintf(&b, "%s mapping of %s onto a %s array\n", m.Scheme, l, m.Array)
	// The equations use the per-group channel counts; label them so.
	ic, oc := "IC", "OC"
	if g := l.NumGroups(); g > 1 {
		ic, oc = "ICg", "OCg"
		fmt.Fprintf(&b, "  grouped conv: %d groups of ICg=%d -> OCg=%d channels, mapped per group\n",
			g, l.ICg(), l.OCg())
	}
	switch m.Scheme {
	case SchemeIm2col:
		fmt.Fprintf(&b, "  window = kernel %s: one output position per cycle\n", m.PW)
		fmt.Fprintf(&b, "  windows          = OutW x OutH = %d x %d = %d\n",
			l.OutW(), l.OutH(), l.Windows())
		fmt.Fprintf(&b, "  AR (eq.1, rows)  = ceil(K*K*%s / Rows) = ceil(%d/%d) = %d\n",
			ic, l.KernelRows(), m.Array.Rows, m.AR)
		fmt.Fprintf(&b, "  AC (eq.1, cols)  = ceil(%s / Cols) = ceil(%d/%d) = %d\n",
			oc, l.OCg(), m.Array.Cols, m.AC)
	case SchemeSMD:
		fmt.Fprintf(&b, "  %d block-diagonal kernel copies (%d rows x %d cols)\n",
			m.Dup, m.Dup*l.KernelRows(), m.Dup*l.OCg())
		fmt.Fprintf(&b, "  window groups    = ceil(windows / dup) = ceil(%d/%d) = %d\n",
			l.Windows(), m.Dup, m.NPW)
		fmt.Fprintf(&b, "  AR x AC          = %d x %d\n", m.AR, m.AC)
	case SchemeSDK:
		fmt.Fprintf(&b, "  square parallel window %s holding entire channels\n", m.PW)
		fmt.Fprintf(&b, "  Nw               = %dx%d = %d windows share the input patch\n",
			m.NwW, m.NwH, m.Nw())
		fmt.Fprintf(&b, "  N_PW (eq.3)      = ceil(%d/%d) x ceil(%d/%d) = %d\n",
			l.OutW(), m.NwW, l.OutH(), m.NwH, m.NPW)
		fmt.Fprintf(&b, "  AR (eq.1, rows)  = ceil(PW area * %s / Rows) = ceil(%d/%d) = %d\n",
			ic, m.PW.Area()*l.ICg(), m.Array.Rows, m.AR)
		fmt.Fprintf(&b, "  AC (eq.1, cols)  = ceil(Nw * %s / Cols) = ceil(%d/%d) = %d\n",
			oc, m.Nw()*l.OCg(), m.Array.Cols, m.AC)
	case SchemeVWSDK:
		fmt.Fprintf(&b, "  variable parallel window %s with channel tiling\n", m.PW)
		fmt.Fprintf(&b, "  Nw               = %dx%d = %d windows share the input patch\n",
			m.NwW, m.NwH, m.Nw())
		fmt.Fprintf(&b, "  ICt (eq.4)       = floor(Rows / PW area) = floor(%d/%d) = %d (capped at %s=%d)\n",
			m.Array.Rows, m.PW.Area(), m.ICt, ic, l.ICg())
		fmt.Fprintf(&b, "  AR  (eq.5)       = ceil(%s / ICt) = ceil(%d/%d) = %d\n",
			ic, l.ICg(), m.ICt, m.AR)
		fmt.Fprintf(&b, "  OCt (eq.6)       = floor(Cols / Nw) = floor(%d/%d) = %d (capped at %s=%d)\n",
			m.Array.Cols, m.Nw(), m.OCt, oc, l.OCg())
		fmt.Fprintf(&b, "  AC  (eq.7)       = ceil(%s / OCt) = ceil(%d/%d) = %d\n",
			oc, l.OCg(), m.OCt, m.AC)
		fmt.Fprintf(&b, "  N_PW (eq.3)      = ceil(%d/%d) x ceil(%d/%d) = %d\n",
			l.OutW(), m.NwW, l.OutH(), m.NwH, m.NPW)
	}
	if g := l.NumGroups(); g > 1 {
		fmt.Fprintf(&b, "  cycles (eq.8)    = N_PW x AR x AC x G = %d x %d x %d x %d = %d\n",
			m.NPW, m.AR, m.AC, g, m.Cycles)
	} else {
		fmt.Fprintf(&b, "  cycles (eq.8)    = N_PW x AR x AC = %d x %d x %d = %d\n",
			m.NPW, m.AR, m.AC, m.Cycles)
	}
	fmt.Fprintf(&b, "  utilization      = %.1f%% avg, %.1f%% peak (eq.9)\n",
		m.Utilization(), m.PeakUtilization())
	return b.String()
}

// ExplainSearch renders the search outcome: the im2col baseline, the chosen
// mapping's derivation, and the speedup.
func ExplainSearch(r Result) string {
	var b strings.Builder
	b.WriteString("baseline:\n")
	b.WriteString(indent(r.Im2col.Explain()))
	b.WriteString("chosen:\n")
	b.WriteString(indent(r.Best.Explain()))
	fmt.Fprintf(&b, "speedup vs im2col: %.2fx (%d cost classes costed, %d feasible windows swept exhaustively)\n",
		r.SpeedupVsIm2col(), r.Evaluated, r.Swept)
	return b.String()
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n") + "\n"
}
