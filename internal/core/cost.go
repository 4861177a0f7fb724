package core

import "fmt"

// Scheme identifies a convolutional weight-mapping scheme.
type Scheme int

// The four mapping schemes modelled by the paper.
const (
	// SchemeIm2col unrolls each kernel into one column and processes one
	// window per cycle (Fig. 2a).
	SchemeIm2col Scheme = iota
	// SchemeSMD duplicates the whole kernel matrix block-diagonally so
	// several independent windows are processed per cycle (Fig. 2b).
	SchemeSMD
	// SchemeSDK shifts and duplicates kernels over a square parallel
	// window holding the entire channels (Fig. 2c).
	SchemeSDK
	// SchemeVWSDK is the paper's contribution: rectangular parallel
	// windows with channel tiling (Fig. 2d).
	SchemeVWSDK
)

// String returns the scheme name used throughout the paper.
func (s Scheme) String() string {
	switch s {
	case SchemeIm2col:
		return "im2col"
	case SchemeSMD:
		return "SMD"
	case SchemeSDK:
		return "SDK"
	case SchemeVWSDK:
		return "VW-SDK"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Mapping is the result of costing one mapping decision: a scheme plus its
// parallel window / duplication / channel-tiling parameters, together with
// the derived cycle counts of eqs. 2–8.
//
// A Mapping is immutable once constructed; use the constructors Im2col, SMD,
// SDK and VW (or the Search functions) to obtain one.
type Mapping struct {
	// Layer and Array are the normalized inputs the mapping was costed for.
	Layer Layer
	Array Array

	// Scheme identifies how weights are laid out.
	Scheme Scheme

	// PW is the parallel window. For im2col and SMD it equals the kernel.
	PW Window

	// NwW and NwH are the number of kernel placements inside PW along each
	// axis; Nw = NwW × NwH is the paper's N_WP (windows per parallel window).
	NwW, NwH int

	// Dup is the SMD duplication factor (independent kernel-matrix copies);
	// 1 for every other scheme.
	Dup int

	// ICt is the number of input channels mapped per array-row tile
	// (eq. 4). For row-granular schemes (im2col, SDK) it is the full IC:
	// rows are split without channel alignment and RowGranular is true.
	ICt int

	// OCt is the number of output channels computed per array-column tile
	// (eq. 6). For column-granular schemes (SDK) it is the full OC and
	// ColGranular is true.
	OCt int

	// RowGranular records that AR was computed as ceil(totalRows/Rows)
	// (splitting mid-channel), as im2col and the SDK baseline do, rather
	// than channel-granularly via ICt (eq. 5).
	RowGranular bool

	// ColGranular records that AC was computed as ceil(totalCols/Cols)
	// (splitting a parallel window's outputs across column cycles), as the
	// SDK baseline does, rather than via OCt (eq. 7).
	ColGranular bool

	// NPW is the number of parallel-window positions over the IFM (eq. 3);
	// for SMD it is the number of window *groups*, ceil(windows/Dup).
	NPW int

	// AR and AC are the array-row and array-column cycle multipliers
	// (eqs. 5 and 7). For grouped layers they are per convolution group:
	// ICt/OCt are capped at ICg/OCg because a group's kernels see only that
	// group's input channels and a group cannot share array columns with
	// another group.
	AR, AC int

	// Cycles is NPW × AR × AC × Groups (eq. 2/8; the per-group grid runs
	// once per convolution group).
	Cycles int64
}

// Nw returns the number of windows sharing one parallel window (N_WP).
func (m Mapping) Nw() int { return m.NwW * m.NwH }

// Tiles returns the total number of array tiles the mapping occupies over
// all convolution groups: AR × AC per group, times the group count.
func (m Mapping) Tiles() int { return m.AR * m.AC * m.Layer.NumGroups() }

// derive sets every field of m that eqs. 2–8 determine from its layer,
// array, scheme, parallel window and duplication, and reports whether the
// mapping is feasible. Im2col and SMD map the kernel window with im2col's
// tiling, which SMD duplication replaces by one tile. SDK maps whole
// channels, but its kernel window keeps im2col's tiling unless ColGranular
// is set, as SearchSDK reports an im2col winner under its own scheme. The
// layer must be normalized and valid, the array valid, the window inside
// [kernel, padded IFM] and the duplication at least 1.
func (m *Mapping) derive() bool {
	l, a := &m.Layer, m.Array
	icg, ocg := l.ICg(), l.OCg()
	whole := m.Scheme == SchemeSDK && (m.PW != l.Kernel() || m.ColGranular)
	if m.Scheme != SchemeVWSDK && !whole {
		m.PW = l.Kernel()
	}
	if m.Scheme != SchemeSMD {
		m.Dup = 1
	}
	m.NwW = windowsInside(m.PW.W, l.KW, l.StrideW)
	m.NwH = windowsInside(m.PW.H, l.KH, l.StrideH)
	nw := m.NwW * m.NwH
	m.RowGranular, m.ColGranular = m.Scheme != SchemeVWSDK, whole
	switch {
	case m.Scheme == SchemeVWSDK:
		m.ICt, m.OCt = a.Rows/m.PW.Area(), a.Cols/nw
		if m.ICt < 1 || m.OCt < 1 {
			return false
		}
		m.ICt, m.OCt = min(m.ICt, icg), min(m.OCt, ocg)
		m.AR, m.AC = ceilDiv(icg, m.ICt), ceilDiv(ocg, m.OCt)
	case whole:
		m.ICt, m.OCt = icg, ocg
		m.AR, m.AC = ceilDiv(m.PW.Area()*icg, a.Rows), ceilDiv(nw*ocg, a.Cols)
	case m.Scheme == SchemeSMD && m.Dup > 1:
		// The duplicated block-diagonal matrix is per group: each copy holds
		// one group's KW·KH·ICg × OCg kernel matrix.
		if m.Dup*l.KernelRows() > a.Rows || m.Dup*ocg > a.Cols {
			return false
		}
		m.ICt, m.OCt, m.AR, m.AC = icg, ocg, 1, 1
	default:
		m.ICt, m.OCt = icg, min(ocg, a.Cols)
		m.AR, m.AC = ceilDiv(l.KernelRows(), a.Rows), ceilDiv(ocg, a.Cols)
	}
	m.NPW = ceilDiv(l.OutW(), m.NwW) * ceilDiv(l.OutH(), m.NwH)
	if m.Scheme == SchemeSMD {
		m.NPW = ceilDiv(l.Windows(), m.Dup)
	}
	m.Cycles = int64(m.NPW) * int64(m.AR) * int64(m.AC) * int64(l.NumGroups())
	return true
}

// Im2col returns the cost of the im2col mapping (Fig. 2a): one kernel per
// column, one window per cycle, with row-granular AR = ceil(K·K·IC/Rows) and
// AC = ceil(OC/Cols) tiling when the array is too small (eq. 1 with N_WP=1).
func Im2col(l Layer, a Array) (Mapping, error) {
	l = l.Normalized()
	if err := l.Validate(); err != nil {
		return Mapping{}, err
	}
	if err := a.Validate(); err != nil {
		return Mapping{}, err
	}
	m := Mapping{Layer: l, Array: a, Scheme: SchemeIm2col}
	m.derive()
	return m, nil
}

// SMD returns the cost of sub-matrix duplication (Fig. 2b) with the given
// duplication factor dup ≥ 1: dup block-diagonal copies of the full kernel
// matrix compute dup independent windows per cycle. For dup > 1 the whole
// block-diagonal matrix must fit the array; SMD returns a wrapped
// ErrInfeasible otherwise. dup == 1 degenerates to im2col tiling.
func SMD(l Layer, a Array, dup int) (Mapping, error) {
	l = l.Normalized()
	if err := l.Validate(); err != nil {
		return Mapping{}, err
	}
	if err := a.Validate(); err != nil {
		return Mapping{}, err
	}
	if dup < 1 {
		return Mapping{}, fmt.Errorf("core: SMD duplication %d: %w", dup, ErrInfeasible)
	}
	m := Mapping{Layer: l, Array: a, Scheme: SchemeSMD, Dup: dup}
	if !m.derive() {
		return Mapping{}, fmt.Errorf("core: SMD duplication %d exceeds array %s for %s: %w",
			dup, a, l.Name, ErrInfeasible)
	}
	return m, nil
}

// SDK returns the cost of the baseline shifted-and-duplicated-kernel mapping
// (Fig. 2c, [Zhang TCAD'20]) for a given square parallel window pw holding
// the entire input channels. Per the paper's eq. 1, AR is row-granular
// (ceil(PW·PW·IC/Rows)) and AC is column-granular (ceil(Nw·OC/Cols)).
//
// SDK does not apply the baseline algorithm's feasibility rule; SearchSDK
// does. pw must be at least the kernel and at most the padded IFM.
func SDK(l Layer, a Array, pw Window) (Mapping, error) {
	l = l.Normalized()
	if err := checkWindow(l, a, pw); err != nil {
		return Mapping{}, err
	}
	m := Mapping{Layer: l, Array: a, Scheme: SchemeSDK, PW: pw, ColGranular: true}
	m.derive()
	return m, nil
}

// VW returns the cost of the paper's variable-window SDK mapping for a given
// (possibly rectangular) parallel window pw, applying channel tiling:
//
//	ICt = floor(Rows/(PWw·PWh))   (eq. 4), AR = ceil(ICg/ICt)  (eq. 5)
//	OCt = floor(Cols/Nw)          (eq. 6), AC = ceil(OCg/OCt)  (eq. 7)
//
// ICt and OCt are capped at the per-group channel counts ICg and OCg (for a
// dense layer those are IC and OC); a grouped layer runs the per-group grid
// once per group, so Cycles gains a ×Groups factor. VW returns a wrapped
// ErrInfeasible
// when not even one channel of the window fits the rows (ICt = 0) or one
// parallel window's outputs exceed the columns (OCt = 0).
//
// Note that for pw equal to the kernel, VW costs channel-granular row tiling,
// which can exceed im2col's row-granular count; Algorithm 1 (SearchVWSDK)
// therefore seeds its minimum with Im2col, per the paper.
func VW(l Layer, a Array, pw Window) (Mapping, error) {
	l = l.Normalized()
	if err := checkWindow(l, a, pw); err != nil {
		return Mapping{}, err
	}
	m, err := SweepVW(l, a, pw)
	if err != nil {
		// Re-wrap the bare sentinel with the diagnostic detail direct
		// callers expect.
		nwW := windowsInside(pw.W, l.KW, l.StrideW)
		nwH := windowsInside(pw.H, l.KH, l.StrideH)
		if a.Rows/pw.Area() < 1 {
			return Mapping{}, fmt.Errorf("core: window %s needs %d rows/channel, array %s: %w",
				pw, pw.Area(), a, ErrInfeasible)
		}
		return Mapping{}, fmt.Errorf("core: window %s has %d windows, array %s columns: %w",
			pw, nwW*nwH, a, ErrInfeasible)
	}
	return m, nil
}

// SweepVW costs one variable-window candidate like VW but is tuned for
// exhaustive sweeps: it assumes l is already normalized and validated and
// pw lies within [kernel, padded IFM], and it reports infeasibility as the
// bare ErrInfeasible sentinel. Algorithm 1 costs every window of the padded
// IFM — tens of thousands of candidates on early VGG layers, most
// infeasible on small arrays — and formatting the discarded error strings
// dominated the search profile (>80% of CPU samples), so the sweeps must
// not allocate per rejected candidate.
func SweepVW(l Layer, a Array, pw Window) (Mapping, error) {
	m := Mapping{Layer: l, Array: a, Scheme: SchemeVWSDK, PW: pw}
	if !m.derive() {
		return Mapping{}, ErrInfeasible
	}
	return m, nil
}

// checkWindow validates layer and array, and that the parallel window covers
// the kernel and fits the padded IFM. It does not check that the window ends
// on the stride grid. A window one column past it, such as 6×3 for a 3×3,
// stride-2 kernel, holds no more windows than the aligned 5×3 but spends
// rows on the unused column: on an 11×11 layer with 4 channels on a 64×64
// array, VW packs 3 channels per tile for 30 cycles against 5×3's 4 and 15.
// Such a layout is valid and verifies bit-exactly, only wasteful, and no
// search picks it: the aligned window costs no more and comes first in scan
// order.
func checkWindow(l Layer, a Array, pw Window) error {
	if err := l.Validate(); err != nil {
		return err
	}
	if err := a.Validate(); err != nil {
		return err
	}
	if pw.W < l.KW || pw.H < l.KH {
		return fmt.Errorf("core: parallel window %s smaller than kernel %s", pw, l.Kernel())
	}
	if pw.W > l.PaddedW() || pw.H > l.PaddedH() {
		return fmt.Errorf("core: parallel window %s exceeds padded IFM %dx%d",
			pw, l.PaddedW(), l.PaddedH())
	}
	return nil
}

// Consistent reports whether m is the mapping Im2col, SMD, SDK or VW
// derives from m's own layer, array, scheme, parallel window and
// duplication, so that every other field (NwW, NwH, ICt, OCt, the
// granularities, NPW, AR, AC and Cycles) is what eqs. 2–8 give for them.
// SMD without duplication is the im2col mapping under scheme SMD, and
// SDK's kernel window may be too, without column granularity, as SearchSDK
// reports an im2col winner. It checks a mapping from outside the process,
// such as a stored plan's, in constant time: it first refuses an invalid
// or unnormalized layer, an invalid array, a window outside [kernel,
// padded IFM] and a duplication outside [1, array rows], so that no field
// value can make the formulas divide by zero or overflow.
func (m *Mapping) Consistent() bool {
	l, pw := &m.Layer, m.PW
	if l.StrideW < 1 || l.StrideH < 1 || l.Validate() != nil || m.Array.Validate() != nil ||
		pw.W < l.KW || pw.W > l.PaddedW() || pw.H < l.KH || pw.H > l.PaddedH() ||
		m.Scheme < SchemeIm2col || m.Scheme > SchemeVWSDK || m.Dup < 1 || m.Dup > m.Array.Rows {
		return false
	}
	c := *m
	return c.derive() && c == *m
}

// Speedup returns the ratio of the baseline's cycles to m's cycles; >1 means
// m is faster. It returns 0 when m has zero cycles (degenerate).
func (m Mapping) Speedup(baseline Mapping) float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(baseline.Cycles) / float64(m.Cycles)
}

// TileString renders the mapping in the paper's Table I notation:
// "PWwxPWh x ICt x OCt", e.g. "4x3x42x256".
func (m Mapping) TileString() string {
	return fmt.Sprintf("%dx%dx%dx%d", m.PW.W, m.PW.H, m.ICt, m.OCt)
}

// String summarizes the mapping for logs and reports.
func (m Mapping) String() string {
	return fmt.Sprintf("%s pw=%s ict=%d oct=%d npw=%d ar=%d ac=%d cycles=%d",
		m.Scheme, m.PW, m.ICt, m.OCt, m.NPW, m.AR, m.AC, m.Cycles)
}
