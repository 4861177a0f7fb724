package obs

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
)

// This file is the metrics half of the package: writers for Prometheus text
// exposition format version 0.0.4 and a fixed-bucket histogram backed by
// atomics, with no dependencies. There is no registry: the server writes
// GET /metrics straight into one buffer, each counter and gauge from one
// Stats snapshot and then its two histogram families, so the caller that
// knows every name, help text, label and value hands them over once. The
// metric names and label sets it writes are a stable contract (DESIGN.md
// §9).

// Label is one name="value" pair on a metric series.
type Label struct {
	Name, Value string
}

// Labels is an ordered label set; order is preserved in the exposition.
type Labels []Label

// render flattens the label set into the inner exposition form
// (`a="x",b="y"`), escaping values per the text format.
func (ls Labels) render() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Histogram is a fixed-bucket histogram. Observations and writes are
// lock-free; bucket counts are exposed cumulatively, as the text format
// requires. The zero value is unusable; obtain one from NewHistogram.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; the last is the +Inf bucket
	sumBits atomic.Uint64   // float64 bits, CAS-accumulated
}

// NewHistogram returns an empty histogram with the given bucket upper
// bounds (ascending, +Inf implied).
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Buckets returns copies of the upper bounds and of the per-bucket counts.
// Counts are disjoint, not cumulative: counts[i] is the number of
// observations in (bounds[i-1], bounds[i]], and the extra last count is the
// +Inf overflow bucket.
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return append([]float64(nil), h.bounds...), counts
}

// WriteSeries writes the histogram's sample lines as one series of the
// family name: cumulative name_bucket lines ending at le="+Inf", then
// name_sum and name_count. The family's header is the caller's
// (WriteFamily), once before its first series.
func (h *Histogram) WriteSeries(b *bytes.Buffer, name string, labels ...Label) {
	ls := Labels(labels).render()
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		writeSample(b, name+"_bucket", `le="`+formatFloat(bound)+`"`, ls, float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	writeSample(b, name+"_bucket", `le="+Inf"`, ls, float64(cum))
	writeSample(b, name+"_sum", "", ls, math.Float64frombits(h.sumBits.Load()))
	writeSample(b, name+"_count", "", ls, float64(cum))
}

// WriteFamily writes a metric family's # HELP and # TYPE lines; typ is
// "counter", "gauge" or "histogram".
func WriteFamily(b *bytes.Buffer, name, help, typ string) {
	b.WriteString("# HELP " + name + " " + help + "\n")
	b.WriteString("# TYPE " + name + " " + typ + "\n")
}

// WriteSample writes one counter or gauge sample line.
func WriteSample(b *bytes.Buffer, name string, v float64, labels ...Label) {
	writeSample(b, name, "", Labels(labels).render(), v)
}

// writeSample writes one exposition line: name{labels,extra} value.
func writeSample(b *bytes.Buffer, name, extra, labels string, v float64) {
	b.WriteString(name)
	if extra != "" || labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if extra != "" {
			if labels != "" {
				b.WriteByte(',')
			}
			b.WriteString(extra)
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// DurationBuckets are the default latency histogram bounds in seconds:
// 100µs to 10s, roughly 2.5× apart — wide enough for a sub-millisecond warm
// hit and a multi-second cold sweep to land in distinct buckets.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// ContentType is the Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"
