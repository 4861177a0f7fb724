package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the metrics half of the package: a hand-rolled Prometheus
// registry writing text exposition format version 0.0.4 — no dependencies,
// just counters and gauges sampled from callbacks at scrape time and
// fixed-bucket histograms backed by atomics. The server exposes one
// Registry on GET /metrics; metric names and label sets registered there
// are a stable contract (DESIGN.md §9).

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

// collector writes one series' sample lines.
type collector interface {
	collect(b *bytes.Buffer, name, labels string)
}

// counterFunc samples a cumulative counter from a callback at scrape time —
// how the registry mirrors counters owned elsewhere (engine stats, cache
// stats) without double counting.
type counterFunc func() uint64

func (f counterFunc) collect(b *bytes.Buffer, name, labels string) {
	writeSample(b, name, "", labels, float64(f()))
}

// gaugeFunc samples a gauge from a callback at scrape time.
type gaugeFunc func() float64

func (f gaugeFunc) collect(b *bytes.Buffer, name, labels string) {
	writeSample(b, name, "", labels, f())
}

// Histogram is a fixed-bucket histogram. Observations and scrapes are
// lock-free; bucket counts are exposed cumulatively, as the text format
// requires. The zero value is unusable; obtain one from Registry.Histogram.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; the last is the +Inf bucket
	sumBits atomic.Uint64   // float64 bits, CAS-accumulated
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

func (h *Histogram) collect(b *bytes.Buffer, name, labels string) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		le := `le="` + formatFloat(bound) + `"`
		writeSample(b, name+"_bucket", le, labels, float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	writeSample(b, name+"_bucket", `le="+Inf"`, labels, float64(cum))
	writeSample(b, name+"_sum", "", labels, math.Float64frombits(h.sumBits.Load()))
	writeSample(b, name+"_count", "", labels, float64(cum))
}

// writeSample writes one exposition line: name{extra,labels} value.
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

// family is one metric name: its metadata plus every labeled series.
type family struct {
	name, help, typ string
	series          []famSeries
}

type famSeries struct {
	labels string
	col    collector
}

// Registry holds metric families and writes them in Prometheus text
// exposition format. Build one with NewRegistry; registration methods are
// typically called once at construction, scrapes any time after.
type Registry struct {
	mu     sync.Mutex
	order  []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register appends one series to the (possibly new) family, enforcing that a
// name keeps one type and help across registrations. Registration conflicts
// are programmer errors and panic.
func (r *Registry) register(name, help, typ string, labels Labels, col collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.order = append(r.order, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as both %s and %s", name, f.typ, typ))
	}
	f.series = append(f.series, famSeries{labels: labels.render(), col: col})
}

// CounterFunc registers a counter series sampled from fn at scrape time; fn
// must be monotone and safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(name, help, "counter", labels, counterFunc(fn))
}

// GaugeFunc registers a gauge series sampled from fn at scrape time; fn must
// be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "gauge", labels, gaugeFunc(fn))
}

// Histogram registers and returns a histogram series with the given bucket
// upper bounds (ascending, +Inf implied).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	h := &Histogram{
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
	r.register(name, help, "histogram", labels, h)
	return h
}

// ContentType is the Content-Type of the exposition WriteTo produces.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteTo writes the full exposition: families in registration order, each
// with its # HELP and # TYPE line followed by every series' samples.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := make([]*family, len(r.order))
	copy(fams, r.order)
	r.mu.Unlock()
	var b bytes.Buffer
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			s.col.collect(&b, f.name, s.labels)
		}
	}
	n, err := w.Write(b.Bytes())
	return int64(n), err
}
