// Package obs is the repository's observability spine: a small,
// dependency-free metrics layer — counters, gauges and fixed-bucket
// histograms, all atomic and safe for concurrent use — with a Prometheus
// text exporter and an HTTP server wrapping /metrics, /healthz and pprof.
//
// The paper's whole contribution is non-intrusive measurement of a running
// system; this package gives our own stack the same property. Metric
// updates are lock-free atomic operations so they can sit on hot paths
// (detector transitions, broker recovery actions) without perturbing the
// behavior being measured; registration (get-or-create) takes a registry
// lock and belongs at construction time or on cold paths.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. The zero value is usable,
// but counters are normally obtained from a Registry so they export.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets defined by ascending
// upper bounds; values above the last bound land in the implicit +Inf
// bucket. Observations are lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-added
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// bucketIndex returns the index of the first bound >= v (len(bounds) for
// the +Inf bucket). Hand-rolled: bucket slices are short (a dozen bounds),
// so a linear scan beats sort.Search's per-iteration closure calls on hot
// observe paths.
func bucketIndex(bounds []float64, v float64) int {
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := bucketIndex(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// LocalHistogram is an unsynchronized accumulator sharing a Histogram's
// buckets, for single-goroutine hot loops that would otherwise contend on
// the shared atomics per observation. Observe is plain arithmetic; Flush
// folds the whole batch into the parent in O(buckets).
type LocalHistogram struct {
	h      *Histogram
	counts []uint64
	count  uint64
	sum    float64
}

// Local returns a new unsynchronized accumulator for this histogram. Each
// accumulator belongs to one goroutine; any number may flush into the same
// parent concurrently.
func (h *Histogram) Local() *LocalHistogram {
	return &LocalHistogram{h: h, counts: make([]uint64, len(h.counts))}
}

// Observe records one value locally. Not safe for concurrent use.
func (l *LocalHistogram) Observe(v float64) {
	l.counts[bucketIndex(l.h.bounds, v)]++
	l.count++
	l.sum += v
}

// Flush adds the accumulated batch to the parent histogram and resets the
// accumulator. A scrape concurrent with Flush may see the batch's buckets
// partially applied — the same per-bucket consistency Observe offers.
func (l *LocalHistogram) Flush() {
	if l.count == 0 {
		return
	}
	for i, n := range l.counts {
		if n != 0 {
			l.h.counts[i].Add(n)
			l.counts[i] = 0
		}
	}
	l.h.count.Add(l.count)
	l.count = 0
	for {
		old := l.h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + l.sum)
		if l.h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	l.sum = 0
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Counts are per-bucket (not cumulative) and align with Bounds plus a
// final +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram state. Concurrent observations may land
// between bucket reads; each bucket value is itself consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// ExpBuckets returns n ascending bounds start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 {
		panic("obs: ExpBuckets needs start > 0 and factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Label is one metric dimension. Series of a family are distinguished by
// their sorted label sets.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates metric families.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// series is one (family, labels) metric instance.
type series struct {
	labels []Label // sorted by key
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	bounds []float64 // histogram families only
	byKey  map[string]*series
	order  []string // label keys in first-registration order, for stable export
}

// Registry holds named metrics and renders them for export. Get-or-create
// lookups are guarded by a mutex; the returned metric handles update
// atomically without touching the registry again, so callers should hold
// on to them for hot paths.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter registered under name and labels, creating
// it on first use. Reusing a name with a different metric kind panics —
// that is a programming error, not a runtime condition.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.get(name, help, KindCounter, nil, labels)
	return s.c
}

// Gauge returns the gauge registered under name and labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.get(name, help, KindGauge, nil, labels)
	return s.g
}

// Histogram returns the histogram registered under name and labels,
// creating it with the given bucket bounds on first use. Later calls for
// the same family ignore bounds (the family's buckets are fixed at
// creation).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.get(name, help, KindHistogram, bounds, labels)
	return s.h
}

func (r *Registry) get(name, help string, kind Kind, bounds []float64, labels []Label) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) || l.Key == "le" {
			panic(fmt.Sprintf("obs: invalid label key %q on %q", l.Key, name))
		}
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	key := labelKey(sorted)

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byKey: make(map[string]*series)}
		if kind == KindHistogram {
			if len(bounds) == 0 {
				panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
			}
			f.bounds = append([]float64(nil), bounds...)
		}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q is a %v, requested as %v", name, f.kind, kind))
	}
	s, ok := f.byKey[key]
	if !ok {
		s = &series{labels: sorted}
		switch kind {
		case KindCounter:
			s.c = &Counter{}
		case KindGauge:
			s.g = &Gauge{}
		case KindHistogram:
			s.h = newHistogram(f.bounds)
		}
		f.byKey[key] = s
		f.order = append(f.order, key)
	}
	return s
}

func labelKey(sorted []Label) string {
	if len(sorted) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range sorted {
		b.WriteString(l.Key)
		b.WriteByte('\xff')
		b.WriteString(l.Value)
		b.WriteByte('\xfe')
	}
	return b.String()
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// SeriesSnapshot is one exported series.
type SeriesSnapshot struct {
	Labels []Label
	// Value holds counter (as float64) and gauge values.
	Value float64
	// Hist is set for histogram series.
	Hist *HistogramSnapshot
}

// FamilySnapshot is one exported metric family.
type FamilySnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Series []SeriesSnapshot
}

// Snapshot captures every registered metric, families sorted by name and
// series in registration order.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]FamilySnapshot, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		for _, key := range f.order {
			s := f.byKey[key]
			ss := SeriesSnapshot{Labels: append([]Label(nil), s.labels...)}
			switch f.kind {
			case KindCounter:
				ss.Value = float64(s.c.Value())
			case KindGauge:
				ss.Value = s.g.Value()
			case KindHistogram:
				h := s.h.Snapshot()
				ss.Hist = &h
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}
