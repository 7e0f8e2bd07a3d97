// Package obs is the zero-dependency instrumentation layer of the pruning
// pipeline: a registry of counters, gauges and histograms, hierarchical
// timing spans, a periodic progress reporter (progress.go), exporters for
// the Prometheus text format and JSON (export.go), and an embedded
// /metrics + pprof HTTP endpoint (http.go).
//
// Instrumentation is strictly opt-in and nil-safe end to end:
//
//   - a nil *Registry hands out nil metric handles,
//   - every method on a nil *Counter, *Gauge, *Histogram or *Span is a
//     no-op,
//
// so the hot paths of core.Search, prune.EvaluateContext and the hafi
// campaign engines pay exactly one pointer check per event when no
// registry is attached. The per-phase benchmark suite (bench_test.go)
// runs with instrumentation disabled and guards that budget.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain counters from a Registry. All methods are safe on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be non-negative for Prometheus semantics; this is not
// enforced on the hot path).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. All methods are safe on a nil
// receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Bucket bounds are upper
// inclusive limits in ascending order; an implicit +Inf bucket catches the
// rest. All methods are safe on a nil receiver.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, non-cumulative
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
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

// Count returns the number of samples (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all samples (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Buckets returns the bucket bounds and the per-bucket (non-cumulative)
// counts; the final count is the +Inf bucket.
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	if h == nil {
		return nil, nil
	}
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// Quantile estimates the q-th quantile (0 < q <= 1) from the bucket
// counts by linear interpolation inside the bucket the quantile falls
// into, the same estimate promQL's histogram_quantile computes. Samples
// in the +Inf bucket are attributed to the last finite bound (the
// histogram cannot resolve beyond it). Returns 0 on a nil receiver or an
// empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	bounds, counts := h.Buckets()
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(bounds) {
			// +Inf bucket: clamp to the largest finite bound.
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return bounds[len(bounds)-1]
}

// BucketQuantiles returns the conventional (p50, p95, p99) estimates
// shared by the Prometheus and JSON exporters. Zero-valued on a nil
// receiver or an empty histogram.
func (h *Histogram) BucketQuantiles() (p50, p95, p99 float64) {
	if h == nil || h.Count() == 0 {
		return 0, 0, 0
	}
	return h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
}

// LinearBuckets returns n bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns n bounds start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// timeSince is the wall-clock in seconds used for uptime accounting.
func timeSince(t time.Time) float64 { return time.Since(t).Seconds() }

// metricID is the registry key: metric name plus its label pairs in the
// order they were supplied.
type metricID struct {
	name   string
	labels string // "k1=v1,k2=v2" (already rendered)
}

func makeID(name string, labels []string) metricID {
	if len(labels) == 0 {
		return metricID{name: name}
	}
	var sb strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(labels[i])
		sb.WriteByte('=')
		sb.WriteString(labels[i+1])
	}
	return metricID{name: name, labels: sb.String()}
}

// String renders the id as name{k="v",...} (Prometheus style sans quotes
// handled by the exporters).
func (id metricID) String() string {
	if id.labels == "" {
		return id.name
	}
	return id.name + "{" + id.labels + "}"
}

// Registry holds every metric of one process. The zero value is unusable;
// create registries with NewRegistry. A nil *Registry is the disabled
// state: it hands out nil metric handles and exports nothing.
type Registry struct {
	mu         sync.Mutex
	counters   map[metricID]*Counter
	gauges     map[metricID]*Gauge
	histograms map[metricID]*Histogram
	spans      map[string]*spanStat
	start      time.Time
	// tracer, when attached, mirrors every span into a timeline file
	// (see AttachTracer). Published atomically so StartSpan never locks.
	tracer atomic.Pointer[tracerHolder]
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[metricID]*Counter{},
		gauges:     map[metricID]*Gauge{},
		histograms: map[metricID]*Histogram{},
		spans:      map[string]*spanStat{},
		start:      time.Now(),
	}
}

// Counter returns (creating on first use) the counter with the given name
// and label pairs ("key", "value", ...). Returns nil on a nil registry.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.counter(makeID(name, labels))
}

func (r *Registry) counter(id metricID) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[id]
	if !ok {
		c = &Counter{}
		r.counters[id] = c
	}
	return c
}

// Gauge returns (creating on first use) the gauge with the given name and
// label pairs. Returns nil on a nil registry.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	id := makeID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[id]
	if !ok {
		g = &Gauge{}
		r.gauges[id] = g
	}
	return g
}

// Histogram returns (creating on first use) the histogram with the given
// name, bucket bounds and label pairs. The bounds of the first creation
// win; later calls may pass nil bounds. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	id := makeID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[id]
	if !ok {
		h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		r.histograms[id] = h
	}
	return h
}
