package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// snapshot is a point-in-time copy of a registry, used by both exporters so
// they agree on ordering and never hold the registry lock while writing.
type snapshot struct {
	counters   []kv
	gauges     []kv
	histograms []histEntry
	spans      []spanEntry
	uptime     float64
}

type kv struct {
	id metricID
	v  int64
}

type histEntry struct {
	id            metricID
	bounds        []float64
	counts        []int64
	count         int64
	sum           float64
	p50, p95, p99 float64
}

type spanEntry struct {
	path    string
	count   int64
	seconds float64
}

func (r *Registry) snap() *snapshot {
	s := &snapshot{}
	r.mu.Lock()
	for id, c := range r.counters {
		s.counters = append(s.counters, kv{id, c.Value()})
	}
	for id, g := range r.gauges {
		s.gauges = append(s.gauges, kv{id, g.Value()})
	}
	for id, h := range r.histograms {
		bounds, counts := h.Buckets()
		p50, p95, p99 := h.BucketQuantiles()
		s.histograms = append(s.histograms, histEntry{id, bounds, counts, h.Count(), h.Sum(), p50, p95, p99})
	}
	for path, st := range r.spans {
		s.spans = append(s.spans, spanEntry{path, st.count.Load(), float64(st.nanos.Load()) / 1e9})
	}
	s.uptime = timeSince(r.start)
	r.mu.Unlock()

	sort.Slice(s.counters, func(i, j int) bool { return lessID(s.counters[i].id, s.counters[j].id) })
	sort.Slice(s.gauges, func(i, j int) bool { return lessID(s.gauges[i].id, s.gauges[j].id) })
	sort.Slice(s.histograms, func(i, j int) bool { return lessID(s.histograms[i].id, s.histograms[j].id) })
	sort.Slice(s.spans, func(i, j int) bool { return s.spans[i].path < s.spans[j].path })
	return s
}

func lessID(a, b metricID) bool {
	if a.name != b.name {
		return a.name < b.name
	}
	return a.labels < b.labels
}

// promLabels renders "k1=v1,k2=v2" as `{k1="v1",k2="v2"}`.
func promLabels(labels string, extra ...string) string {
	var parts []string
	if labels != "" {
		for _, p := range strings.Split(labels, ",") {
			k, v, _ := strings.Cut(p, "=")
			parts = append(parts, fmt.Sprintf("%s=%q", k, v))
		}
	}
	for i := 0; i+1 < len(extra); i += 2 {
		parts = append(parts, fmt.Sprintf("%s=%q", extra[i], extra[i+1]))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus emits every metric of the registry in the Prometheus
// text exposition format. A nil registry writes nothing.
func WritePrometheus(w io.Writer, r *Registry) error {
	if r == nil {
		return nil
	}
	s := r.snap()
	var b strings.Builder

	typed := map[string]bool{}
	typeLine := func(name, kind string) {
		if !typed[name] {
			fmt.Fprintf(&b, "# TYPE %s %s\n", name, kind)
			typed[name] = true
		}
	}

	fmt.Fprintf(&b, "# TYPE process_uptime_seconds gauge\nprocess_uptime_seconds %g\n", s.uptime)
	for _, c := range s.counters {
		typeLine(c.id.name, "counter")
		fmt.Fprintf(&b, "%s%s %d\n", c.id.name, promLabels(c.id.labels), c.v)
	}
	for _, g := range s.gauges {
		typeLine(g.id.name, "gauge")
		fmt.Fprintf(&b, "%s%s %d\n", g.id.name, promLabels(g.id.labels), g.v)
	}
	for _, h := range s.histograms {
		typeLine(h.id.name, "histogram")
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i]
			fmt.Fprintf(&b, "%s_bucket%s %d\n", h.id.name, promLabels(h.id.labels, "le", trimFloat(bound)), cum)
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", h.id.name, promLabels(h.id.labels, "le", "+Inf"), h.count)
		fmt.Fprintf(&b, "%s_sum%s %g\n", h.id.name, promLabels(h.id.labels), h.sum)
		fmt.Fprintf(&b, "%s_count%s %d\n", h.id.name, promLabels(h.id.labels), h.count)
	}
	// Bucket-interpolated quantile estimates as a companion gauge, so a
	// dashboard without recording rules still gets p50/p95/p99 lines.
	for _, h := range s.histograms {
		if h.count == 0 {
			continue
		}
		typeLine(h.id.name+"_quantile", "gauge")
		for _, q := range [...]struct {
			label string
			v     float64
		}{{"0.5", h.p50}, {"0.95", h.p95}, {"0.99", h.p99}} {
			fmt.Fprintf(&b, "%s_quantile%s %g\n", h.id.name, promLabels(h.id.labels, "quantile", q.label), q.v)
		}
	}
	for _, sp := range s.spans {
		typeLine("span_seconds_total", "counter")
		fmt.Fprintf(&b, "span_seconds_total%s %g\n", promLabels("", "span", sp.path), sp.seconds)
	}
	for _, sp := range s.spans {
		typeLine("span_runs_total", "counter")
		fmt.Fprintf(&b, "span_runs_total%s %d\n", promLabels("", "span", sp.path), sp.count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", f), "0"), ".")
}

// Stats is the one stats document of a registry: the -stats-json dump,
// the campaign slice a fleet worker's heartbeat carries, and the counter
// map the coordinator's /status serves. Metric keys are name{k=v,...}
// (labels in registration order), as Counter and friends were called.
type Stats struct {
	UptimeSeconds float64                   `json:"uptime_seconds"`
	Counters      map[string]int64          `json:"counters"`
	Gauges        map[string]int64          `json:"gauges"`
	Histograms    map[string]StatsHistogram `json:"histograms"`
	Spans         map[string]StatsSpan      `json:"spans"`
}

// StatsHistogram is one histogram of a Stats document. P50/P95/P99 are
// the bucket-interpolated quantile estimates (Histogram.Quantile), zero
// when the histogram is empty.
type StatsHistogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
}

// StatsSpan is one span path of a Stats document.
type StatsSpan struct {
	Runs    int64   `json:"runs"`
	Seconds float64 `json:"seconds"`
}

// Stats snapshots every metric and span of the registry (nil on a nil
// registry).
func (r *Registry) Stats() *Stats {
	if r == nil {
		return nil
	}
	s := r.snap()
	doc := &Stats{
		UptimeSeconds: s.uptime,
		Counters:      make(map[string]int64, len(s.counters)),
		Gauges:        make(map[string]int64, len(s.gauges)),
		Histograms:    make(map[string]StatsHistogram, len(s.histograms)),
		Spans:         make(map[string]StatsSpan, len(s.spans)),
	}
	for _, c := range s.counters {
		doc.Counters[c.id.String()] = c.v
	}
	for _, g := range s.gauges {
		doc.Gauges[g.id.String()] = g.v
	}
	for _, h := range s.histograms {
		doc.Histograms[h.id.String()] = StatsHistogram{
			Bounds: h.bounds, Counts: h.counts, Count: h.count, Sum: h.sum,
			P50: h.p50, P95: h.p95, P99: h.p99,
		}
	}
	for _, sp := range s.spans {
		doc.Spans[sp.path] = StatsSpan{Runs: sp.count, Seconds: sp.seconds}
	}
	return doc
}

// AddCounter adds n to the counter a Stats document lists under key
// (name or name{k=v,...}), creating it on first use. No-op on a nil
// registry.
func (r *Registry) AddCounter(key string, n int64) {
	if r == nil {
		return
	}
	id := metricID{name: key}
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		id = metricID{name: key[:i], labels: key[i+1 : len(key)-1]}
	}
	r.counter(id).Add(n)
}

// LabeledCounters collects the counters of one labeled metric family:
// keys like `name{label=value}` are returned as value → count, sorted
// iteration left to the caller. An unlabeled counter named exactly name is
// ignored — it is the family total, not a member.
func (s *Stats) LabeledCounters(name, label string) map[string]int64 {
	if s == nil {
		return nil
	}
	prefix := name + "{" + label + "="
	var out map[string]int64
	for key, v := range s.Counters {
		if !strings.HasPrefix(key, prefix) || !strings.HasSuffix(key, "}") {
			continue
		}
		if out == nil {
			out = make(map[string]int64)
		}
		out[strings.TrimSuffix(strings.TrimPrefix(key, prefix), "}")] = v
	}
	return out
}

// WriteJSON emits the registry's Stats document (the -stats-json
// end-of-run dump). A nil registry writes "{}".
func WriteJSON(w io.Writer, r *Registry) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Stats())
}
