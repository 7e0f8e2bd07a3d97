package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", LinearBuckets(1, 1, 4))
	s := r.StartSpan("s")
	c.Inc()
	c.Add(5)
	g.Set(7)
	g.Add(-2)
	h.Observe(3)
	s.Start("child").End()
	s.End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must stay zero")
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, nil); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry prometheus export: %q, %v", buf.String(), err)
	}
	buf.Reset()
	if err := WriteJSON(&buf, nil); err != nil || strings.TrimSpace(buf.String()) != "{}" {
		t.Fatalf("nil registry JSON export: %q, %v", buf.String(), err)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("injections_total")
	c.Inc()
	c.Add(9)
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	if r.Counter("injections_total") != c {
		t.Fatal("same name must return the same counter")
	}
	lc := r.Counter("outcomes_total", "outcome", "sdc")
	lc.Inc()
	if r.Counter("outcomes_total", "outcome", "benign") == lc {
		t.Fatal("different labels must be different counters")
	}

	g := r.Gauge("workers")
	g.Set(8)
	g.Add(-3)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}

	h := r.Histogram("lanes", []float64{1, 8, 64})
	for _, v := range []float64{1, 2, 64, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("hist count = %d, want 4", h.Count())
	}
	if h.Sum() != 167 {
		t.Fatalf("hist sum = %g, want 167", h.Sum())
	}
	_, counts := h.Buckets()
	want := []int64{1, 1, 1, 1} // le1, le8, le64, +Inf
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, counts[i], w, counts)
		}
	}
}

func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("n")
			h := r.Histogram("h", ExpBuckets(1, 2, 8))
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 7))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestSpanHierarchy(t *testing.T) {
	r := NewRegistry()
	parent := r.StartSpan("campaign")
	child := parent.Start("golden")
	time.Sleep(2 * time.Millisecond)
	if child.End() <= 0 {
		t.Fatal("child span must measure time")
	}
	parent.End()

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`span_seconds_total{span="campaign"}`,
		`span_seconds_total{span="campaign/golden"}`,
		`span_runs_total{span="campaign/golden"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Counter("outcomes_total", "outcome", "sdc").Add(2)
	r.Gauge("points").Set(42)
	h := r.Histogram("lanes", []float64{1, 2})
	h.Observe(1)
	h.Observe(5)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE a_total counter\na_total 3\n",
		`outcomes_total{outcome="sdc"} 2`,
		"# TYPE points gauge\npoints 42\n",
		`lanes_bucket{le="1"} 1`,
		`lanes_bucket{le="2"} 1`, // cumulative: nothing in (1,2]
		`lanes_bucket{le="+Inf"} 2`,
		"lanes_sum 6",
		"lanes_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("n").Add(5)
	r.Gauge("g", "cpu", "avr").Set(1)
	r.Histogram("h", []float64{10}).Observe(3)
	sp := r.StartSpan("search")
	sp.End()

	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	var doc Stats
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.Counters["n"] != 5 {
		t.Fatalf("counters = %v", doc.Counters)
	}
	if doc.Gauges["g{cpu=avr}"] != 1 {
		t.Fatalf("gauges = %v", doc.Gauges)
	}
	if doc.Histograms["h"].Count != 1 {
		t.Fatalf("histograms = %v", doc.Histograms)
	}
	if doc.Spans["search"].Runs != 1 {
		t.Fatalf("spans = %v", doc.Spans)
	}
}

// TestStatsRoundTrip: the -stats-json dump decodes into exactly the
// document Stats returns — labeled counter keys, gauges, histogram
// buckets, sum and quantiles, and spans — so every reader of a dump sees
// what the registry held.
func TestStatsRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("campaign_held_total").Add(7)
	r.Counter("campaign_mate_pruned_total", "mate", "3", "width", "2").Add(11)
	r.Gauge("campaign_lanes").Set(256)
	h := r.Histogram("campaign_batch_seconds", ExpBuckets(1e-4, 2, 16))
	for _, v := range []float64{0.0003, 0.002, 0.002, 0.05, 9} {
		h.Observe(v)
	}
	r.Histogram("empty", nil)
	sp := r.StartSpan("campaign")
	sp.Start("batch").End()
	sp.End()

	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	var got Stats
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	want := r.Stats()
	if got.UptimeSeconds <= 0 || got.UptimeSeconds > want.UptimeSeconds {
		t.Fatalf("uptime %v, want in (0, %v]", got.UptimeSeconds, want.UptimeSeconds)
	}
	got.UptimeSeconds, want.UptimeSeconds = 0, 0
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("decoded dump differs from Stats():\n got %+v\nwant %+v", got, *want)
	}
	if got.Counters["campaign_mate_pruned_total{mate=3,width=2}"] != 11 ||
		got.Histograms["campaign_batch_seconds"].P99 == 0 || got.Spans["campaign/batch"].Runs != 1 {
		t.Fatalf("document misses a metric: %+v", got)
	}

	// AddCounter reaches the counter its document key names.
	r.AddCounter("campaign_mate_pruned_total{mate=3,width=2}", 4)
	r.AddCounter("campaign_held_total", 1)
	if n := r.Counter("campaign_mate_pruned_total", "mate", "3", "width", "2").Value(); n != 15 {
		t.Fatalf("labeled AddCounter: %d, want 15", n)
	}
	if n := r.Counter("campaign_held_total").Value(); n != 8 {
		t.Fatalf("AddCounter: %d, want 8", n)
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("campaign_injections_total").Add(7)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "campaign_injections_total 7") {
		t.Fatalf("metrics endpoint output:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); len(out) == 0 {
		t.Fatal("pprof cmdline endpoint returned nothing")
	}
}

func TestProgressReporter(t *testing.T) {
	r := NewRegistry()
	done := r.Counter("done")
	total := r.Gauge("total")
	masked := r.Counter("masked")
	lanes := r.Gauge("lanes")
	total.Set(100)
	done.Add(40)
	masked.Add(10)
	lanes.Set(256)

	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	stop := StartProgress(ProgressConfig{
		Label: "campaign", Unit: "points", Out: w,
		Interval: 10 * time.Millisecond,
		Done:     done, Total: total, Masked: masked, Lanes: lanes,
	})
	time.Sleep(35 * time.Millisecond)
	stop()
	stop() // idempotent

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "campaign: 40/100 points (40.0%)") {
		t.Fatalf("progress output missing status: %q", out)
	}
	if !strings.Contains(out, "masked 25.0%") {
		t.Fatalf("progress output missing masked rate: %q", out)
	}
	if !strings.Contains(out, "lanes 256") {
		t.Fatalf("progress output missing lane width: %q", out)
	}
}

// TestProgressLanesColumnAbsent: an unset lanes gauge (64-lane journals,
// older binaries) must leave the column out rather than print "lanes 0".
func TestProgressLanesColumnAbsent(t *testing.T) {
	r := NewRegistry()
	done := r.Counter("done")
	total := r.Gauge("total")
	total.Set(10)
	done.Add(5)
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	stop := StartProgress(ProgressConfig{
		Label: "campaign", Unit: "points", Out: w,
		Interval: 10 * time.Millisecond,
		Done:     done, Total: total, Lanes: r.Gauge("lanes"),
	})
	time.Sleep(15 * time.Millisecond)
	stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if strings.Contains(out, "lanes") {
		t.Fatalf("lanes column rendered with unset gauge: %q", out)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestCLIOptionsDisabled(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o := RegisterFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.Enabled() {
		t.Fatal("no flags set must mean disabled")
	}
	reg, cleanup, err := o.Init(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if reg != nil {
		t.Fatal("disabled Init must return a nil registry")
	}
	cleanup()
}

func TestCLIOptionsStatsJSON(t *testing.T) {
	path := t.TempDir() + "/stats.json"
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o := RegisterFlags(fs)
	if err := fs.Parse([]string{"-stats-json", path}); err != nil {
		t.Fatal(err)
	}
	var errw bytes.Buffer
	reg, cleanup, err := o.Init(&errw)
	if err != nil {
		t.Fatal(err)
	}
	if reg == nil {
		t.Fatal("stats-json must enable the registry")
	}
	reg.Counter("x_total").Add(3)
	cleanup()
	cleanup() // idempotent

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"x_total": 3`) {
		t.Fatalf("stats file: %s", data)
	}
}
