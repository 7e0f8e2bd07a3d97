package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/hafi"
)

// benchmarkJSON mirrors the contract's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func asJSONMetrics(defs []metricDef) []jsonMetric {
	var out []jsonMetric
	for _, d := range defs {
		out = append(out, jsonMetric{Name: d.name, Unit: d.unit, Better: d.better, Bound: d.bound})
	}
	return out
}

// BENCHMARK.json and the metric tables in metrics.go must list the same
// workloads and the same metrics with the same units, directions and
// bounds, and every name and unit must be one the contract accepts.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b := readBenchmarkJSON(t)
	if got, want := b.EndToEnd, asJSONMetrics(endToEndDefs); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end differs from endToEndDefs:\n got  %+v\n want %+v", got, want)
	}
	if got, want := b.PerLayer, asJSONMetrics(perLayerDefs); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer differs from perLayerDefs:\n got  %+v\n want %+v", got, want)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, b.Workloads[i].Name, w.name)
		}
		if n := len(b.Workloads[i].Why); n == 0 || n > 200 || strings.Contains(b.Workloads[i].Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.name, n)
		}
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEndDefs, exactDefs, perLayerDefs} {
		for _, d := range defs {
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("metric %q (unit %q) is outside the contract's character set", d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("metric %q is defined twice", d.name)
			}
			seen[d.name] = true
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("metric %q: better is %q", d.name, d.better)
			}
		}
	}
	setup := endToEndDefs[0]
	if setup.name != "setup_s" || setup.unit != "s" || setup.better != "lower" {
		t.Errorf("the contract wants setup_s in s, lower is better; have %+v", setup)
	}
	for _, d := range endToEndDefs {
		if d.bound <= 0 || d.bound > 0.25 || d.bound > setup.bound {
			t.Errorf("metric %q: bound %g must be in (0, 0.25] and no larger than setup_s's", d.name, d.bound)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", b.RunSeconds)
	}
}

// Seed 0 must reproduce the CLI's fault list exactly; other seeds shift the
// stride phase and nothing else.
func TestSeedSelectsStridePhase(t *testing.T) {
	wl, _ := findWorkload("avr-sort-intermittent-resume")
	fx, err := setUp(wl, 0, smokeScale.strideFactor, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := hafi.ParseModelSpec(wl.model)
	if err != nil {
		t.Fatal(err)
	}
	stride := wl.stride * smokeScale.strideFactor
	halt := fx.golden.HaltCycle
	cli := hafi.ModelFaultList(fx.target.NL, halt, stride, spec)
	if !reflect.DeepEqual(fx.points, cli) {
		t.Fatal("seed 0 does not reproduce hafi.ModelFaultList")
	}
	if got := faultList(fx.target, halt, stride, spec, int64(stride)); !reflect.DeepEqual(got, cli) {
		t.Error("a seed of one whole stride is not the same list as seed 0")
	}
	shifted := faultList(fx.target, halt, stride, spec, 7)
	if hafi.FaultListHash(shifted) == hafi.FaultListHash(cli) {
		t.Error("seeds 0 and 7 give the same fault-list hash")
	}
	for i, p := range shifted {
		if p.Cycle%stride != 7 || p.Cycle >= halt {
			t.Fatalf("point %d of seed 7 sits at cycle %d (stride %d, halt %d)", i, p.Cycle, stride, halt)
		}
		if i > 0 && p.Cycle < shifted[i-1].Cycle {
			t.Fatalf("seed 7 is not cycle-major at point %d", i)
		}
	}
}

// The smoke mode runs every workload through both halves. The two halves
// set up and run independently at one seed, so merge's identity check on
// fault-list hash, simulated statistics and journal digest is the
// repeatability check; on top of it every correctness check must pass and
// the emitted metric names must be exactly the defined ones.
func TestSmokeRunIsCorrectAndRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four small campaigns twice")
	}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			r, err := runEndToEnd(wl, 3, smokeScale, 0, dir)
			if err != nil {
				t.Fatal(err)
			}
			layers, err := runLayers(wl, 3, smokeScale, dir, filepath.Join(dir, "out"))
			if err != nil {
				t.Fatal(err)
			}
			r.merge(layers)
			if !r.correct() {
				t.Fatalf("correctness checks failed: %v", r.Failures)
			}
			if r.JournalDigest == "" || r.VerdictDigest == "" || r.Stats.Points == 0 {
				t.Errorf("incomplete identity: %+v", r)
			}
			checkNames(t, "end to end", r.EndToEnd, endToEndDefs, exactDefs)
			checkNames(t, "per layer", r.PerLayer, perLayerDefs)
			for _, m := range r.EndToEnd {
				if m.Value == 0 && m.Name != "pruned_fraction" && m.Name != "failed_share" {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}
			var tf traceFile
			data, err := os.ReadFile(r.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			ids := map[int]bool{0: true}
			for _, s := range tf.Spans {
				ids[s.ID] = true
			}
			for _, s := range tf.Spans {
				if !ids[s.Parent] || s.EndUS < s.StartUS {
					t.Fatalf("span %+v has no parent in the file or never ended", s)
				}
			}

			line, err := driverLine(r, r.EndToEnd, endToEndDefs)
			if err != nil {
				t.Fatal(err)
			}
			var obj map[string]json.RawMessage
			if err := json.Unmarshal(line, &obj); err != nil || len(obj) != 4 {
				t.Fatalf("driver line %s: want exactly correct, attempted, failed, metrics (%v)", line, err)
			}
		})
	}
}

func checkNames(t *testing.T, what string, got []metric, defs ...[]metricDef) {
	t.Helper()
	var want []string
	for _, ds := range defs {
		for _, d := range ds {
			want = append(want, d.name)
		}
	}
	var have []string
	for _, m := range got {
		have = append(have, m.Name)
	}
	if !reflect.DeepEqual(have, want) {
		t.Errorf("%s metrics emitted %v, defined %v", what, have, want)
	}
}

// The tracer must not be able to change a verdict: a campaign through
// tracedRunW writes the journal the bare device writes, on both cores, here
// at 64 lanes. At 256 lanes the smoke run above holds every workload's traced
// rep to its untraced one, the fleet's handler middleware and Runner
// decorator included.
func TestTracerIsTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four small campaigns")
	}
	const lanes = 64
	for _, name := range []string{"avr-sort-intermittent-resume", "msp430-conv-seu"} {
		wl, _ := findWorkload(name)
		fx, err := setUp(wl, 5, smokeScale.strideFactor, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		dev, err := fx.target.NewRunW(lanes)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		bare, err := fx.runCampaign(repOpts{runs: []hafi.RunW{dev}, journal: filepath.Join(dir, "bare.journal")})
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		traced, err := trace(dev, rec)
		if err != nil {
			t.Fatal(err)
		}
		via, err := fx.runCampaign(repOpts{runs: []hafi.RunW{traced}, rec: rec, journal: filepath.Join(dir, "traced.journal")})
		if err != nil {
			t.Fatal(err)
		}
		if via.journal.raw != bare.journal.raw || via.stats != bare.stats {
			t.Errorf("%s: traced run %s %+v, bare run %s %+v", name, via.journal.raw, via.stats, bare.journal.raw, bare.stats)
		}
		if n, _ := traced.calls.steps(); n == 0 || traced.calls.batches == 0 {
			t.Errorf("%s: the tracer saw no device calls", name)
		}
		if _, n := rec.total(-1, "hafi.batch"); int64(n) != traced.calls.batches {
			t.Errorf("%s: %d batch spans for %d LoadCheckpoint calls", name, n, traced.calls.batches)
		}
	}
}

// A device without the optional capabilities cannot be wrapped: the wrapper
// would answer the engine's type assertions differently from the device.
func TestTracerRefusesPartialDevice(t *testing.T) {
	wl, _ := findWorkload("avr-fib-seu")
	fx, err := setUp(wl, 0, smokeScale.strideFactor, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	type bare struct{ hafi.RunW } // hides every optional capability
	if _, err := trace(bare{fx.runs[0]}, nil); err == nil {
		t.Error("trace wrapped a device that has none of the optional capabilities")
	}
	var dev hafi.RunW = fx.runs[0]
	tr, err := trace(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wrapped hafi.RunW = tr
	_, d1 := dev.(hafi.DeltaRunW)
	_, d2 := wrapped.(hafi.DeltaRunW)
	_, c1 := dev.(hafi.CompactRunW)
	_, c2 := wrapped.(hafi.CompactRunW)
	_, s1 := dev.(hafi.SuspendRunW)
	_, s2 := wrapped.(hafi.SuspendRunW)
	_, g1 := dev.(hafi.GoldenRunW)
	_, g2 := wrapped.(hafi.GoldenRunW)
	if d1 != d2 || c1 != c2 || s1 != s2 || g1 != g2 {
		t.Errorf("capabilities differ: device %v %v %v %v, tracer %v %v %v %v", d1, c1, s1, g1, d2, c2, s2, g2)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(campaign []float64, pruned float64, points int64) *report {
		ms := newMetricSet(endToEndDefs, exactDefs)
		ms.setSamples("setup_s", 0.15, []float64{0.15, 0.15, 0.15})
		ms.setSamples("campaign_s", median(campaign), campaign)
		ms.set("points_per_s", float64(points)/median(campaign))
		ms.set("alloc_mb", 13.4)
		ms.set("executed_fraction", 1-pruned)
		ms.set("pruned_fraction", pruned)
		ms.set("verdict_digest_stable", 1)
		return &report{Scale: "full", Workloads: []*workloadReport{{
			Workload: "avr-fib-seu", Stats: simStats{Points: points}, EndToEnd: ms.list(),
		}}}
	}
	steady := []float64{3.00, 3.01, 3.02, 3.03, 3.04}
	verdictOf := func(a, b *report, metric string) string {
		var buf bytes.Buffer
		compare(&buf, a, b)
		for _, line := range strings.Split(buf.String(), "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[1] == metric {
				return f[len(f)-1]
			}
		}
		t.Fatalf("no row for %s in\n%s", metric, buf.String())
		return ""
	}

	var buf bytes.Buffer
	if !compare(&buf, mk(steady, 0.05, 20295), mk([]float64{3.05, 3.06, 3.07, 3.08, 3.09}, 0.05, 20295)) {
		t.Errorf("runs 1.7%% apart must agree:\n%s", buf.String())
	}
	slow := mk([]float64{3.60, 3.61, 3.62, 3.63, 3.64}, 0.05, 20295)
	if got := verdictOf(mk(steady, 0.05, 20295), slow, "campaign_s"); got != "differ" {
		t.Errorf("campaign_s 20%% apart: verdict %q, want differ", got)
	}
	if compare(&buf, mk(steady, 0.05, 20295), slow) {
		t.Error("compare passed runs whose campaign_s differ by 20%")
	}
	noisy := mk([]float64{2.4, 2.7, 3.02, 3.4, 3.7}, 0.05, 20295)
	if got := verdictOf(mk(steady, 0.05, 20295), noisy, "campaign_s"); got != "unresolved" {
		t.Errorf("campaign_s with a 33%% spread: verdict %q, want unresolved", got)
	}
	if got := verdictOf(mk(steady, 0.05, 20295), mk(steady, 0.0501, 20295), "pruned_fraction"); got != "differ" {
		t.Errorf("pruned_fraction off by 1e-4: verdict %q, want differ (exact metric)", got)
	}
	if compare(&buf, mk(steady, 0.05, 20295), mk(steady, 0.05, 20296)) {
		t.Error("compare passed runs whose simulated statistics differ")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{3.1, 2.9, 3.4, 3.0, 3.2, 3.3, 2.8, 3.6, 3.5, 3.05})
	if d1, d3 := q1-2.975, q3-3.425; d1*d1+d3*d3 > 1e-18 {
		t.Errorf("quartiles = %v, %v; Python gives 2.975, 3.425", q1, q3)
	}
}
