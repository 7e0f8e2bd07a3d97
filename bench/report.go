package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
)

// report is what -out writes and -compare reads: one invocation's results
// for every workload it ran.
type report struct {
	Machine   machineInfo       `json:"machine"`
	Seed      int64             `json:"seed"`
	Scale     string            `json:"scale"`
	Workloads []*workloadReport `json:"workloads"`
}

func (rp *report) correct() bool {
	for _, w := range rp.Workloads {
		if !w.correct() {
			return false
		}
	}
	return true
}

// merge folds the per-layer half of a workload's results into its
// end-to-end half, so a full run has one entry per workload.
func (r *workloadReport) merge(layers *workloadReport) {
	r.Attempted += layers.Attempted
	r.Failed += layers.Failed
	r.Failures = append(r.Failures, layers.Failures...)
	r.PerLayer = layers.PerLayer
	r.TraceFile = layers.TraceFile
	if r.FaultListHash != layers.FaultListHash || r.Stats != layers.Stats || r.JournalDigest != layers.JournalDigest {
		r.fail(r.Stats.Points, "the traced run's reference rep (%s, %+v, %s) differs from the timed run's (%s, %+v, %s)",
			layers.FaultListHash, layers.Stats, layers.JournalDigest, r.FaultListHash, r.Stats, r.JournalDigest)
	}
}

// print writes every metric by name with its unit, the exact simulated
// statistics and the outcome of the correctness checks.
func (r *workloadReport) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  seed=%d  faultlist_hash=%s  golden=%s\n", r.Workload, r.Seed, r.FaultListHash, r.GoldenSignature)
	fmt.Fprintf(w, "   journal_digest=%s\n   verdict_digest=%s\n", r.JournalDigest, r.VerdictDigest)
	s := r.Stats
	fmt.Fprintf(w, "   simulated: points=%d pruned=%d executed=%d converged=%d cycles_saved=%d benign=%d sdc=%d hang=%d harness_errors=%d mate_hits=%d replayed=%d\n",
		s.Points, s.Pruned, s.Executed, s.Converged, s.CyclesSaved, s.Benign, s.SDC, s.Hang, s.HarnessErr, s.PrunedHits, s.Replayed)
	printMetrics(w, "end to end", r.EndToEnd)
	printMetrics(w, "per layer", r.PerLayer)
	if r.TraceFile != "" {
		fmt.Fprintf(w, "   trace: %s\n", r.TraceFile)
	}
	verdict := "PASS"
	if !r.correct() {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "   checks: %s  attempted=%d failed=%d\n", verdict, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
}

func printMetrics(w io.Writer, title string, ms []metric) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(w, "   -- %s\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "   %-28s %16.6g %-9s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			lo, hi := minMax(m.Samples)
			fmt.Fprintf(w, " median of n=%d (min %.6g, max %.6g)", m.N, lo, hi)
		}
		fmt.Fprintln(w)
	}
}

// driverLine is the last line of a driver run: the contract's result object.
func driverLine(r *workloadReport, ms []metric, defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	byName := map[string]metric{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	for _, d := range defs {
		metrics[d.name] = value{Value: byName[d.name].Value, Unit: d.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
}

func writeReport(path string, rp *report) error {
	data, err := json.MarshalIndent(rp, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rp report
	if err := json.Unmarshal(data, &rp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rp, nil
}

// compare is the agreement check between two reports of the same seed: one
// row per workload and end-to-end metric with both medians, how much worse B
// is than A as a share of A, the bound, and a verdict. A bounded metric
// whose reps spread wider than its bound on either side is unresolved, not
// agreed. Exact metrics, digests and the simulated statistics must be
// identical. It returns false when any row differs.
func compare(w io.Writer, a, b *report) bool {
	ok := true
	if a.Seed != b.Seed || a.Scale != b.Scale {
		fmt.Fprintf(w, "differ: seed/scale %d/%s vs %d/%s — exact comparisons need one seed\n", a.Seed, a.Scale, b.Seed, b.Scale)
		ok = false
	}
	defs := append(append([]metricDef(nil), endToEndDefs...), exactDefs...)
	fmt.Fprintf(w, "%-30s %-22s %14s %14s %8s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for _, cand := range b.Workloads {
			if cand.Workload == wa.Workload {
				wb = cand
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-30s missing from B: differ\n", wa.Workload)
			ok = false
			continue
		}
		for _, d := range defs {
			ma, mb := findMetric(wa.EndToEnd, d.name), findMetric(wb.EndToEnd, d.name)
			if ma == nil || mb == nil {
				fmt.Fprintf(w, "%-30s %-22s missing on one side: differ\n", wa.Workload, d.name)
				ok = false
				continue
			}
			worse := worsening(d, ma.Value, mb.Value)
			verdict := "agree"
			switch {
			case d.exact:
				if ma.Value != mb.Value {
					verdict = "differ"
				}
			case math.Abs(worse) > d.bound:
				// Either direction: two runs of one commit must coincide.
				verdict = "differ"
			case spread(ma) > d.bound || spread(mb) > d.bound:
				verdict = "unresolved"
			}
			if verdict == "differ" {
				ok = false
			}
			bound := fmt.Sprintf("%.1f%%", 100*d.bound)
			if d.exact {
				bound = "exact"
			}
			fmt.Fprintf(w, "%-30s %-22s %14.6g %14.6g %+7.2f%% %7s  %s\n", wa.Workload, d.name, ma.Value, mb.Value, 100*worse, bound, verdict)
		}
		same := reflect.DeepEqual(wa.Stats, wb.Stats) && wa.FaultListHash == wb.FaultListHash &&
			wa.GoldenSignature == wb.GoldenSignature && wa.JournalDigest == wb.JournalDigest && wa.VerdictDigest == wb.VerdictDigest
		verdict := "agree"
		if !same {
			verdict = "differ"
			ok = false
		}
		fmt.Fprintf(w, "%-30s %-22s %62s  %s\n", wa.Workload, "simulated statistics", "hashes, digests and counts: exact", verdict)
	}
	return ok
}

func findMetric(ms []metric, name string) *metric {
	for i := range ms {
		if ms[i].Name == name {
			return &ms[i]
		}
	}
	return nil
}

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction (negative when b is better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// spread is the distance between the quartiles of a metric's samples as a
// share of their median; 0 for a metric reported without enough samples.
func spread(m *metric) float64 {
	if len(m.Samples) < 2 || m.Value == 0 {
		return 0
	}
	q1, q3 := quartiles(m.Samples)
	return (q3 - q1) / m.Value
}
