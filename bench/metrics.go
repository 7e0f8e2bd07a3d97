package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions; bench_test.go keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening as a share of the baseline
	exact  bool    // -compare demands identity, not a bound
}

// endToEndDefs are the metrics a --trace 0 run prints for the driver. They
// are never zero on any workload.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "campaign_s", unit: "s", better: "lower", bound: 0.15},
	{name: "points_per_s", unit: "points/s", better: "higher", bound: 0.15},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.03},
	{name: "executed_fraction", unit: "ratio", better: "lower", bound: 0.05},
}

// exactDefs complete the end-to-end set in the report and under -compare.
// They can be zero (pruned_fraction is, by design, on the intermittent
// workload; failed_share is everywhere), which a relative bound cannot
// express, so the driver sees them as executed_fraction, failed/attempted
// and correct instead.
var exactDefs = []metricDef{
	{name: "pruned_fraction", unit: "ratio", better: "higher", exact: true},
	{name: "failed_share", unit: "ratio", better: "lower", exact: true},
	{name: "verdict_digest_stable", unit: "0/1", better: "higher", exact: true},
}

// perLayerDefs are the metrics a --trace 1 run prints. A metric that does
// not apply to a workload (fleet.* outside the fleet workload, say) is 0.
var perLayerDefs = []metricDef{
	{name: "cpu.core_build_s", unit: "s", better: "lower"},
	{name: "lint.preflight_s", unit: "s", better: "lower"},
	{name: "hafi.golden_scalar_s", unit: "s", better: "lower"},
	{name: "core.search_s", unit: "s", better: "lower"},
	{name: "hafi.faultlist_s", unit: "s", better: "lower"},
	{name: "hafi.device_build_s", unit: "s", better: "lower"},
	{name: "hafi.golden_wide_s", unit: "s", better: "lower"},
	{name: "core.mates", unit: "count", better: "higher"},
	{name: "hafi.campaign_traced_s", unit: "s", better: "lower"},
	{name: "hafi.batches", unit: "count", better: "lower"},
	{name: "hafi.lane_occupancy", unit: "ratio", better: "higher"},
	{name: "cpu.step_s", unit: "s", better: "lower"},
	{name: "cpu.steps", unit: "count", better: "lower"},
	{name: "cpu.steps.g1", unit: "count", better: "lower"},
	{name: "cpu.steps.g2", unit: "count", better: "lower"},
	{name: "cpu.steps.g3", unit: "count", better: "lower"},
	{name: "cpu.steps.g4", unit: "count", better: "lower"},
	{name: "cpu.lane_cycles", unit: "count", better: "lower"},
	{name: "sim.eval_ns.g4", unit: "ns", better: "lower"},
	{name: "sim.eval_ns.g1", unit: "ns", better: "lower"},
	{name: "sim.commit_ns.g4", unit: "ns", better: "lower"},
	{name: "sim.gate_evals_per_s", unit: "1/s", better: "higher"},
	{name: "cpu.env_ns.g4", unit: "ns", better: "lower"},
	{name: "cpu.envcone_ns.g4", unit: "ns", better: "lower"},
	{name: "sim.gather_ns", unit: "ns", better: "lower"},
	{name: "sim.scatter_ns", unit: "ns", better: "lower"},
	{name: "cpu.step_model_error", unit: "ratio", better: "lower"},
	{name: "sim.delta_step_s", unit: "s", better: "lower"},
	{name: "sim.delta_steps", unit: "count", better: "higher"},
	{name: "sim.delta_share", unit: "ratio", better: "higher"},
	{name: "cpu.load_checkpoint_s", unit: "s", better: "lower"},
	{name: "cpu.load_checkpoints", unit: "count", better: "lower"},
	{name: "sim.compact_s", unit: "s", better: "lower"},
	{name: "sim.compactions", unit: "count", better: "lower"},
	{name: "cpu.export_lane_s", unit: "s", better: "lower"},
	{name: "cpu.import_lane_s", unit: "s", better: "lower"},
	{name: "hafi.straggler_lanes", unit: "count", better: "lower"},
	{name: "hafi.self_s", unit: "s", better: "lower"},
	{name: "hafi.signature_s", unit: "s", better: "lower"},
	{name: "hafi.flip_calls", unit: "count", better: "lower"},
	{name: "hafi.converged_share", unit: "ratio", better: "higher"},
	{name: "hafi.cycles_saved", unit: "count", better: "higher"},
	{name: "journal.append_ns", unit: "ns", better: "lower"},
	{name: "journal.bytes", unit: "count", better: "lower"},
	{name: "journal.recover_s", unit: "s", better: "lower"},
	{name: "journal.resume_replay_s", unit: "s", better: "lower"},
	{name: "journal.merge_s", unit: "s", better: "lower"},
	{name: "fleet.lease_rpc_s", unit: "s", better: "lower"},
	{name: "fleet.lease_rpcs", unit: "count", better: "lower"},
	{name: "fleet.heartbeat_rpcs", unit: "count", better: "lower"},
	{name: "fleet.complete_rpc_s", unit: "s", better: "lower"},
	{name: "fleet.shard_run_s", unit: "s", better: "lower"},
	{name: "fleet.worker_idle_s", unit: "s", better: "lower"},
	{name: "fleet.single_process_s", unit: "s", better: "lower"},
	{name: "fleet.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "obs.on_campaign_s", unit: "s", better: "lower"},
	{name: "obs.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "bench.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "bench.gc_cycles", unit: "count", better: "lower"},
}

// metric is one measured value. Timings over several reps carry the rep
// count and the samples, so -compare can tell a difference from spread.
type metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	N       int       `json:"n,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// metricSet holds one run's values for a fixed list of definitions, in
// definition order. Setting a name outside the list is a bug in this
// package and panics, which is what keeps the emitted names and
// BENCHMARK.json from drifting apart.
type metricSet struct {
	defs []metricDef
	vals map[string]metric
}

func newMetricSet(defs ...[]metricDef) *metricSet {
	ms := &metricSet{vals: map[string]metric{}}
	for _, d := range defs {
		ms.defs = append(ms.defs, d...)
	}
	return ms
}

func (ms *metricSet) set(name string, v float64) { ms.setSamples(name, v, nil) }

// setSamples records a median together with the samples behind it.
func (ms *metricSet) setSamples(name string, v float64, samples []float64) {
	for _, d := range ms.defs {
		if d.name == name {
			ms.vals[name] = metric{Name: name, Unit: d.unit, Value: v, N: len(samples), Samples: samples}
			return
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not defined", name))
}

// list returns every defined metric in definition order; unset ones are 0.
func (ms *metricSet) list() []metric {
	out := make([]metric, 0, len(ms.defs))
	for _, d := range ms.defs {
		m, ok := ms.vals[d.name]
		if !ok {
			m = metric{Name: d.name, Unit: d.unit}
		}
		out = append(out, m)
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the acceptance procedure computes spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
