package fleet

import (
	"repro/internal/hafi"
	"repro/internal/obs"
)

// Telemetry is the compact telemetry snapshot a worker attaches to every
// heartbeat: cumulative worker-lifetime campaign counters plus the live
// progress of the currently leased shard. Cumulative (rather than
// per-interval) counters make folding idempotent under lost or reordered
// heartbeats — the coordinator differences consecutive snapshots per
// worker and folds only the delta, so a dropped heartbeat costs latency,
// never accuracy.
type Telemetry struct {
	// ShardDone counts points classified in the currently leased shard
	// (resets with each lease; the engine's Progress callback feeds it).
	ShardDone int64 `json:"shard_done"`
	// Done..Batches are worker-lifetime cumulative campaign counters.
	Done        int64 `json:"done"`
	Injections  int64 `json:"injections"`
	Pruned      int64 `json:"pruned"`
	Converged   int64 `json:"converged"`
	CyclesSaved int64 `json:"cycles_saved"`
	Batches     int64 `json:"batches"`
	// Batches counts finished device sweeps. LaneSum is the cumulative sum
	// of their mean busy-lane counts (the campaign_batch_lanes histogram
	// sum) and Lanes the worker's device width (the campaign_lanes gauge,
	// 0 before its first campaign), so LaneSum/(Lanes·Batches) is the
	// worker's mean lane occupancy in [0, 1].
	LaneSum float64 `json:"lane_sum"`
	Lanes   int64   `json:"lanes,omitempty"`
	// Outcomes is the cumulative executed-outcome histogram, keyed by
	// outcome name (benign, sdc, hang, harness-error).
	Outcomes map[string]int64 `json:"outcomes,omitempty"`
}

// sub returns the per-field difference cur - prev with every count
// clamped at zero: a worker that restarted under the same name resets
// its counters, and folding a negative delta would corrupt the fleet
// totals, so the post-restart snapshot simply becomes the new baseline.
func (t *Telemetry) sub(prev *Telemetry) Telemetry {
	d := Telemetry{
		Done:        clampDelta(t.Done, prev.Done),
		Injections:  clampDelta(t.Injections, prev.Injections),
		Pruned:      clampDelta(t.Pruned, prev.Pruned),
		Converged:   clampDelta(t.Converged, prev.Converged),
		CyclesSaved: clampDelta(t.CyclesSaved, prev.CyclesSaved),
		Batches:     clampDelta(t.Batches, prev.Batches),
	}
	if d.LaneSum = t.LaneSum - prev.LaneSum; d.LaneSum < 0 {
		d.LaneSum = 0
	}
	if len(t.Outcomes) > 0 {
		d.Outcomes = make(map[string]int64, len(t.Outcomes))
		for k, v := range t.Outcomes {
			d.Outcomes[k] = clampDelta(v, prev.Outcomes[k])
		}
	}
	return d
}

func clampDelta(cur, prev int64) int64 {
	if d := cur - prev; d > 0 {
		return d
	}
	return 0
}

// telemetrySampler reads the worker-lifetime campaign counters out of the
// worker's obs registry (the same campaign_* handles the engines update),
// so heartbeat telemetry needs no extra hot-path instrumentation at all.
// Nil when the worker runs without a registry — sampling then reports
// only the shard progress counter.
type telemetrySampler struct {
	done, executed, pruned     *obs.Counter
	converged, cycles, batches *obs.Counter
	lanes                      *obs.Histogram
	width                      *obs.Gauge
	outcomes                   map[string]*obs.Counter
}

func newTelemetrySampler(reg *obs.Registry) *telemetrySampler {
	if reg == nil {
		return nil
	}
	s := &telemetrySampler{
		done:      reg.Counter("campaign_points_done_total"),
		executed:  reg.Counter("campaign_injections_total"),
		pruned:    reg.Counter("campaign_pruned_total"),
		converged: reg.Counter("campaign_converged_total"),
		cycles:    reg.Counter("campaign_cycles_saved_total"),
		batches:   reg.Counter("campaign_batches_total"),
		lanes:     reg.Histogram("campaign_batch_lanes", nil),
		width:     reg.Gauge("campaign_lanes"),
		outcomes:  map[string]*obs.Counter{},
	}
	for o := hafi.OutcomeBenign; o <= hafi.OutcomeHarnessError; o++ {
		s.outcomes[o.String()] = reg.Counter("campaign_outcomes_total", "outcome", o.String())
	}
	return s
}

// sample snapshots the registry counters plus the live shard progress.
// Safe on a nil receiver (returns a shard-progress-only snapshot).
func (s *telemetrySampler) sample(shardDone int64) *Telemetry {
	t := &Telemetry{ShardDone: shardDone}
	if s == nil {
		return t
	}
	t.Done = s.done.Value()
	t.Injections = s.executed.Value()
	t.Pruned = s.pruned.Value()
	t.Converged = s.converged.Value()
	t.CyclesSaved = s.cycles.Value()
	t.Batches = s.batches.Value()
	t.LaneSum = s.lanes.Sum()
	t.Lanes = s.width.Value()
	t.Outcomes = make(map[string]int64, len(s.outcomes))
	for name, c := range s.outcomes {
		t.Outcomes[name] = c.Value()
	}
	return t
}
