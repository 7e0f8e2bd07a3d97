package hafi

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
)

// campaignMetrics bundles the campaign's observability handles, hoisted
// out of the experiment loops so instrumentation costs one pointer check
// per classified point when disabled (m == nil). Every method is safe on
// a nil receiver.
type campaignMetrics struct {
	done         *obs.Counter // campaign_points_done_total
	executed     *obs.Counter // campaign_injections_total
	pruned       *obs.Counter // campaign_pruned_total
	replayed     *obs.Counter // campaign_replayed_total
	skippedWrong *obs.Counter // campaign_skipped_wrong_total
	outcomes     [4]*obs.Counter
	batches      *obs.Counter   // campaign_batches_total
	lanes        *obs.Histogram // campaign_batch_lanes
	batchSecs    *obs.Histogram // campaign_batch_seconds
	expSecs      *obs.Histogram // campaign_experiment_seconds
	workers      *obs.Gauge     // campaign_workers
	workersBusy  *obs.Gauge     // campaign_workers_busy
	laneWidth    *obs.Gauge     // campaign_lanes
	converged    *obs.Counter   // campaign_converged_total
	cyclesSaved  *obs.Counter   // campaign_cycles_saved_total
	held         *obs.Counter   // campaign_held_total
	// reg backs the labeled per-MATE attribution counters, which cannot be
	// hoisted statically (one counter per MATE). mateCounters caches the
	// registry lookup per MATE index: crediting a pruned point is a hot
	// per-point operation and the label formatting plus registry lock were
	// measurable on heavily pruned campaigns.
	reg          *obs.Registry
	mateMu       sync.Mutex
	mateCounters map[int]*obs.Counter
}

func newCampaignMetrics(reg *obs.Registry, totalPoints int) *campaignMetrics {
	if reg == nil {
		return nil
	}
	reg.Gauge("campaign_points").Set(int64(totalPoints))
	m := &campaignMetrics{
		done:         reg.Counter("campaign_points_done_total"),
		executed:     reg.Counter("campaign_injections_total"),
		pruned:       reg.Counter("campaign_pruned_total"),
		replayed:     reg.Counter("campaign_replayed_total"),
		skippedWrong: reg.Counter("campaign_skipped_wrong_total"),
		batches:      reg.Counter("campaign_batches_total"),
		lanes:        reg.Histogram("campaign_batch_lanes", obs.LinearBuckets(32, 32, 8)),
		batchSecs:    reg.Histogram("campaign_batch_seconds", obs.ExpBuckets(1e-4, 2, 16)),
		expSecs:      reg.Histogram("campaign_experiment_seconds", obs.ExpBuckets(1e-6, 2, 18)),
		workers:      reg.Gauge("campaign_workers"),
		workersBusy:  reg.Gauge("campaign_workers_busy"),
		laneWidth:    reg.Gauge("campaign_lanes"),
		converged:    reg.Counter("campaign_converged_total"),
		cyclesSaved:  reg.Counter("campaign_cycles_saved_total"),
		held:         reg.Counter("campaign_held_total"),
		reg:          reg,
		mateCounters: map[int]*obs.Counter{},
	}
	for o := OutcomeBenign; o <= OutcomeHarnessError; o++ {
		m.outcomes[o] = reg.Counter("campaign_outcomes_total", "outcome", o.String())
	}
	return m
}

// point accounts one newly classified point (mirrors its journal record).
func (m *campaignMetrics) point(rec journal.Record) {
	if m == nil {
		return
	}
	m.done.Inc()
	if rec.Pruned {
		m.pruned.Inc()
		if rec.SkippedWrong {
			m.skippedWrong.Inc()
		}
		return
	}
	m.executed.Inc()
	if int(rec.Outcome) < len(m.outcomes) {
		m.outcomes[rec.Outcome].Inc()
	}
}

// matePruned credits one pruned point to the MATE that proved it benign on
// the labeled counter campaign_mate_pruned_total{mate,width}, so a live
// /metrics scrape can rank MATEs by cost/benefit mid-campaign.
func (m *campaignMetrics) matePruned(mate, width int) {
	if m == nil {
		return
	}
	m.mateMu.Lock()
	c, ok := m.mateCounters[mate]
	if !ok {
		c = m.reg.Counter("campaign_mate_pruned_total",
			"mate", strconv.Itoa(mate), "width", strconv.Itoa(width))
		m.mateCounters[mate] = c
	}
	m.mateMu.Unlock()
	c.Inc()
}

// convergedN accounts n experiments retired by the convergence early-exit
// and the simulation cycles that exit skipped.
func (m *campaignMetrics) convergedN(n int, saved int64) {
	if m == nil || n == 0 {
		return
	}
	m.converged.Add(int64(n))
	m.cyclesSaved.Add(saved)
}

// heldOne accounts one experiment retired by the held rule.
func (m *campaignMetrics) heldOne() {
	if m == nil {
		return
	}
	m.held.Inc()
}

// replay accounts one point merged from a recovered journal.
func (m *campaignMetrics) replay() {
	if m == nil {
		return
	}
	m.replayed.Inc()
}

// batch accounts one finished sweep of a device and the mean number of its
// lanes that carried an experiment.
func (m *campaignMetrics) batch(lanesUsed int) {
	if m == nil {
		return
	}
	m.batches.Inc()
	m.lanes.Observe(float64(lanesUsed))
}

// batchDone accounts one sweep's wall-clock and the estimated
// per-experiment latency (sweep wall-clock amortized over the points it
// injected) — the histograms behind campaignreport's latency percentiles.
// Two Observe calls per sweep, so the hot-path budget holds.
func (m *campaignMetrics) batchDone(d time.Duration, points int) {
	if m == nil || points <= 0 {
		return
	}
	secs := d.Seconds()
	m.batchSecs.Observe(secs)
	m.expSecs.Observe(secs / float64(points))
}

// setWorkers records the shard count of a parallel campaign.
func (m *campaignMetrics) setWorkers(n int) {
	if m == nil {
		return
	}
	m.workers.Set(int64(n))
}

// workerBusy tracks shard activity for the utilization column.
func (m *campaignMetrics) workerBusy(delta int64) {
	if m == nil {
		return
	}
	m.workersBusy.Add(delta)
}

// setLanes records the device lane width of the campaign's batched engine.
func (m *campaignMetrics) setLanes(n int) {
	if m == nil {
		return
	}
	m.laneWidth.Set(int64(n))
}
