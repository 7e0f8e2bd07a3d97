package fleet

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
)

// Anomaly types surfaced in Status.Anomalies and on the event log.
const (
	// AnomalyStraggler flags a worker whose throughput has fallen below
	// stragglerFraction of the fleet median.
	AnomalyStraggler = "straggler"
	// AnomalyLeaseDrift flags a leased shard whose remaining TTL has
	// drifted below a quarter of the lease TTL — its worker's heartbeats
	// are late and the lease is trending toward expiry.
	AnomalyLeaseDrift = "lease-drift"
)

// Anomaly is one active fleet anomaly. Anomalies fire exactly once per
// incident (a raise event when detected, a clear event on recovery) and
// stay listed in /status while active.
type Anomaly struct {
	Type    string `json:"type"`
	Subject string `json:"subject"` // worker name or "shard N"
	Msg     string `json:"msg"`
	SinceMS int64  `json:"since_unix_ms"`
}

// WorkerStatus is the live per-worker view in /status.
type WorkerStatus struct {
	Worker     string  `json:"worker"`
	Shard      int     `json:"shard"` // -1 when not currently leasing
	Done       int64   `json:"done"`  // lifetime classified points
	Rate       float64 `json:"rate"`  // points/s (EWMA over heartbeats)
	LastSeenMS int64   `json:"last_seen_unix_ms"`
	Straggler  bool    `json:"straggler,omitempty"`
}

// aggregator folds per-worker heartbeat telemetry into fleet-wide
// totals, maintains per-worker EWMA throughput, and runs the anomaly
// detectors. It holds no lock of its own: every method runs under the
// coordinator's mu, which already serialises heartbeats, completions and
// status snapshots.
//
// Every folded counter lands in the registry under the name the worker
// reported it by; the struct keeps only what the registry has no type
// for.
type aggregator struct {
	driftFraction float64
	activeWindow  time.Duration

	workers   map[string]*workerAgg
	batches   int64   // folded sweeps of devices with a known width
	laneSum   float64 // Σ over those sweeps of busy lanes / device lanes
	anomalies map[string]*Anomaly

	events          *obs.EventLog
	reg             *obs.Registry
	anomaliesActive *obs.Gauge // fleet_anomalies
}

// workerAgg is one worker's folding state.
type workerAgg struct {
	last     obs.Stats // previous campaign document (delta baseline)
	sampled  bool
	lastSeen time.Time
	rate     float64 // EWMA points/s
	haveRate bool
	shard    int // currently heartbeating shard (-1 after completion)
	done     int64
}

// ewmaAlpha weights the newest heartbeat's instantaneous rate. 0.4 makes
// the rate settle within ~4 heartbeats yet ride out single slow batches.
const ewmaAlpha = 0.4

// stragglerFraction flags a worker as a straggler when its throughput
// falls below this fraction of the active-fleet median.
const stragglerFraction = 0.35

// newAggregator folds into opts.Obs, which NewCoordinator guarantees.
func newAggregator(opts Options) *aggregator {
	return &aggregator{
		driftFraction:   0.25,
		activeWindow:    3 * opts.Heartbeat,
		workers:         map[string]*workerAgg{},
		anomalies:       map[string]*Anomaly{},
		events:          opts.Events,
		reg:             opts.Obs,
		anomaliesActive: opts.Obs.Gauge("fleet_anomalies"),
	}
}

// fold absorbs one heartbeat's telemetry: every counter's delta against
// the worker's previous document is added to the registry counter of the
// same name, and the worker's EWMA throughput is advanced from the
// points-done delta over the inter-heartbeat interval.
func (a *aggregator) fold(worker string, shard int, tel *Telemetry, now time.Time) {
	var cur obs.Stats
	if tel != nil && tel.Campaign != nil {
		cur = *tel.Campaign
	}
	wa := a.workers[worker]
	if wa == nil {
		wa = &workerAgg{shard: -1}
		a.workers[worker] = wa
	}
	if wa.sampled {
		d := counterDeltas(cur.Counters, wa.last.Counters)
		for key, n := range d {
			a.reg.AddCounter(key, n)
		}
		done := d["campaign_points_done_total"]
		a.reg.Counter("fleet_worker_points_total", "worker", worker).Add(done)
		// Each worker's sweeps are normalised by its own device width, so
		// workers run at different -lanes fold into one fraction.
		if lanes := cur.Gauges["campaign_lanes"]; lanes > 0 {
			a.batches += d["campaign_batches_total"]
			busy := cur.Histograms["campaign_batch_lanes"].Sum - wa.last.Histograms["campaign_batch_lanes"].Sum
			a.laneSum += max(busy, 0) / float64(lanes)
		}
		if dt := now.Sub(wa.lastSeen).Seconds(); dt > 0 {
			inst := float64(done) / dt
			if wa.haveRate {
				wa.rate = ewmaAlpha*inst + (1-ewmaAlpha)*wa.rate
			} else {
				wa.rate = inst
				wa.haveRate = true
			}
		}
	}
	wa.last = cur
	wa.sampled = true
	wa.lastSeen = now
	wa.shard = shard
	wa.done = cur.Counters["campaign_points_done_total"]
}

// workerDone notes that worker finished (or lost) its shard, so the
// status view stops pinning it to a stale shard id.
func (a *aggregator) workerDone(worker string) {
	if wa := a.workers[worker]; wa != nil {
		wa.shard = -1
	}
}

// active returns the workers heard from within the activity window.
func (a *aggregator) active(now time.Time) []*workerAgg {
	var out []*workerAgg
	for _, wa := range a.workers {
		if wa.haveRate && now.Sub(wa.lastSeen) <= a.activeWindow {
			out = append(out, wa)
		}
	}
	return out
}

// fleetRate is the summed EWMA throughput of the active workers.
func (a *aggregator) fleetRate(now time.Time) float64 {
	var sum float64
	for _, wa := range a.active(now) {
		sum += wa.rate
	}
	return sum
}

// detect runs the anomaly detectors against the current lease table.
// Each anomaly fires exactly once when its condition first holds and
// clears exactly once when it stops holding.
func (a *aggregator) detect(now time.Time, shards []*shardSlot, ttl time.Duration) {
	// Straggler: a worker's EWMA rate below stragglerFraction of the
	// median rate across active workers. Needs at least two active
	// workers — with one there is no fleet to lag behind.
	active := a.active(now)
	if len(active) >= 2 {
		rates := make([]float64, len(active))
		for i, wa := range active {
			rates[i] = wa.rate
		}
		sort.Float64s(rates)
		median := rates[len(rates)/2]
		if len(rates)%2 == 0 {
			median = (rates[len(rates)/2-1] + rates[len(rates)/2]) / 2
		}
		if median > 0 {
			threshold := stragglerFraction * median
			for name, wa := range a.workers {
				key := AnomalyStraggler + "/" + name
				isActive := wa.haveRate && now.Sub(wa.lastSeen) <= a.activeWindow
				if isActive && wa.rate < threshold {
					a.raise(key, AnomalyStraggler, name, now,
						"throughput %.1f points/s below %.0f%% of fleet median %.1f",
						wa.rate, stragglerFraction*100, median)
				} else {
					a.clear(key, now)
				}
			}
		}
	} else {
		for name := range a.workers {
			a.clear(AnomalyStraggler+"/"+name, now)
		}
	}

	// Lease drift: a leased shard whose remaining TTL is below
	// driftFraction of the full TTL. Healthy heartbeats renew the full
	// TTL every TTL/4, so remaining time only sinks this low when
	// several consecutive heartbeats went missing.
	for _, sh := range shards {
		key := fmt.Sprintf("%s/shard-%d", AnomalyLeaseDrift, sh.ID)
		remaining := sh.deadline.Sub(now)
		if sh.state == ShardLeased && remaining < time.Duration(a.driftFraction*float64(ttl)) {
			a.raise(key, AnomalyLeaseDrift, fmt.Sprintf("shard %d", sh.ID), now,
				"lease held by %s has %v of %v TTL left", sh.worker, remaining.Round(time.Millisecond), ttl)
		} else {
			a.clear(key, now)
		}
	}
}

func (a *aggregator) raise(key, typ, subject string, now time.Time, format string, args ...interface{}) {
	if _, ok := a.anomalies[key]; ok {
		return // already firing: one event per incident
	}
	an := &Anomaly{Type: typ, Subject: subject, Msg: fmt.Sprintf(format, args...), SinceMS: now.UnixMilli()}
	a.anomalies[key] = an
	a.reg.Counter("fleet_anomalies_total", "type", typ).Inc()
	a.anomaliesActive.Set(int64(len(a.anomalies)))
	a.events.Event(obs.LevelWarn, "anomaly."+typ, an.Msg, "subject", subject)
}

func (a *aggregator) clear(key string, now time.Time) {
	an, ok := a.anomalies[key]
	if !ok {
		return
	}
	delete(a.anomalies, key)
	a.anomaliesActive.Set(int64(len(a.anomalies)))
	a.events.Event(obs.LevelInfo, "anomaly.clear", fmt.Sprintf("%s on %s recovered", an.Type, an.Subject),
		"type", an.Type, "subject", an.Subject,
		"after", (time.Duration(now.UnixMilli()-an.SinceMS) * time.Millisecond).String())
}

// anomalyList snapshots the active anomalies, oldest first.
func (a *aggregator) anomalyList() []Anomaly {
	out := make([]Anomaly, 0, len(a.anomalies))
	for _, an := range a.anomalies {
		out = append(out, *an)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SinceMS != out[j].SinceMS {
			return out[i].SinceMS < out[j].SinceMS
		}
		return out[i].Subject < out[j].Subject
	})
	return out
}

// isStraggler reports whether worker currently has an active straggler
// anomaly.
func (a *aggregator) isStraggler(worker string) bool {
	_, ok := a.anomalies[AnomalyStraggler+"/"+worker]
	return ok
}

// workerStatuses snapshots the per-worker view, sorted by name.
func (a *aggregator) workerStatuses() []WorkerStatus {
	out := make([]WorkerStatus, 0, len(a.workers))
	for name, wa := range a.workers {
		out = append(out, WorkerStatus{
			Worker:     name,
			Shard:      wa.shard,
			Done:       wa.done,
			Rate:       wa.rate,
			LastSeenMS: wa.lastSeen.UnixMilli(),
			Straggler:  a.isStraggler(name),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// laneOccupancy is the fleet-mean fraction of a device's lanes kept
// busy per sweep, in [0, 1].
func (a *aggregator) laneOccupancy() float64 {
	if a.batches == 0 {
		return 0
	}
	return a.laneSum / float64(a.batches)
}
