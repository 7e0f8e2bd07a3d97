package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestTelemetryDeltaClamped: a worker restart resets its cumulative
// counters, so a document below the previous one must fold as a zero
// delta, never a negative one.
func TestTelemetryDeltaClamped(t *testing.T) {
	prev := map[string]int64{"campaign_points_done_total": 100, "campaign_injections_total": 500,
		"campaign_outcomes_total{outcome=sdc}": 9}
	next := map[string]int64{"campaign_points_done_total": 10, "campaign_injections_total": 600,
		"campaign_outcomes_total{outcome=sdc}": 2}
	d := counterDeltas(next, prev)
	if d["campaign_points_done_total"] != 0 {
		t.Fatalf("regressed points-done delta = %d, want clamped to 0", d["campaign_points_done_total"])
	}
	if d["campaign_injections_total"] != 100 {
		t.Fatalf("injections delta = %d, want 100", d["campaign_injections_total"])
	}
	if d["campaign_outcomes_total{outcome=sdc}"] != 0 {
		t.Fatalf("regressed outcome delta = %d, want clamped to 0", d["campaign_outcomes_total{outcome=sdc}"])
	}
}

// campaignTel is a heartbeat carrying the given campaign counters.
func campaignTel(shardDone int64, counters map[string]int64) *Telemetry {
	return &Telemetry{ShardDone: shardDone, Campaign: &obs.Stats{Counters: counters}}
}

// heartbeatTel is a convenience cumulative snapshot.
func heartbeatTel(done int64) *Telemetry {
	tel := campaignTel(done, map[string]int64{
		"campaign_points_done_total": done,
		"campaign_injections_total":  done * 3,
		"campaign_batches_total":     done / 2,
	})
	tel.Campaign.Histograms = map[string]obs.StatsHistogram{"campaign_batch_lanes": {Sum: float64(done)}}
	return tel
}

// TestProgressFromHeartbeatTelemetry: before any telemetry the ETA is
// unknown (-1); once heartbeats carry cumulative snapshots the progress
// view folds live shard progress into points_done and converges the ETA
// to remaining/rate.
func TestProgressFromHeartbeatTelemetry(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, t.TempDir(), clock, testPoints(100, 5), 2)

	p := c.Status().Progress
	if p.PointsTotal != 100 || p.PointsDone != 0 {
		t.Fatalf("fresh progress = %d/%d, want 0/100", p.PointsDone, p.PointsTotal)
	}
	if p.ETASeconds != -1 {
		t.Fatalf("fresh ETA = %v, want -1 (unknown)", p.ETASeconds)
	}

	g := mustLease(t, c, "w1")
	// Two heartbeats one second apart, 10 points in between: rate 10/s.
	clock.Advance(time.Second)
	if err := c.Heartbeat("w1", g.Shard, g.Fence, heartbeatTel(10)); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	if err := c.Heartbeat("w1", g.Shard, g.Fence, heartbeatTel(20)); err != nil {
		t.Fatal(err)
	}

	st := c.Status()
	p = st.Progress
	if p.PointsDone != 20 {
		t.Fatalf("points done = %d, want 20 (live lease progress)", p.PointsDone)
	}
	if p.Rate != 10 {
		t.Fatalf("rate = %v, want 10 points/s", p.Rate)
	}
	if want := float64(100-20) / 10; p.ETASeconds != want {
		t.Fatalf("ETA = %v, want %v", p.ETASeconds, want)
	}
	// The first snapshot is the delta baseline (folding it whole would
	// double-count a worker rejoining a restarted coordinator), so totals
	// cover the second interval only: 60 cumulative - 30 baseline.
	if n := st.Counters["campaign_injections_total"]; n != 30 {
		t.Fatalf("injections = %d, want 30", n)
	}
	if len(st.Workers) != 1 || st.Workers[0].Worker != "w1" || st.Workers[0].Shard != g.Shard {
		t.Fatalf("workers = %+v", st.Workers)
	}
	if len(st.ShardMap) != 2 {
		t.Fatalf("shard map has %d rows, want 2", len(st.ShardMap))
	}

	// Completing the shard moves its points from lease-progress to done
	// and detaches the worker from the shard in the status view.
	if err := c.Complete("w1", g.Shard, g.Fence, grantJournal(t, g), nil); err != nil {
		t.Fatal(err)
	}
	st = c.Status()
	if got := st.Progress.PointsDone; got != int64(g.Hi-g.Lo) {
		t.Fatalf("points done after completion = %d, want %d", got, g.Hi-g.Lo)
	}
	if st.Workers[0].Shard != -1 {
		t.Fatalf("worker still pinned to shard %d after completion", st.Workers[0].Shard)
	}
}

// anomalyEvents counts JSONL event-log lines matching the given event name.
func anomalyEvents(buf *bytes.Buffer, event string) int {
	n := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, `"event":"`+event+`"`) {
			n++
		}
	}
	return n
}

// newAnomalyCoordinator builds a coordinator with an event log attached so
// the tests can assert fire-once/clear-once behavior.
func newAnomalyCoordinator(t *testing.T, clock *fakeClock, shards int, buf *bytes.Buffer) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(testPoints(1000, 5), testGolden, Options{
		Shards:   shards,
		LeaseTTL: 10 * time.Second, Heartbeat: 2 * time.Second,
		Dir: t.TempDir(), Now: clock.Now,
		Events: obs.NewEventLog(buf, "test", obs.LevelInfo),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestStragglerFiresOnceAndClears: a worker running far below the fleet
// median raises exactly one straggler anomaly however often status is
// polled, and the anomaly clears (once) when the worker recovers.
func TestStragglerFiresOnceAndClears(t *testing.T) {
	clock := newFakeClock()
	var events bytes.Buffer
	c := newAnomalyCoordinator(t, clock, 4, &events)

	gFast := mustLease(t, c, "fast")
	gSlow := mustLease(t, c, "slow")
	// Establish rates: fast does 20 points/s, slow 1 point/s. The median of
	// two is their mean (10.5); the 0.35 default threshold is ~3.7.
	fast, slow := int64(0), int64(0)
	hb := func() {
		clock.Advance(time.Second)
		fast += 20
		slow++
		if err := c.Heartbeat("fast", gFast.Shard, gFast.Fence, heartbeatTel(fast)); err != nil {
			t.Fatal(err)
		}
		if err := c.Heartbeat("slow", gSlow.Shard, gSlow.Fence, heartbeatTel(slow)); err != nil {
			t.Fatal(err)
		}
	}
	hb()
	hb()

	st := c.Status()
	if len(st.Anomalies) != 1 || st.Anomalies[0].Type != AnomalyStraggler || st.Anomalies[0].Subject != "slow" {
		t.Fatalf("anomalies = %+v, want one straggler on %q", st.Anomalies, "slow")
	}
	for _, w := range st.Workers {
		if (w.Worker == "slow") != w.Straggler {
			t.Fatalf("worker %s straggler flag = %v", w.Worker, w.Straggler)
		}
	}
	// Fire-once: more heartbeats and more status polls while the condition
	// holds must not emit a second raise event.
	hb()
	c.Status()
	c.Status()
	if n := anomalyEvents(&events, "anomaly.straggler"); n != 1 {
		t.Fatalf("straggler raised %d times, want exactly 1\n%s", n, events.String())
	}

	// Recovery: the slow worker speeds up to fleet rate; the EWMA catches
	// up within a few heartbeats and the anomaly clears exactly once.
	for i := 0; i < 6; i++ {
		clock.Advance(time.Second)
		fast += 20
		slow += 20
		if err := c.Heartbeat("fast", gFast.Shard, gFast.Fence, heartbeatTel(fast)); err != nil {
			t.Fatal(err)
		}
		if err := c.Heartbeat("slow", gSlow.Shard, gSlow.Fence, heartbeatTel(slow)); err != nil {
			t.Fatal(err)
		}
	}
	st = c.Status()
	if len(st.Anomalies) != 0 {
		t.Fatalf("anomalies after recovery = %+v, want none", st.Anomalies)
	}
	c.Status()
	if n := anomalyEvents(&events, "anomaly.clear"); n != 1 {
		t.Fatalf("anomaly cleared %d times, want exactly 1\n%s", n, events.String())
	}
}

// TestLeaseDriftAnomaly: a lease whose heartbeats stop mid-run drifts
// toward expiry; the anomaly fires once below 25%% remaining TTL and
// clears when a heartbeat renews the lease.
func TestLeaseDriftAnomaly(t *testing.T) {
	clock := newFakeClock()
	var events bytes.Buffer
	c := newAnomalyCoordinator(t, clock, 2, &events)

	g := mustLease(t, c, "w1")
	// 8s into a 10s TTL: 2s remaining < 2.5s threshold.
	clock.Advance(8 * time.Second)
	st := c.Status()
	if len(st.Anomalies) != 1 || st.Anomalies[0].Type != AnomalyLeaseDrift {
		t.Fatalf("anomalies = %+v, want one lease-drift", st.Anomalies)
	}
	if want := fmt.Sprintf("shard %d", g.Shard); st.Anomalies[0].Subject != want {
		t.Fatalf("drift subject = %q, want %q", st.Anomalies[0].Subject, want)
	}
	c.Status() // still drifting: must not raise again
	if n := anomalyEvents(&events, "anomaly.lease-drift"); n != 1 {
		t.Fatalf("lease-drift raised %d times, want exactly 1\n%s", n, events.String())
	}

	// A heartbeat renews the full TTL: the anomaly clears.
	if err := c.Heartbeat("w1", g.Shard, g.Fence, nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); len(st.Anomalies) != 0 {
		t.Fatalf("anomalies after renewal = %+v, want none", st.Anomalies)
	}
	if n := anomalyEvents(&events, "anomaly.clear"); n != 1 {
		t.Fatalf("anomaly cleared %d times, want exactly 1\n%s", n, events.String())
	}
}

// TestLeaseDriftClearsOnExpiry: if the lease actually expires (shard back
// to pending), the drift anomaly must clear rather than stick to a lease
// that no longer exists.
func TestLeaseDriftClearsOnExpiry(t *testing.T) {
	clock := newFakeClock()
	var events bytes.Buffer
	c := newAnomalyCoordinator(t, clock, 2, &events)

	mustLease(t, c, "w1")
	clock.Advance(8 * time.Second)
	if st := c.Status(); len(st.Anomalies) != 1 {
		t.Fatalf("anomalies = %+v, want the drifting lease", st.Anomalies)
	}
	clock.Advance(3 * time.Second) // past the 10s TTL: sweep expires the lease
	if st := c.Status(); len(st.Anomalies) != 0 {
		t.Fatalf("anomalies after expiry = %+v, want none", st.Anomalies)
	}
}

// TestAggregatorConcurrentHeartbeats hammers the coordinator with
// concurrent telemetry-bearing heartbeats, status polls and metric
// scrapes. Run under -race this is the aggregator's data-race proof.
func TestAggregatorConcurrentHeartbeats(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewCoordinator(testPoints(800, 5), testGolden, Options{
		Shards:   8,
		LeaseTTL: 10 * time.Second, Heartbeat: 2 * time.Second,
		Dir: t.TempDir(), Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers, beats = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", i)
			g, status, err := c.Lease(name)
			if err != nil || status != "lease" {
				t.Errorf("%s: lease status %q err %v", name, status, err)
				return
			}
			for done := int64(1); done <= beats; done++ {
				if err := c.Heartbeat(name, g.Shard, g.Fence, heartbeatTel(done)); err != nil {
					t.Errorf("%s: heartbeat: %v", name, err)
					return
				}
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				st := c.Status()
				if st.Progress.PointsDone < 0 || st.Progress.PointsDone > 800 {
					t.Errorf("points done %d out of range", st.Progress.PointsDone)
				}
				var sink bytes.Buffer
				if err := obs.WritePrometheus(&sink, reg); err != nil {
					t.Errorf("scrape: %v", err)
				}
			}
		}()
	}
	wg.Wait()

	st := c.Status()
	if got := st.Progress.PointsDone; got != workers*beats {
		t.Fatalf("points done = %d, want %d (8 workers × 50 beats)", got, workers*beats)
	}
	if len(st.Workers) != workers {
		t.Fatalf("worker view has %d rows, want %d", len(st.Workers), workers)
	}
}

// TestLaneOccupancyPerDeviceWidth: each worker's sweeps are normalised by
// its own device width, so 256-lane telemetry reads as a fraction, and a
// 256-lane and a 64-lane worker fold into one fleet mean in [0, 1].
func TestLaneOccupancyPerDeviceWidth(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, t.TempDir(), clock, testPoints(100, 5), 2)
	gWide := mustLease(t, c, "wide")
	gNarrow := mustLease(t, c, "narrow")
	beat := func(worker string, g LeaseGrant, batches, busy, lanes int64) {
		t.Helper()
		tel := campaignTel(0, map[string]int64{"campaign_batches_total": batches})
		tel.Campaign.Gauges = map[string]int64{"campaign_lanes": lanes}
		tel.Campaign.Histograms = map[string]obs.StatsHistogram{"campaign_batch_lanes": {Sum: float64(batches * busy)}}
		if err := c.Heartbeat(worker, g.Shard, g.Fence, tel); err != nil {
			t.Fatal(err)
		}
	}
	// The first snapshot of each worker is its delta baseline.
	beat("wide", gWide, 0, 0, 256)
	beat("narrow", gNarrow, 0, 0, 64)

	// 10 sweeps with 192 of 256 lanes busy: 75 %.
	beat("wide", gWide, 10, 192, 256)
	if got := c.Status().Progress.LaneOccupancy; got != 0.75 {
		t.Fatalf("256-lane occupancy = %v, want 0.75", got)
	}
	// 30 sweeps with 16 of 64 lanes busy: 25 %. Fleet mean over all 40
	// sweeps: (10·0.75 + 30·0.25) / 40.
	beat("narrow", gNarrow, 30, 16, 64)
	if got, want := c.Status().Progress.LaneOccupancy, (10*0.75+30*0.25)/40; got != want {
		t.Fatalf("mixed-width occupancy = %v, want %v", got, want)
	}
}

// TestCountersAreTheRegistry: every lease-protocol event is counted once,
// in the registry, and Status reads it back — with an operator registry
// and with the coordinator's private one alike. The drive gives every
// counter a different value, so a field read from the wrong counter
// shows.
func TestCountersAreTheRegistry(t *testing.T) {
	drive := func(reg *obs.Registry) map[string]int64 {
		clock := newFakeClock()
		c, err := NewCoordinator(testPoints(70, 5), testGolden, Options{
			Shards:   7,
			LeaseTTL: 10 * time.Second, Heartbeat: 2 * time.Second,
			Dir: t.TempDir(), Now: clock.Now, Obs: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		g1 := mustLease(t, c, "w1") // grant
		for i := 0; i < 5; i++ {
			if err := c.Heartbeat("w1", g1.Shard, g1.Fence, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Two expiries, each followed by the expired shard's re-grant.
		clock.Advance(11 * time.Second)
		g2 := mustLease(t, c, "w2")
		clock.Advance(11 * time.Second)
		g3 := mustLease(t, c, "w3")
		if g2.Shard != g1.Shard || g3.Shard != g1.Shard {
			t.Fatalf("expired shard %d not re-granted first (got %d, %d)", g1.Shard, g2.Shard, g3.Shard)
		}
		for _, g := range []LeaseGrant{g1, g2, g1, g2} {
			if err := c.Heartbeat("w", g.Shard, g.Fence, nil); !errors.Is(err, ErrFenced) {
				t.Fatalf("stale heartbeat: %v, want ErrFenced", err)
			}
		}
		for _, g := range []LeaseGrant{g1, g2, g1} {
			if err := c.Complete("w", g.Shard, g.Fence, grantJournal(t, g), nil); !errors.Is(err, ErrFenced) {
				t.Fatalf("stale completion: %v, want ErrFenced", err)
			}
		}
		// Six rejected uploads, each re-opening the shard for a re-grant.
		g := g3
		for i := 0; i < 6; i++ {
			var inv *InvalidJournalError
			if err := c.Complete("w3", g.Shard, g.Fence, []byte("garbage"), nil); !errors.As(err, &inv) {
				t.Fatalf("invalid completion: %v, want InvalidJournalError", err)
			}
			g = mustLease(t, c, "w3")
		}
		if err := c.Complete("w3", g.Shard, g.Fence, grantJournal(t, g), nil); err != nil {
			t.Fatal(err)
		}
		driveToMerge(t, c) // the six other shards: grants, completions, the merge

		st := c.Status()
		if !st.Merged || st.Shards != 7 {
			t.Fatalf("status = %+v, want 7 shards merged", st)
		}
		if reg != nil {
			if got := reg.Stats().Counters; !reflect.DeepEqual(got, st.Counters) {
				t.Fatalf("Status().Counters = %+v, registry = %+v", st.Counters, got)
			}
		}
		return st.Counters
	}

	want := map[string]int64{
		"fleet_leases_granted_total": 15, "fleet_lease_expiries_total": 2, "fleet_lease_regrants_total": 8,
		"fleet_heartbeats_total": 5, "fleet_heartbeats_stale_total": 4,
		"fleet_completions_total": 7, "fleet_completions_stale_total": 3, "fleet_completions_invalid_total": 6,
		"fleet_merges_total": 1,
	}
	check := func(kind string, got map[string]int64) {
		t.Helper()
		for name, n := range want {
			if got[name] != n {
				t.Fatalf("%s with %s: %d, want %d (counters %+v)", name, kind, got[name], n, got)
			}
		}
	}
	check("an operator registry", drive(obs.NewRegistry()))
	check("the private registry", drive(nil))
}

// TestFoldIsGeneric: the coordinator has no code for these counters, yet
// each one a heartbeat carries lands, summed over workers, in Status and
// on /metrics under its own name and labels. A restarted worker's
// smaller counters fold zero and become its new baseline.
func TestFoldIsGeneric(t *testing.T) {
	clock := newFakeClock()
	reg := obs.NewRegistry()
	c, err := NewCoordinator(testPoints(100, 5), testGolden, Options{
		Shards:   2,
		LeaseTTL: 10 * time.Second, Heartbeat: 2 * time.Second,
		Dir: t.TempDir(), Now: clock.Now, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const (
		held = "campaign_held_total"
		sdc  = "campaign_outcomes_total{outcome=sdc}"
		mate = "campaign_mate_pruned_total{mate=3,width=2}"
	)
	grants := map[string]LeaseGrant{"w1": mustLease(t, c, "w1"), "w2": mustLease(t, c, "w2")}
	beat := func(worker string, h, s, m int64) {
		t.Helper()
		clock.Advance(time.Second)
		g := grants[worker]
		if err := c.Heartbeat(worker, g.Shard, g.Fence, campaignTel(0, map[string]int64{held: h, sdc: s, mate: m})); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(stage string, h, s, m int64) {
		t.Helper()
		got := c.Status().Counters
		var prom bytes.Buffer
		rec := httptest.NewRecorder()
		NewHandler(c, reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		prom.Write(rec.Body.Bytes())
		for _, w := range []struct {
			key, line string
			n         int64
		}{
			{held, "campaign_held_total", h},
			{sdc, `campaign_outcomes_total{outcome="sdc"}`, s},
			{mate, `campaign_mate_pruned_total{mate="3",width="2"}`, m},
		} {
			if got[w.key] != w.n {
				t.Fatalf("%s: Status().Counters[%s] = %d, want %d", stage, w.key, got[w.key], w.n)
			}
			if line := fmt.Sprintf("%s %d\n", w.line, w.n); !strings.Contains(prom.String(), line) {
				t.Fatalf("%s: /metrics lacks %q:\n%s", stage, line, prom.String())
			}
		}
	}
	beat("w1", 10, 4, 100) // baselines
	beat("w2", 1, 1, 1)
	beat("w1", 13, 6, 150)
	beat("w2", 5, 2, 21)
	expect("two workers", 3+4, 2+1, 50+20)

	// w1 restarts under the same name: its counters drop, the delta
	// clamps to zero and the new document becomes its baseline.
	beat("w1", 2, 0, 5)
	expect("after the restart", 7, 3, 70)
	beat("w1", 4, 1, 9)
	expect("past the new baseline", 7+2, 3+1, 70+4)
}
