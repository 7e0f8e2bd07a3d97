package fleet

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hafi"
	"repro/internal/journal"
)

// fakeClock is the injected coordinator clock: expiry tests advance it
// instead of sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testPoints builds a fault list with perCycle points per injection cycle
// (cycle-major, like hafi.SampledFaultList).
func testPoints(n, perCycle int) []hafi.FaultPoint {
	pts := make([]hafi.FaultPoint, n)
	for i := range pts {
		pts[i] = hafi.FaultPoint{FF: i % perCycle, Cycle: 1 + i/perCycle}
	}
	return pts
}

const testGolden = 0xfeedface

func newTestCoordinator(t *testing.T, dir string, clock *fakeClock, points []hafi.FaultPoint, shards int) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(points, testGolden, Options{
		Shards:   shards,
		LeaseTTL: 10 * time.Second, Heartbeat: 2 * time.Second,
		Dir: dir, Now: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// grantJournal builds a valid shard journal for a grant: right header,
// full local-index coverage.
func grantJournal(t *testing.T, g LeaseGrant) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shard.journal")
	h := journal.Header{GoldenSignature: testGolden, NumPoints: uint64(g.Hi - g.Lo), FaultListHash: g.ShardHash}
	w, err := journal.Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.Hi-g.Lo; i++ {
		if err := w.Append(journal.Record{Index: uint64(i), FF: 1, Cycle: 1, Duration: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustLease(t *testing.T, c *Coordinator, worker string) LeaseGrant {
	t.Helper()
	g, status, err := c.Lease(worker)
	if err != nil {
		t.Fatal(err)
	}
	if status != "lease" {
		t.Fatalf("lease status = %q, want a grant", status)
	}
	return g
}

func TestPlanShardsCutsAtCycleBoundaries(t *testing.T) {
	pts := testPoints(100, 7) // 100 points, 7 per cycle: cuts must round up
	shards := PlanShards(pts, 6)
	if len(shards) == 0 {
		t.Fatal("no shards")
	}
	next := 0
	for _, sh := range shards {
		if sh.Lo != next {
			t.Fatalf("shard %d starts at %d, want %d (gap or overlap)", sh.ID, sh.Lo, next)
		}
		if sh.Hi <= sh.Lo {
			t.Fatalf("empty shard %d", sh.ID)
		}
		if sh.Hi < len(pts) && pts[sh.Hi-1].Cycle == pts[sh.Hi].Cycle {
			t.Fatalf("shard %d splits cycle %d", sh.ID, pts[sh.Hi].Cycle)
		}
		if sh.Hash != hafi.FaultListHash(pts[sh.Lo:sh.Hi]) {
			t.Fatalf("shard %d hash mismatch", sh.ID)
		}
		next = sh.Hi
	}
	if next != len(pts) {
		t.Fatalf("shards cover %d of %d points", next, len(pts))
	}
}

func TestLeaseExpiryAndRegrant(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, t.TempDir(), clock, testPoints(40, 4), 2)

	g1 := mustLease(t, c, "w1")
	// Heartbeats keep the lease alive across several TTLs.
	for i := 0; i < 4; i++ {
		clock.Advance(8 * time.Second)
		if err := c.Heartbeat("w1", g1.Shard, g1.Fence, nil); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	// Silence for a full TTL: the shard must be re-leasable to another worker
	// with a higher fence.
	clock.Advance(11 * time.Second)
	g2 := mustLease(t, c, "w2")
	g3 := mustLease(t, c, "w2")
	regrant := g2
	if g3.Shard == g1.Shard {
		regrant = g3
	}
	if regrant.Shard != g1.Shard {
		t.Fatalf("expired shard %d not re-leased (got shards %d, %d)", g1.Shard, g2.Shard, g3.Shard)
	}
	if regrant.Fence <= g1.Fence {
		t.Fatalf("re-grant fence %d not above expired fence %d", regrant.Fence, g1.Fence)
	}
	st := c.Status()
	if st.Counters["fleet_lease_expiries_total"] != 1 || st.Counters["fleet_lease_regrants_total"] != 1 {
		t.Fatalf("counters = %+v, want 1 expiry and 1 regrant", st.Counters)
	}
	// The expired worker's heartbeat and completion are both fenced off.
	if err := c.Heartbeat("w1", g1.Shard, g1.Fence, nil); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale heartbeat: %v, want ErrFenced", err)
	}
	if err := c.Complete("w1", g1.Shard, g1.Fence, grantJournal(t, g1), nil); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie completion: %v, want ErrFenced", err)
	}
	if st := c.Status(); st.Counters["fleet_completions_stale_total"] != 1 || st.Done != 0 {
		t.Fatalf("status after zombie upload = %+v, want it rejected", st)
	}
}

func TestCompleteIdempotentAndExpiredButUnregrantedAccepted(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, t.TempDir(), clock, testPoints(40, 4), 2)
	g := mustLease(t, c, "w1")
	data := grantJournal(t, g)

	// Lease silently expired, but nobody re-leased the shard: the upload is
	// valid finished work and must be accepted.
	clock.Advance(11 * time.Second)
	if err := c.Complete("w1", g.Shard, g.Fence, data, nil); err != nil {
		t.Fatalf("expired-but-unregranted completion rejected: %v", err)
	}
	// Retrying the accepted upload (lost HTTP response) is idempotent.
	if err := c.Complete("w1", g.Shard, g.Fence, data, nil); err != nil {
		t.Fatalf("idempotent re-upload rejected: %v", err)
	}
	if st := c.Status(); st.Done != 1 || st.Counters["fleet_completions_total"] != 1 {
		t.Fatalf("status = %+v, want exactly one completion", st)
	}
}

func TestCompleteRejectsBadJournals(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, t.TempDir(), clock, testPoints(40, 4), 2)
	g := mustLease(t, c, "w1")

	var inv *InvalidJournalError
	// Garbage bytes.
	if err := c.Complete("w1", g.Shard, g.Fence, []byte("not a journal"), nil); !errors.As(err, &inv) {
		t.Fatalf("garbage upload: %v, want InvalidJournalError", err)
	}
	// The shard went back to pending; lease it again (fresh fence).
	g2 := mustLease(t, c, "w1")
	if g2.Shard != g.Shard || g2.Fence <= g.Fence {
		t.Fatalf("rejected shard not re-leased: %+v after %+v", g2, g)
	}
	// Incomplete coverage: one record short.
	short := LeaseGrant{Shard: g2.Shard, Lo: g2.Lo, Hi: g2.Hi - 1, Fence: g2.Fence, ShardHash: g2.ShardHash}
	err := c.Complete("w1", g2.Shard, g2.Fence, grantJournal(t, short), nil)
	if !errors.As(err, &inv) || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("short upload: %v, want a header mismatch rejection", err)
	}
	if st := c.Status(); st.Counters["fleet_completions_invalid_total"] != 2 || st.Done != 0 {
		t.Fatalf("status = %+v, want 2 invalid completions and none accepted", st)
	}
}

// driveToMerge completes every shard through the lease protocol.
func driveToMerge(t *testing.T, c *Coordinator) {
	t.Helper()
	for {
		g, status, err := c.Lease("driver")
		if err != nil {
			t.Fatal(err)
		}
		if status == "done" {
			return
		}
		if status != "lease" {
			t.Fatalf("unexpected lease status %q", status)
		}
		if err := c.Complete("driver", g.Shard, g.Fence, grantJournal(t, g), nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMergeOnCompletion(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	pts := testPoints(60, 5)
	c := newTestCoordinator(t, dir, clock, pts, 3)
	driveToMerge(t, c)

	select {
	case <-c.MergedCh():
	default:
		t.Fatal("merged channel not closed after final completion")
	}
	rec, err := journal.Recover(c.Output())
	if err != nil {
		t.Fatal(err)
	}
	want := journal.Header{GoldenSignature: testGolden, NumPoints: uint64(len(pts)), FaultListHash: hafi.FaultListHash(pts)}
	if rec.Header != want {
		t.Fatalf("merged header = %+v, want %+v", rec.Header, want)
	}
	if len(rec.ByIndex) != len(pts) || rec.Torn || rec.Corrupt {
		t.Fatalf("merged journal covers %d/%d points (torn=%v corrupt=%v)", len(rec.ByIndex), len(pts), rec.Torn, rec.Corrupt)
	}
	if st := c.Status(); !st.Merged || st.Counters["fleet_merges_total"] != 1 {
		t.Fatalf("status = %+v, want merged once", st)
	}
}

func TestCoordinatorRestartResumes(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	pts := testPoints(60, 5)

	// First life: one shard completed, one leased and still in flight.
	c1, err := NewCoordinator(pts, testGolden, Options{
		Shards: 3, LeaseTTL: 10 * time.Second, Heartbeat: 2 * time.Second,
		Dir: dir, Now: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	gDone := mustLease(t, c1, "w1")
	if err := c1.Complete("w1", gDone.Shard, gDone.Fence, grantJournal(t, gDone), nil); err != nil {
		t.Fatal(err)
	}
	gLive := mustLease(t, c1, "w2")
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart in the same dir. Completed work survives; the in-flight lease
	// is honored with a fresh TTL under its original fence.
	clock.Advance(9 * time.Second) // would have been near expiry pre-restart
	c2 := newTestCoordinator(t, dir, clock, pts, 3)
	st := c2.Status()
	if st.Done != 1 || st.Leased != 1 || st.Pending != 1 {
		t.Fatalf("restarted status = %+v, want 1 done / 1 leased / 1 pending", st)
	}
	if err := c2.Heartbeat("w2", gLive.Shard, gLive.Fence, nil); err != nil {
		t.Fatalf("live worker's heartbeat rejected after restart: %v", err)
	}
	if err := c2.Complete("w2", gLive.Shard, gLive.Fence, grantJournal(t, gLive), nil); err != nil {
		t.Fatalf("live worker's completion rejected after restart: %v", err)
	}
	// New fences must rise above everything granted in the first life.
	gNext := mustLease(t, c2, "w3")
	if gNext.Fence <= gLive.Fence {
		t.Fatalf("post-restart fence %d not above pre-restart fence %d", gNext.Fence, gLive.Fence)
	}
	if err := c2.Complete("w3", gNext.Shard, gNext.Fence, grantJournal(t, gNext), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c2.MergedCh():
	default:
		t.Fatal("campaign not merged after restart finished the remaining shards")
	}

	// Third life: the merged verdict is re-verified, not re-done.
	c2.Close()
	c3 := newTestCoordinator(t, dir, clock, pts, 3)
	if st := c3.Status(); !st.Merged || st.Counters["fleet_merges_total"] != 0 {
		t.Fatalf("third-life status = %+v, want merged without a re-merge", st)
	}
	if _, status, err := c3.Lease("w4"); err != nil || status != "done" {
		t.Fatalf("lease after merge = %q, %v; want done", status, err)
	}
}

func TestCoordinatorRestartRejectsForeignState(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	newTestCoordinator(t, dir, clock, testPoints(60, 5), 3).Close()

	// Same dir, different campaign (another stride): refuse, loudly.
	_, err := NewCoordinator(testPoints(30, 5), testGolden, Options{
		Shards: 3, LeaseTTL: 10 * time.Second, Heartbeat: 2 * time.Second,
		Dir: dir, Now: clock.Now,
	})
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("foreign state dir accepted: %v", err)
	}
}

func TestCoordinatorRestartReverifiesSpooledShards(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	pts := testPoints(60, 5)
	c1, err := NewCoordinator(pts, testGolden, Options{
		Shards: 3, LeaseTTL: 10 * time.Second, Heartbeat: 2 * time.Second,
		Dir: dir, Now: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := mustLease(t, c1, "w1")
	if err := c1.Complete("w1", g.Shard, g.Fence, grantJournal(t, g), nil); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// Corrupt the spooled shard journal behind the coordinator's back.
	spool := filepath.Join(dir, "shard-0000.journal")
	if err := os.WriteFile(spool, []byte("rotted"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := newTestCoordinator(t, dir, clock, pts, 3)
	if st := c2.Status(); st.Done != 0 {
		t.Fatalf("restart trusted a rotten spool file: %+v", st)
	}
	// The shard is schedulable again.
	g2 := mustLease(t, c2, "w2")
	if g2.Shard != g.Shard {
		t.Fatalf("rotten shard %d not first in line, got %d", g.Shard, g2.Shard)
	}
}

func TestCoordinatorOptionValidation(t *testing.T) {
	pts := testPoints(10, 2)
	if _, err := NewCoordinator(nil, 1, Options{Dir: t.TempDir()}); err == nil {
		t.Error("empty fault list accepted")
	}
	if _, err := NewCoordinator(pts, 1, Options{}); err == nil {
		t.Error("missing dir accepted")
	}
	_, err := NewCoordinator(pts, 1, Options{Dir: t.TempDir(), LeaseTTL: time.Second, Heartbeat: time.Second})
	if err == nil || !strings.Contains(err.Error(), "heartbeat") {
		t.Errorf("heartbeat >= TTL accepted: %v", err)
	}
}
