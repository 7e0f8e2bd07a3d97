package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpu/avr"
	"repro/internal/hafi"
	"repro/internal/journal"
	"repro/internal/report"
)

// chaosProgram is a short self-checking AVR workload (compute, store,
// emit checksum, halt) — big enough for a few hundred injection points,
// small enough to run a whole fleet campaign in seconds.
const chaosProgram = `
    ldi r1, 5
    ldi r2, 0
loop:
    add r2, r1
    dec r1
    brne loop
    ldi r3, 16
    st (r3), r2
    out r2
    halt
`

// crashRunner wraps a Runner and simulates a worker crash: at the start of
// its n-th shard it cancels the worker's context, so the shard dies
// mid-run with an incomplete journal and the lease is left to expire.
type crashRunner struct {
	Runner
	cancel  context.CancelFunc
	crashAt int32
	n       int32
}

func (r *crashRunner) RunShard(ctx context.Context, lo, hi int, path string, obsv *ShardObs) error {
	if atomic.AddInt32(&r.n, 1) >= r.crashAt {
		r.cancel()
	}
	return r.Runner.RunShard(ctx, lo, hi, path, obsv)
}

// TestFleetChaos is the end-to-end fault-tolerance proof: a campaign runs
// under every failure mode the fleet is built for — a worker that crashes
// mid-shard, a zombie whose lease is handed over and whose late upload
// must be fenced off, and a coordinator that is killed and restarted from
// its durable directory — and the merged journal must still be
// point-for-point identical to an uninterrupted single-process run.
func TestFleetChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test runs a full fleet campaign")
	}

	// --- campaign definition (shared by reference and fleet) -------------
	prog := avr.MustAssemble(chaosProgram)
	newRun := func() hafi.Run { return hafi.NewAVRRun(avr.NewCore(), prog) }
	golden, err := hafi.RecordGolden(newRun(), 10000)
	if err != nil {
		t.Fatal(err)
	}
	nl := avr.NewCore().NL
	points := hafi.SampledFaultList(nl, golden.HaltCycle, 2)
	if len(points) < 100 {
		t.Fatalf("fault list too small for a meaningful fleet test: %d points", len(points))
	}
	set := core.Search(nl, nl.FFQWires(), core.DefaultSearchParams()).Set

	mkRunner := func() *CampaignRunner {
		run64, err := hafi.NewAVRRunW(avr.NewCore(), prog, 64)
		if err != nil {
			t.Fatal(err)
		}
		return &CampaignRunner{
			Ctl:     hafi.NewController(newRun(), golden),
			Points:  points,
			RunsW:   []hafi.RunW{run64},
			MATESet: set,
		}
	}

	// --- reference: uninterrupted single-process campaign ----------------
	refPath := filepath.Join(t.TempDir(), "reference.journal")
	refCtl := hafi.NewController(newRun(), golden)
	jw, err := journal.Create(refPath, refCtl.JournalHeader(points))
	if err != nil {
		t.Fatal(err)
	}
	refRun, err := hafi.NewAVRRunW(avr.NewCore(), prog, 64)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := refCtl.RunCampaignBatchedPoolWithW(hafi.CampaignConfig{
		Points: points, MATESet: set, Journal: jw,
	}, []hafi.RunW{refRun})
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if refRes.Skipped == 0 {
		t.Fatal("reference campaign pruned nothing; the merge would not exercise attribution records")
	}

	// --- coordinator, first life -----------------------------------------
	dir := t.TempDir()
	opts := Options{
		Shards: 6, LeaseTTL: 1500 * time.Millisecond, Heartbeat: 300 * time.Millisecond,
		Dir: dir, Spec: Spec{CPU: "avr", Prog: "chaos", Stride: 2},
		Logf: t.Logf,
	}
	coord1, err := NewCoordinator(points, golden.Signature, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(NewHandler(coord1, nil))

	mkWorker := func(name, base string, r Runner) *Worker {
		return &Worker{
			Client:  &Client{BaseURL: base, Worker: name},
			Runner:  r,
			Dir:     t.TempDir(),
			Backoff: Backoff{Base: 20 * time.Millisecond, Max: 300 * time.Millisecond},
			// Fast polling keeps the test snappy while shards are re-leasing.
			PollInterval: 50 * time.Millisecond,
			Logf:         t.Logf,
		}
	}

	// Zombie: takes a lease on the first life and goes silent. Its shard
	// will expire, re-lease, and be finished by an honest worker; its own
	// (wrong!) journal arrives long after the campaign moved on.
	ctx := context.Background()
	zombie := &Client{BaseURL: ts1.URL, Worker: "zombie"}
	zresp, err := zombie.Lease(ctx)
	if err != nil || zresp.Status != "lease" {
		t.Fatalf("zombie lease: %+v, %v", zresp, err)
	}

	// Worker 1: finishes one shard honestly, then crashes at the start of
	// its second. Its crashed shard's lease is left dangling.
	w1ctx, w1cancel := context.WithCancel(ctx)
	defer w1cancel()
	w1 := mkWorker("w1", ts1.URL, &crashRunner{Runner: mkRunner(), cancel: w1cancel, crashAt: 2})
	if err := w1.Run(w1ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("crashed worker returned %v, want context.Canceled", err)
	}
	if st := coord1.Status(); st.Done < 1 {
		t.Fatalf("worker 1 crashed before completing anything: %+v", st)
	}

	// --- coordinator killed and restarted from its directory -------------
	ts1.Close()
	if err := coord1.Close(); err != nil {
		t.Fatal(err)
	}
	coord2, err := NewCoordinator(points, golden.Signature, opts)
	if err != nil {
		t.Fatalf("coordinator restart: %v", err)
	}
	defer coord2.Close()
	st := coord2.Status()
	if st.Done < 1 {
		t.Fatalf("completed shard lost across coordinator restart: %+v", st)
	}
	if st.Leased < 2 {
		// Zombie's shard and w1's crashed shard were replayed as leased
		// (fresh TTL) — they must expire before honest workers can take over.
		t.Fatalf("replayed lease table wrong: %+v, want >= 2 leased", st)
	}
	ts2 := httptest.NewServer(NewHandler(coord2, nil))
	defer ts2.Close()

	// --- honest workers finish the campaign ------------------------------
	var wg sync.WaitGroup
	werrs := make([]error, 2)
	for i := range werrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werrs[i] = mkWorker(fmt.Sprintf("w%d", i+2), ts2.URL, mkRunner()).Run(ctx)
		}(i)
	}
	select {
	case <-coord2.MergedCh():
	case <-time.After(5 * time.Minute):
		t.Fatalf("campaign did not merge in time: %+v", coord2.Status())
	}
	wg.Wait()
	for i, err := range werrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i+2, err)
		}
	}

	// --- zombie wakes up: its stale-fence upload must bounce -------------
	zerr := zombie2(ts2.URL).Complete(ctx, zresp.Grant.Shard, zresp.Grant.Fence, grantJournal(t, zresp.Grant), nil)
	if !errors.Is(zerr, ErrFenced) {
		t.Fatalf("zombie upload after re-lease and completion: %v, want ErrFenced", zerr)
	}

	st = coord2.Status()
	if !st.Merged || st.Done != st.Shards {
		t.Fatalf("campaign not fully merged: %+v", st)
	}
	if st.Counters.LeaseExpiries < 2 {
		t.Fatalf("expected the zombie's and the crashed worker's leases to expire: %+v", st.Counters)
	}
	if st.Counters.LeaseRegrants < 2 {
		t.Fatalf("expected both orphaned shards to be re-leased: %+v", st.Counters)
	}
	if st.Counters.CompletionsStale != 1 {
		t.Fatalf("fencing counter = %d, want exactly the zombie's rejected upload", st.Counters.CompletionsStale)
	}

	// --- the merged journal is the single-process journal, point for point
	merged, err := journal.Recover(coord2.Output())
	if err != nil {
		t.Fatal(err)
	}
	if merged.Torn || merged.Corrupt {
		t.Fatalf("merged journal damaged: torn=%v corrupt=%v", merged.Torn, merged.Corrupt)
	}
	// Zero lost points (full coverage) and zero duplicated points (exactly
	// one experiment frame per fault-list index).
	if len(merged.ByIndex) != len(points) {
		t.Fatalf("merged journal covers %d of %d points", len(merged.ByIndex), len(points))
	}
	if len(merged.Records) != len(points) {
		t.Fatalf("merged journal has %d experiment frames for %d points (duplicates?)", len(merged.Records), len(points))
	}

	refCampaign, err := report.Load(refPath, "")
	if err != nil {
		t.Fatal(err)
	}
	mergedCampaign, err := report.Load(coord2.Output(), "")
	if err != nil {
		t.Fatal(err)
	}
	d, err := report.Diff(refCampaign, mergedCampaign)
	if err != nil {
		t.Fatal(err)
	}
	if d.Regressions() != 0 || d.Agree != len(points) {
		t.Fatalf("merged campaign diverges from the single-process reference: %+v", d)
	}
	// Attribution records survived the merge bit for bit.
	for idx, hit := range refCampaign.Rec.HitByIndex {
		got, ok := mergedCampaign.Rec.HitByIndex[idx]
		if !ok || got != hit {
			t.Fatalf("point %d attribution lost or changed in merge: ref %+v, merged %+v (present=%v)", idx, hit, got, ok)
		}
	}
	if len(mergedCampaign.Rec.HitByIndex) != len(refCampaign.Rec.HitByIndex) {
		t.Fatalf("merged journal has %d attribution records, reference %d",
			len(mergedCampaign.Rec.HitByIndex), len(refCampaign.Rec.HitByIndex))
	}
}

// zombie2 rebinds the zombie identity to the restarted coordinator's URL
// (the original server is gone; the fence is what must do the rejecting).
func zombie2(base string) *Client {
	return &Client{BaseURL: base, Worker: "zombie"}
}
