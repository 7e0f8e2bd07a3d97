package fleet

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu/avr"
	"repro/internal/hafi"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/report"
)

// TestFleetModelCampaign is the happy-path fleet drill, run under a
// non-SEU fault model: one worker leases and executes every shard of an
// MBU campaign (reusing its device pool across shards), the coordinator
// merges the v3 shard journals, and the merged journal must be
// point-for-point identical to a single-process run. Unlike the chaos
// test this stays fast enough for -short, so the whole
// lease/run/upload/merge loop is exercised on every CI coverage pass.
// It also pins the model handshake: the worker advertises "mbu" against
// the coordinator's "mbu:2" (same model, canonical comparison), and a
// worker whose fault list was enumerated under SEU is refused by name.
func TestFleetModelCampaign(t *testing.T) {
	prog := avr.MustAssemble(chaosProgram)
	newRun := func() hafi.Run { return hafi.NewAVRRun(avr.NewCore(), prog) }
	golden, err := hafi.RecordGolden(newRun(), 10000)
	if err != nil {
		t.Fatal(err)
	}
	nl := avr.NewCore().NL
	points := hafi.ModelFaultList(nl, golden.HaltCycle, 8,
		hafi.ModelSpec{Model: hafi.ModelMBU, Span: 2})
	if len(points) < 64 {
		t.Fatalf("fault list too small for a fleet test: %d points", len(points))
	}

	mkRunner := func(model string) *CampaignRunner {
		run64, err := hafi.NewAVRRunW(avr.NewCore(), prog, 64)
		if err != nil {
			t.Fatal(err)
		}
		return &CampaignRunner{
			Ctl:    hafi.NewController(newRun(), golden),
			Points: points,
			RunsW:  []hafi.RunW{run64},
			Model:  model,
		}
	}

	// Reference: uninterrupted single-process batched campaign.
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
	if _, err := refCtl.RunCampaignBatchedPoolWithW(hafi.CampaignConfig{
		Points: points, Journal: jw,
	}, []hafi.RunW{refRun}); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	coord, err := NewCoordinator(points, golden.Signature, Options{
		Shards: 3, LeaseTTL: 5 * time.Second,
		Dir:  t.TempDir(),
		Spec: Spec{CPU: "avr", Prog: "chaos", Stride: 8, FaultModel: "mbu:2"},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(NewHandler(coord, nil))
	defer ts.Close()

	ctx := context.Background()

	// A worker whose fault list was enumerated under a different model is
	// refused by name before it runs a single experiment — even though its
	// points (and hence the fault-list hash) would actually match.
	wrong := &Worker{
		Client: &Client{BaseURL: ts.URL, Worker: "wrong-model"},
		Runner: mkRunner("seu"),
		Dir:    t.TempDir(),
		Logf:   t.Logf,
	}
	if err := wrong.Run(ctx); err == nil || !strings.Contains(err.Error(), "fault-model mismatch") {
		t.Fatalf("seu worker joined an mbu:2 fleet: %v", err)
	}

	// The honest worker advertises "mbu" — canonically equal to the
	// coordinator's "mbu:2" — and finishes all shards on one device pool.
	w := &Worker{
		Client:       &Client{BaseURL: ts.URL, Worker: "w1"},
		Runner:       mkRunner("mbu"),
		Dir:          t.TempDir(),
		Backoff:      Backoff{Base: 20 * time.Millisecond, Max: 300 * time.Millisecond},
		PollInterval: 50 * time.Millisecond,
		Logf:         t.Logf,
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	select {
	case <-coord.MergedCh():
	case <-time.After(2 * time.Minute):
		t.Fatalf("campaign did not merge in time: %+v", coord.Status())
	}
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
	st := coord.Status()
	if !st.Merged || st.Done != st.Shards {
		t.Fatalf("campaign not fully merged: %+v", st)
	}

	// The merged journal covers every point, carries the MBU record shape,
	// and matches the single-process reference point for point.
	merged, err := journal.Recover(coord.Output())
	if err != nil {
		t.Fatal(err)
	}
	if merged.Torn || merged.Corrupt {
		t.Fatalf("merged journal damaged: torn=%v corrupt=%v", merged.Torn, merged.Corrupt)
	}
	if len(merged.ByIndex) != len(points) || len(merged.Records) != len(points) {
		t.Fatalf("merged journal covers %d/%d records for %d points",
			len(merged.ByIndex), len(merged.Records), len(points))
	}
	for _, rec := range merged.Records {
		if rec.Model != 1 || rec.Span != 2 || rec.Pruned {
			t.Fatalf("merged MBU record has wrong shape: %+v", rec)
		}
	}
	refCampaign, err := report.Load(refPath, "")
	if err != nil {
		t.Fatal(err)
	}
	mergedCampaign, err := report.Load(coord.Output(), "")
	if err != nil {
		t.Fatal(err)
	}
	d, err := report.Diff(refCampaign, mergedCampaign)
	if err != nil {
		t.Fatal(err)
	}
	if d.Regressions() != 0 || d.Agree != len(points) {
		t.Fatalf("merged campaign diverges from single-process reference: %+v", d)
	}
}

// TestFleetFoldsEveryShardsLastStretch: a failure-free fleet folds exactly
// the retirement and progress counters a single process counts for the
// same list. The heartbeat interval is longer than any shard, so no
// ticker heartbeat fires: every count arrives through the heartbeats a
// worker with a registry sends when it takes a lease (the baseline) and
// before it uploads (the shard's work).
func TestFleetFoldsEveryShardsLastStretch(t *testing.T) {
	tg, err := hafi.NewTarget("avr", "fib")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := tg.Golden()
	if err != nil {
		t.Fatal(err)
	}
	points := hafi.SampledFaultList(tg.NL, golden.HaltCycle, 400)
	pool := func() []hafi.RunW {
		runs, err := tg.Pool(hafi.DefaultCampaignLanes, 1, len(points))
		if err != nil {
			t.Fatal(err)
		}
		return runs
	}
	names := []string{"campaign_held_total", "campaign_converged_total", "campaign_points_done_total"}

	ref := obs.NewRegistry()
	if _, err := hafi.NewController(tg.NewRun(), golden).RunCampaignBatchedPoolWithW(
		hafi.CampaignConfig{Points: points, Obs: ref}, pool()); err != nil {
		t.Fatal(err)
	}
	want := ref.Stats().Counters
	if want["campaign_held_total"] == 0 || want["campaign_converged_total"] == 0 {
		t.Fatalf("the list retires nothing early: %v", want)
	}

	coord, err := NewCoordinator(points, golden.Signature, Options{
		Shards: 6, LeaseTTL: 4 * time.Minute, Heartbeat: time.Minute,
		Dir:  t.TempDir(),
		Spec: Spec{CPU: "avr", Prog: "fib", Stride: 400},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(NewHandler(coord, nil))
	defer ts.Close()

	errs := make(chan error, 2)
	for _, name := range []string{"w1", "w2"} {
		reg := obs.NewRegistry()
		w := &Worker{
			Client: &Client{BaseURL: ts.URL, Worker: name},
			Runner: &CampaignRunner{Ctl: hafi.NewController(tg.NewRun(), golden), Points: points, RunsW: pool(), Obs: reg},
			Dir:    t.TempDir(), PollInterval: 20 * time.Millisecond, Obs: reg, Logf: t.Logf,
		}
		go func() { errs <- w.Run(context.Background()) }()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	st := coord.Status()
	if !st.Merged {
		t.Fatalf("campaign not merged: %+v", st)
	}
	for _, name := range names {
		if st.Counters[name] != want[name] {
			t.Errorf("%s: fleet folded %d, the single process counted %d", name, st.Counters[name], want[name])
		}
	}
}
