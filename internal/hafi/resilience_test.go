package hafi

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
	"repro/internal/journal"
	"repro/internal/sim"
)

// --- configuration validation -------------------------------------------

func TestCampaignConfigValidation(t *testing.T) {
	c, _, g, r := goldenAVR(t)
	ctl := NewController(r, g)
	points := SampledFaultList(c.NL, g.HaltCycle, 29)[:2]
	for _, tf := range []float64{math.NaN(), -1, -0.001, 0.5, 0.999} {
		if _, err := ctl.RunCampaign(CampaignConfig{Points: points, TimeoutFactor: tf}); err == nil {
			t.Errorf("TimeoutFactor %v accepted", tf)
		}
	}
	for _, tf := range []float64{0, 1, 2, 3.5} {
		if _, err := ctl.RunCampaign(CampaignConfig{Points: points, TimeoutFactor: tf}); err != nil {
			t.Errorf("TimeoutFactor %v rejected: %v", tf, err)
		}
	}
}

// --- cancellation --------------------------------------------------------

// cancelAfter builds a campaign context that is cancelled once n points
// have been classified — the deterministic stand-in for SIGINT that the
// crash-resume tests and cmd/campaign -interruptafter share.
func cancelAfter(t *testing.T, n int) (context.Context, func(int)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx, func(done int) {
		if done >= n {
			cancel()
		}
	}
}

func checkConsistent(t *testing.T, res *CampaignResult) {
	t.Helper()
	if res.Total != res.Skipped+res.Executed {
		t.Fatalf("inconsistent partial result: %+v", res)
	}
	sum := 0
	for _, n := range res.ByOutcome {
		sum += n
	}
	if sum != res.Executed {
		t.Fatalf("outcomes %d != executed %d", sum, res.Executed)
	}
}

func TestCampaignCancelledBeforeStart(t *testing.T) {
	c, _, g, r := goldenAVR(t)
	ctl := NewController(r, g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ctl.RunCampaign(CampaignConfig{
		Points:  SampledFaultList(c.NL, g.HaltCycle, 17),
		Context: ctx,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || res.Total != 0 {
		t.Fatalf("pre-cancelled campaign ran: %+v", res)
	}
}

func TestCampaignGracefulDrain(t *testing.T) {
	c, _, g, r := goldenAVR(t)
	ctl := NewController(r, g)
	points := SampledFaultList(c.NL, g.HaltCycle, 17)
	if len(points) < 6 {
		t.Fatalf("fault list too small (%d)", len(points))
	}
	ctx, prog := cancelAfter(t, 4)
	res, err := ctl.RunCampaign(CampaignConfig{Points: points, Context: ctx, Progress: prog})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("cancelled campaign not marked interrupted")
	}
	if res.Total < 4 || res.Total >= len(points) {
		t.Fatalf("drain classified %d of %d points, want partial ≥4", res.Total, len(points))
	}
	checkConsistent(t, res)
}

// --- crash-resume equivalence -------------------------------------------

// runInterrupted runs the campaign against a fresh journal, cancelling
// after cut points, and returns the journal path plus the partial result.
func runInterrupted(t *testing.T, ctl *Controller, cfg CampaignConfig, run64 RunW, cut int) (string, *CampaignResult) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.journal")
	jw, err := journal.Create(path, ctl.JournalHeader(cfg.Points))
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	ctx, prog := cancelAfter(t, cut)
	cfg.Journal, cfg.Context, cfg.Progress = jw, ctx, prog
	var res *CampaignResult
	if run64 != nil {
		res, err = ctl.RunCampaignBatchedPoolWithW(cfg, []RunW{run64})
	} else {
		res, err = ctl.RunCampaign(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatalf("cut=%d: campaign finished before the cancellation fired (%d points) — raise the fault-list size", cut, res.Total)
	}
	checkConsistent(t, res)
	return path, res
}

// dropConvergence copies a result with the convergence early-exit and held
// rule statistics zeroed. Converged/CyclesSaved/Held describe how a run executed,
// not what it concluded: a resumed campaign replays journaled points
// without re-executing them, so it legitimately reports fewer early exits
// than the uninterrupted baseline while classifying identically.
func dropConvergence(r *CampaignResult) *CampaignResult {
	cp := *r
	cp.Converged, cp.CyclesSaved, cp.Held, cp.reorderHighWater = 0, 0, 0, 0
	return &cp
}

// resumeAndFinish recovers the journal and completes the campaign.
func resumeAndFinish(t *testing.T, ctl *Controller, cfg CampaignConfig, run64 RunW, path string) *CampaignResult {
	t.Helper()
	jw, rec, err := journal.Resume(path, ctl.JournalHeader(cfg.Points))
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	cfg.Journal, cfg.Resume = jw, rec
	var res *CampaignResult
	if run64 != nil {
		res, err = ctl.RunCampaignBatchedPoolWithW(cfg, []RunW{run64})
	} else {
		res, err = ctl.RunCampaign(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkResumeEquivalence(t *testing.T, ctl *Controller, cfg CampaignConfig, run64 RunW, cuts []int) {
	t.Helper()
	var baseline *CampaignResult
	var err error
	if run64 != nil {
		baseline, err = ctl.RunCampaignBatchedPoolWithW(cfg, []RunW{run64})
	} else {
		baseline, err = ctl.RunCampaign(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			path, partial := runInterrupted(t, ctl, cfg, run64, cut)

			// The journal must cover exactly the classified points: a
			// record for an experiment that never ran would fabricate
			// results on resume.
			rec, err := journal.Recover(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Records) != partial.Total {
				t.Fatalf("journal has %d records, partial result classified %d", len(rec.Records), partial.Total)
			}

			res := resumeAndFinish(t, ctl, cfg, run64, path)
			if !reflect.DeepEqual(dropConvergence(res), dropConvergence(baseline)) {
				t.Fatalf("resumed result diverges from uninterrupted run:\n  resumed:  %+v\n  baseline: %+v", res, baseline)
			}

			// After completion the journal holds every point once.
			fin, err := journal.Recover(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(fin.Records) != len(cfg.Points) || fin.Torn || fin.Corrupt {
				t.Fatalf("final journal: %d records (want %d), torn=%v corrupt=%v",
					len(fin.Records), len(cfg.Points), fin.Torn, fin.Corrupt)
			}
		})
	}
}

func TestCrashResumeSequential(t *testing.T) {
	c, _, g, r := goldenAVR(t)
	ctl := NewController(r, g)
	points := SampledFaultList(c.NL, g.HaltCycle, 13)
	checkResumeEquivalence(t, ctl, CampaignConfig{Points: points}, nil, []int{1, 5, len(points) / 2})
}

func TestCrashResumeSequentialPruned(t *testing.T) {
	c, _, g, r := goldenAVR(t)
	set := core.Search(c.NL, c.NL.FFQWires(), core.DefaultSearchParams()).Set
	ctl := NewController(r, g)
	points := SampledFaultList(c.NL, g.HaltCycle, 13)
	checkResumeEquivalence(t, ctl,
		CampaignConfig{Points: points, MATESet: set, ValidateSkipped: true},
		nil, []int{3, len(points) / 2})
}

func TestCrashResumeBatched(t *testing.T) {
	c, prog, g, r := goldenAVR(t)
	run64, err := NewAVRRunW(c, prog, 64)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(r, g)
	points := SampledFaultList(c.NL, g.HaltCycle, 13)
	checkResumeEquivalence(t, ctl, CampaignConfig{Points: points}, run64, []int{1, len(points) / 2})
}

func TestCrashResumeBatchedPruned(t *testing.T) {
	c, prog, g, r := goldenAVR(t)
	run64, err := NewAVRRunW(c, prog, 64)
	if err != nil {
		t.Fatal(err)
	}
	set := core.Search(c.NL, c.NL.FFQWires(), core.DefaultSearchParams()).Set
	ctl := NewController(r, g)
	points := SampledFaultList(c.NL, g.HaltCycle, 13)
	checkResumeEquivalence(t, ctl,
		CampaignConfig{Points: points, MATESet: set, ValidateSkipped: true},
		run64, []int{3, len(points) / 2})
}

// TestResumeCompletedCampaign resumes from a journal that already holds
// every record: nothing re-executes and the result is reproduced exactly.
func TestResumeCompletedCampaign(t *testing.T) {
	c, _, g, r := goldenAVR(t)
	ctl := NewController(r, g)
	points := SampledFaultList(c.NL, g.HaltCycle, 13)
	path := filepath.Join(t.TempDir(), "done.journal")
	jw, err := journal.Create(path, ctl.JournalHeader(points))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := ctl.RunCampaign(CampaignConfig{Points: points, Journal: jw})
	if err != nil {
		t.Fatal(err)
	}
	jw.Close()

	executed := 0
	res := resumeAndFinish(t, ctl, CampaignConfig{
		Points:   points,
		Progress: func(int) { executed++ },
	}, nil, path)
	if executed != 0 {
		t.Fatalf("resume of a complete journal re-executed %d points", executed)
	}
	if !reflect.DeepEqual(dropConvergence(res), dropConvergence(baseline)) {
		t.Fatalf("replayed result diverges:\n  replayed: %+v\n  baseline: %+v", res, baseline)
	}
}

// TestResumeForeignJournalRejected: a journal recorded for a different
// fault list must not be merged into this campaign.
func TestResumeForeignJournalRejected(t *testing.T) {
	c, _, g, r := goldenAVR(t)
	ctl := NewController(r, g)
	points := SampledFaultList(c.NL, g.HaltCycle, 13)
	path := filepath.Join(t.TempDir(), "foreign.journal")
	jw, err := journal.Create(path, ctl.JournalHeader(points))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.RunCampaign(CampaignConfig{Points: points[:4], Journal: jw}); err != nil {
		t.Fatal(err)
	}
	jw.Close()
	rec, err := journal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.RunCampaign(CampaignConfig{Points: points[1:], Resume: rec}); err == nil {
		t.Fatal("foreign journal accepted as resume state")
	}
}

// --- panic isolation -----------------------------------------------------

// panicRun wraps a device instance and panics exactly once: the trip arms
// when the campaign restores the checkpoint of tripCycle and fires on the
// next Step. With a fault list of unique injection cycles this poisons
// exactly one experiment.
type panicRun struct {
	Run
	golden    *Golden
	tripCycle int
	tripped   *atomic.Bool
	armed     bool
}

func (p *panicRun) Restore(cp Checkpoint) {
	p.Run.Restore(cp)
	p.armed = !p.tripped.Load() && cp == p.golden.Checkpoints[p.tripCycle]
}

func (p *panicRun) Step() {
	if p.armed && p.tripped.CompareAndSwap(false, true) {
		p.armed = false
		panic("injected harness fault")
	}
	p.Run.Step()
}

// uniqueCyclePoints builds a fault list with one point per injection
// cycle so a cycle-keyed trip poisons exactly one experiment.
func uniqueCyclePoints(g *Golden, n, ffs int) []FaultPoint {
	if n > g.HaltCycle {
		n = g.HaltCycle
	}
	points := make([]FaultPoint, n)
	for i := range points {
		points[i] = FaultPoint{FF: i % ffs, Cycle: i}
	}
	return points
}

// journalByIndex runs the campaign with a journal and returns the
// per-point records (the ground truth for comparing verdicts).
func journalByIndex(t *testing.T, ctl *Controller, cfg CampaignConfig, run64 RunW) (map[uint64]journal.Record, *CampaignResult) {
	t.Helper()
	_, recs, res := journalOf(t, ctl, cfg, func(cfg CampaignConfig) (*CampaignResult, error) {
		if run64 != nil {
			return ctl.RunCampaignBatchedPoolWithW(cfg, []RunW{run64})
		}
		return ctl.RunCampaign(cfg)
	})
	return recs, res
}

// journalOf runs exec against a fresh journal and returns the journal's
// bytes, its records by fault-list index and the campaign result.
func journalOf(t *testing.T, ctl *Controller, cfg CampaignConfig, exec func(CampaignConfig) (*CampaignResult, error)) ([]byte, map[uint64]journal.Record, *CampaignResult) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "verdicts.journal")
	jw, err := journal.Create(path, ctl.JournalHeader(cfg.Points))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = jw
	res, err := exec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := journal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw, rec.ByIndex, res
}

func TestPanicIsolationSequential(t *testing.T) {
	c, prog, g, r := goldenAVR(t)
	points := uniqueCyclePoints(g, 12, len(c.NL.FFs))
	tripIdx := 7
	tripCycle := points[tripIdx].Cycle

	baseline, _ := journalByIndex(t, NewController(r, g), CampaignConfig{Points: points}, nil)

	pr := &panicRun{
		Run:       NewAVRRun(avr.NewCore(), prog),
		golden:    g,
		tripCycle: tripCycle,
		tripped:   new(atomic.Bool),
	}
	got, res := journalByIndex(t, NewController(pr, g), CampaignConfig{Points: points}, nil)

	if res.ByOutcome[OutcomeHarnessError] != 1 {
		t.Fatalf("harness errors = %d, want exactly 1 (%+v)", res.ByOutcome[OutcomeHarnessError], res)
	}
	if res.Total != len(points) || res.Executed != len(points) {
		t.Fatalf("campaign did not complete past the panic: %+v", res)
	}
	for idx, rec := range got {
		want := baseline[idx]
		if idx == uint64(tripIdx) {
			if Outcome(rec.Outcome) != OutcomeHarnessError {
				t.Fatalf("poisoned point %d classified %v, want harness-error", idx, Outcome(rec.Outcome))
			}
			continue
		}
		if rec != want {
			t.Fatalf("point %d disturbed by neighbouring panic: got %+v, want %+v", idx, rec, want)
		}
	}
}

// panicRunW panics whenever the campaign injects into tripFF: the whole
// batch aborts, and only the lane-by-lane retry pins the harness error on
// the offending point.
type panicRunW struct {
	RunW
	tripFF int
}

func (p *panicRunW) FlipLane(ff, lane int) {
	if ff == p.tripFF {
		panic("injected lane fault")
	}
	p.RunW.FlipLane(ff, lane)
}

func TestPanicIsolationBatched(t *testing.T) {
	c, prog, g, r := goldenAVR(t)
	// One batch: distinct FFs, shared injection cycle.
	nffs := len(c.NL.FFs)
	if nffs > 10 {
		nffs = 10
	}
	points := make([]FaultPoint, nffs)
	for i := range points {
		points[i] = FaultPoint{FF: i, Cycle: 3}
	}
	tripFF := nffs / 2

	clean64, err := NewAVRRunW(c, prog, 64)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(r, g)
	baseline, _ := journalByIndex(t, ctl, CampaignConfig{Points: points}, clean64)

	faulty64, err := NewAVRRunW(avr.NewCore(), prog, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, res := journalByIndex(t, ctl, CampaignConfig{Points: points},
		&panicRunW{RunW: faulty64, tripFF: tripFF})

	if res.ByOutcome[OutcomeHarnessError] != 1 {
		t.Fatalf("harness errors = %d, want exactly 1 (%+v)", res.ByOutcome[OutcomeHarnessError], res)
	}
	for idx, rec := range got {
		want := baseline[idx]
		if rec.FF == uint32(tripFF) {
			if Outcome(rec.Outcome) != OutcomeHarnessError {
				t.Fatalf("poisoned lane classified %v, want harness-error", Outcome(rec.Outcome))
			}
			continue
		}
		if rec != want {
			t.Fatalf("lane %d disturbed by batch-mate panic: got %+v, want %+v", idx, rec, want)
		}
	}
}

// refusingRunW takes no checkpoint at all, like a device of another target
// whose netlist happens to have the controller's shape.
type refusingRunW struct{ RunW }

func (refusingRunW) LoadCheckpoint(cp Checkpoint) {
	panic(fmt.Sprintf("checkpoint type %T is not mine", cp))
}

// foreignEnvRunW runs an environment of its own, which has no lane write
// digests for the retirement filter to read.
type foreignEnvRunW struct{ RunW }

func (foreignEnvRunW) EnvW() sim.EnvW { return sim.EnvWFunc(func(*sim.MachineW) {}) }

// TestPoolRefusesForeignDevice: a device the campaign could only turn into
// harness errors — another target's, or one that does not take the golden
// checkpoints — is refused at the entry point, by pool index, before a
// single point is classified or journaled. So are a nil device and an empty
// pool.
func TestPoolRefusesForeignDevice(t *testing.T) {
	c, prog, g, r := goldenAVR(t)
	ctl := NewController(r, g)
	points := SampledFaultList(c.NL, g.HaltCycle, 40)
	own, err := NewAVRRunW(c, prog, 64)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := NewMSP430RunW(msp430.NewCore(), msp430.MustAssemble("halt"), 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pool []RunW
		want string
	}{
		{"other target", []RunW{foreign}, "device 0"},
		{"other target behind a good device", []RunW{own, foreign}, "device 1"},
		{"refuses the checkpoint", []RunW{own, refusingRunW{own}}, "device 1"},
		{"hides its write digests", []RunW{own, foreignEnvRunW{own}}, "device 1: hafi.foreignEnvRunW exposes no lane write digests (its EnvW is a sim.EnvWFunc"},
		{"nil device", []RunW{own, nil}, "device 1"},
		{"empty pool", nil, "at least one device"},
	} {
		path := filepath.Join(t.TempDir(), "verdicts.journal")
		jw, err := journal.Create(path, ctl.JournalHeader(points))
		if err != nil {
			t.Fatal(err)
		}
		res, err := ctl.RunCampaignBatchedPoolWithW(CampaignConfig{Points: points, Journal: jw}, tc.pool)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: result %+v, error %v; want an error naming %q", tc.name, res, err, tc.want)
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		rec, err := journal.Recover(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.ByIndex) != 0 {
			t.Errorf("%s: %d records journaled by a refused campaign", tc.name, len(rec.ByIndex))
		}
	}
}
