package repro

// Differential test: independent implementations of the pruned fault
// space must agree point for point on the quickstart workload —
//
//  1. the offline replay (prune.MaskedGrid over the golden trace),
//  2. the sequential campaign controller (hafi.RunCampaign),
//  3. the wide engine (hafi.RunCampaignBatchedPoolWithW) on one 64-lane
//     device, and
//  4. the wide engine on a pool of 64-lane devices with the convergence
//     early-exit disabled (DisableEarlyExit) — the full-run reference that
//     proves the early-exit never changes a verdict.
//
// Every campaign engine journals every classified point; the journals are
// recovered and compared record by record (pruned flag AND outcome), so any
// divergence names the exact (FF, cycle) point. This is the strongest
// cheap consistency check the pipeline has: the replay and the engines
// share the MATE set but nothing of their execution machinery.

import (
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hafi"
	"repro/internal/journal"
	"repro/internal/prune"
)

func TestDifferentialPruneCampaignBatched(t *testing.T) {
	if testing.Short() {
		t.Skip("differential campaign comparison is not short")
	}
	c := experiments.PrepareAVR()
	prog := c.FibProg

	run := c.NewRun(prog)
	golden, err := hafi.RecordGolden(run, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	set := core.Search(c.NL, c.FaultAll, core.DefaultSearchParams()).Set

	// Every FF at every 1500th cycle, thinned to every 4th point: keeps
	// cycle and flip-flop diversity while the sequential engine (the slow
	// side of the comparison) stays test-suite friendly.
	const stride = 1500
	full := hafi.SampledFaultList(c.NL, golden.HaltCycle, stride)
	var points []hafi.FaultPoint
	for i := 0; i < len(full); i += 4 {
		points = append(points, full[i])
	}
	if len(points) < 100 {
		t.Fatalf("fault list too small for a meaningful comparison: %d points", len(points))
	}

	// Implementation 1: offline replay. MaskedGrid and the campaign's
	// online provedBenign check must make identical per-point decisions.
	grid := prune.MaskedGrid(set, golden.Trace, c.FaultAll)
	wantPruned := make([]bool, len(points))
	for i, p := range points {
		wantPruned[i] = grid[p.Cycle][p.FF] // FaultAll is in FF order
	}

	dir := t.TempDir()
	runJournaled := func(name string, exec func(cfg hafi.CampaignConfig) (*hafi.CampaignResult, error)) ([]journal.Record, *hafi.CampaignResult) {
		t.Helper()
		path := filepath.Join(dir, name+".journal")
		ctl := hafi.NewControllerPool(func() hafi.Run { return c.NewRun(prog) }, golden)
		jw, err := journal.Create(path, ctl.JournalHeader(points))
		if err != nil {
			t.Fatal(err)
		}
		res, err := exec(hafi.CampaignConfig{
			Points:  points,
			MATESet: set,
			Journal: jw,
		})
		if err != nil {
			t.Fatalf("%s campaign: %v", name, err)
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		rec, err := journal.Recover(path)
		if err != nil {
			t.Fatalf("%s journal recovery: %v", name, err)
		}
		if len(rec.ByIndex) != len(points) {
			t.Fatalf("%s journal has %d records, want %d", name, len(rec.ByIndex), len(points))
		}
		out := make([]journal.Record, len(points))
		for idx, r := range rec.ByIndex {
			out[idx] = r
		}
		return out, res
	}

	// Implementation 2: sequential controller (sharded over a worker pool).
	seqRecs, seqRes := runJournaled("sequential", func(cfg hafi.CampaignConfig) (*hafi.CampaignResult, error) {
		cfg.Workers = runtime.NumCPU()
		ctl := hafi.NewControllerPool(func() hafi.Run { return c.NewRun(prog) }, golden)
		return ctl.RunCampaign(cfg)
	})

	// Implementation 3: the wide engine on one 64-lane device.
	batchRecs, batchRes := runJournaled("batched", func(cfg hafi.CampaignConfig) (*hafi.CampaignResult, error) {
		return runPool64(c, prog, golden, cfg, 1)
	})

	// Implementation 4: a pool of 64-lane devices with the convergence
	// early-exit disabled — every experiment runs to halt or timeout, so
	// agreement with the early-exiting engines proves the exit sound on
	// this fault list.
	fullRecs, fullRes := runJournaled("full-run", func(cfg hafi.CampaignConfig) (*hafi.CampaignResult, error) {
		cfg.DisableEarlyExit = true
		return runPool64(c, prog, golden, cfg, runtime.NumCPU())
	})
	if fullRes.Converged != 0 {
		t.Errorf("DisableEarlyExit run reports %d converged experiments, want 0", fullRes.Converged)
	}

	for i, p := range points {
		seq, bat, ful := seqRecs[i], batchRecs[i], fullRecs[i]
		if seq.Pruned != wantPruned[i] {
			t.Errorf("point %d (ff=%d cycle=%d): sequential pruned=%v, replay grid says %v",
				i, p.FF, p.Cycle, seq.Pruned, wantPruned[i])
		}
		if bat.Pruned != wantPruned[i] {
			t.Errorf("point %d (ff=%d cycle=%d): batched pruned=%v, replay grid says %v",
				i, p.FF, p.Cycle, bat.Pruned, wantPruned[i])
		}
		if seq.Pruned != bat.Pruned || (!seq.Pruned && seq.Outcome != bat.Outcome) {
			t.Errorf("point %d (ff=%d cycle=%d): sequential (pruned=%v outcome=%d) != batched (pruned=%v outcome=%d)",
				i, p.FF, p.Cycle, seq.Pruned, seq.Outcome, bat.Pruned, bat.Outcome)
		}
		if seq.Pruned != ful.Pruned || (!seq.Pruned && seq.Outcome != ful.Outcome) {
			t.Errorf("point %d (ff=%d cycle=%d): early-exit (pruned=%v outcome=%d) != full-run (pruned=%v outcome=%d)",
				i, p.FF, p.Cycle, seq.Pruned, seq.Outcome, ful.Pruned, ful.Outcome)
		}
		if t.Failed() && i > 20 {
			t.Fatal("aborting after repeated divergence")
		}
	}

	// Aggregate cross-check: identical totals, outcome histograms and
	// per-MATE attribution across all engines.
	for _, o := range []struct {
		name string
		res  *hafi.CampaignResult
	}{{"batched", batchRes}, {"full-run", fullRes}} {
		if seqRes.Total != o.res.Total || seqRes.Skipped != o.res.Skipped || seqRes.Executed != o.res.Executed {
			t.Errorf("aggregate mismatch: sequential %+v, %s %+v", seqRes, o.name, o.res)
		}
		for out, n := range seqRes.ByOutcome {
			if o.res.ByOutcome[out] != n {
				t.Errorf("outcome %s: sequential %d, %s %d", out, n, o.name, o.res.ByOutcome[out])
			}
		}
		if !reflect.DeepEqual(seqRes.PrunedByMATE, o.res.PrunedByMATE) {
			t.Errorf("per-MATE attribution: sequential %v, %s %v", seqRes.PrunedByMATE, o.name, o.res.PrunedByMATE)
		}
	}
	// The scalar and batched engines walk the same state/digest evolution
	// per experiment, so their convergence counts must agree exactly.
	if seqRes.Converged != batchRes.Converged || seqRes.CyclesSaved != batchRes.CyclesSaved {
		t.Errorf("convergence stats: sequential %d/%d, batched %d/%d",
			seqRes.Converged, seqRes.CyclesSaved, batchRes.Converged, batchRes.CyclesSaved)
	}
	t.Logf("%d points: %d pruned, %d executed, %d converged early (%d cycles saved), outcomes %v",
		seqRes.Total, seqRes.Skipped, seqRes.Executed, seqRes.Converged, seqRes.CyclesSaved, seqRes.ByOutcome)
}

// TestDifferentialEarlyExitNoPrune compares the early-exiting engines with
// the full-run reference without any MATE set attached: every point
// executes, so the early-exit soundness is probed on the complete sampled
// list (not just the points the MATEs leave behind). The pool engine's
// journal must additionally be byte-compatible with the single-instance
// engine's record stream.
func TestDifferentialEarlyExitNoPrune(t *testing.T) {
	if testing.Short() {
		t.Skip("differential campaign comparison is not short")
	}
	c := experiments.PrepareAVR()
	prog := c.FibProg

	run := c.NewRun(prog)
	golden, err := hafi.RecordGolden(run, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	points := hafi.SampledFaultList(c.NL, golden.HaltCycle, 2000)
	if len(points) < 100 {
		t.Fatalf("fault list too small: %d points", len(points))
	}

	dir := t.TempDir()
	runEngine := func(name string, disable bool, workers int) ([]journal.Record, *hafi.CampaignResult) {
		t.Helper()
		path := filepath.Join(dir, name+".journal")
		ctl := hafi.NewControllerPool(func() hafi.Run { return c.NewRun(prog) }, golden)
		jw, err := journal.Create(path, ctl.JournalHeader(points))
		if err != nil {
			t.Fatal(err)
		}
		res, err := runPool64(c, prog, golden, hafi.CampaignConfig{
			Points:           points,
			Journal:          jw,
			DisableEarlyExit: disable,
		}, workers)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		rec, err := journal.Recover(path)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]journal.Record, len(points))
		for idx, r := range rec.ByIndex {
			out[idx] = r
		}
		return out, res
	}

	earlyRecs, earlyRes := runEngine("early", false, 1)
	poolRecs, poolRes := runEngine("pool", false, runtime.NumCPU())
	fullRecs, fullRes := runEngine("full", true, runtime.NumCPU())

	if earlyRes.Converged == 0 {
		t.Error("early-exit campaign retired no experiments — the convergence check never fired (test lost its teeth)")
	}
	if fullRes.Converged != 0 {
		t.Errorf("DisableEarlyExit run reports %d converged, want 0", fullRes.Converged)
	}
	if earlyRes.Converged != poolRes.Converged || earlyRes.CyclesSaved != poolRes.CyclesSaved {
		t.Errorf("pool convergence stats diverge: single %d/%d, pool %d/%d",
			earlyRes.Converged, earlyRes.CyclesSaved, poolRes.Converged, poolRes.CyclesSaved)
	}
	for i, p := range points {
		e, pl, f := earlyRecs[i], poolRecs[i], fullRecs[i]
		if e != pl {
			t.Errorf("point %d (ff=%d cycle=%d): single-instance record %+v != pool record %+v", i, p.FF, p.Cycle, e, pl)
		}
		if e.Outcome != f.Outcome {
			t.Errorf("point %d (ff=%d cycle=%d): early-exit outcome %d != full-run outcome %d", i, p.FF, p.Cycle, e.Outcome, f.Outcome)
		}
		if t.Failed() && i > 20 {
			t.Fatal("aborting after repeated divergence")
		}
	}
	for o, n := range fullRes.ByOutcome {
		if earlyRes.ByOutcome[o] != n {
			t.Errorf("outcome %s: early-exit %d, full-run %d", o, earlyRes.ByOutcome[o], n)
		}
	}
	t.Logf("%d points, %d converged early (%d cycles saved), outcomes %v",
		earlyRes.Total, earlyRes.Converged, earlyRes.CyclesSaved, earlyRes.ByOutcome)
}

// runPool64 runs cfg through the wide engine's one entry point on a pool of
// up to workers 64-lane devices — W=1 is a width like any other.
func runPool64(c *experiments.CPUCase, prog []uint16, golden *hafi.Golden, cfg hafi.CampaignConfig, workers int) (*hafi.CampaignResult, error) {
	runs, err := c.NewPool(prog, 64, workers, len(cfg.Points))
	if err != nil {
		return nil, err
	}
	return hafi.NewController(c.NewRun(prog), golden).RunCampaignBatchedPoolWithW(cfg, runs)
}
