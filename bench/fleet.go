package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/hafi"
	"repro/internal/journal"
)

// fleetTrace collects what the traced fleet rep measures from outside the
// fleet package: one span per RPC (handler middleware) and per shard run
// (Runner decorator), plus each worker's wall time.
type fleetTrace struct {
	rec    *recorder
	parent int
	// devices[i] is worker i's traced device; its batch spans hang under
	// the shard span that worker is currently running.
	devices []*tracedRunW

	mu         sync.Mutex
	workerWall time.Duration
}

// middleware times every coordinator RPC by path.
func (ft *fleetTrace) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := ft.rec.begin(ft.parent, "fleet.rpc"+r.URL.Path)
		h.ServeHTTP(w, r)
		ft.rec.end(sp)
	})
}

// tracedRunner decorates a fleet.Runner with a span per shard run.
type tracedRunner struct {
	fleet.Runner
	ft  *fleetTrace
	dev *tracedRunW
}

func (tr *tracedRunner) RunShard(ctx context.Context, lo, hi int, path string, obsv *fleet.ShardObs) error {
	sp := tr.ft.rec.begin(tr.ft.parent, "fleet.shard_run")
	tr.dev.retarget(sp)
	err := tr.Runner.RunShard(ctx, lo, hi, path, obsv)
	tr.dev.retarget(0)
	tr.ft.rec.endDetail(sp, fmt.Sprintf("points [%d,%d)", lo, hi))
	return err
}

// fleetRig is one campaign's coordinator, loopback server and workers. A
// coordinator serves exactly one campaign, so every rep builds a new rig;
// building it is part of set-up, not of campaign_s.
type fleetRig struct {
	dir     string
	coord   *fleet.Coordinator
	server  *httptest.Server
	workers []*fleet.Worker
}

func (fx *fixture) newFleetRig(dir string, runs []hafi.RunW, ft *fleetTrace) (*fleetRig, error) {
	rigDir, err := os.MkdirTemp(dir, "fleet-*")
	if err != nil {
		return nil, err
	}
	spec, err := hafi.ParseModelSpec(fx.wl.model)
	if err != nil {
		return nil, err
	}
	coord, err := fleet.NewCoordinator(fx.points, fx.golden.Signature, fleet.Options{
		Shards: fleetShards,
		Dir:    filepath.Join(rigDir, "coordinator"),
		Spec: fleet.Spec{
			CPU: fx.wl.cpu, Prog: fx.wl.prog, Stride: fx.wl.stride,
			FaultModel: spec.String(), MATESet: fx.mateTxt,
		},
	})
	if err != nil {
		os.RemoveAll(rigDir)
		return nil, err
	}
	handler := fleet.NewHandler(coord, nil)
	if ft != nil {
		handler = ft.middleware(handler)
	}
	rig := &fleetRig{dir: rigDir, coord: coord, server: httptest.NewServer(handler)}
	for i, run := range runs {
		var runner fleet.Runner = &fleet.CampaignRunner{
			Ctl: fx.ctls[i], Points: fx.points, RunsW: []hafi.RunW{run},
			Model: spec.String(), MATESet: fx.set,
		}
		if ft != nil {
			runner = &tracedRunner{Runner: runner, ft: ft, dev: ft.devices[i]}
		}
		rig.workers = append(rig.workers, &fleet.Worker{
			Client:       &fleet.Client{BaseURL: rig.server.URL, Worker: fmt.Sprintf("w%d", i)},
			Runner:       runner,
			Dir:          filepath.Join(rigDir, fmt.Sprintf("worker%d", i)),
			PollInterval: fleetPoll,
		})
	}
	return rig, nil
}

// close stops the server and coordinator and removes the rig's files.
func (rig *fleetRig) close() {
	rig.server.Close()
	rig.coord.Close()
	os.RemoveAll(rig.dir)
}

// run starts every worker and returns the time from the first start to the
// closing of MergedCh. It waits for the workers to exit before returning.
func (rig *fleetRig) run(ft *fleetTrace) (time.Duration, uint64, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, len(rig.workers))
	meter := startMeter()
	for _, w := range rig.workers {
		go func(w *fleet.Worker) {
			t0 := time.Now()
			err := w.Run(ctx)
			if ft != nil {
				ft.mu.Lock()
				ft.workerWall += time.Since(t0)
				ft.mu.Unlock()
			}
			errs <- err
		}(w)
	}
	var wall time.Duration
	var alloc uint64
	var firstErr error
	exited := 0
	merged := rig.coord.MergedCh()
	for exited < len(rig.workers) {
		select {
		case <-merged:
			wall, alloc = meter.stop()
			merged = nil
		case err := <-errs:
			exited++
			if err != nil && firstErr == nil {
				firstErr = err
				cancel()
			}
		}
	}
	if firstErr != nil {
		return 0, 0, firstErr
	}
	if merged != nil {
		// Workers leave only on "done", which the coordinator says after the
		// merge; seeing them all gone without it is a coordinator failure.
		select {
		case <-merged:
			wall, alloc = meter.stop()
		default:
			return 0, 0, fmt.Errorf("fleet: every worker exited but the campaign never merged: %+v", rig.coord.Status().Counters)
		}
	}
	return wall, alloc, nil
}

// runFleetRep runs the fault list through a fresh coordinator and two
// workers. The merged journal is always produced (that is what a fleet
// does), so every fleet rep yields digests.
func (fx *fixture) runFleetRep(dir string, o repOpts) (*repResult, error) {
	rig, err := fx.newFleetRig(dir, o.runs, o.fleet)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	wall, alloc, err := rig.run(o.fleet)
	if err != nil {
		return nil, err
	}
	jv, err := readJournal(rig.coord.Output())
	if err != nil {
		return nil, err
	}
	out := &repResult{wall: wall, alloc: alloc, stats: statsOfJournal(jv.rec), journal: jv}
	if o.journal != "" {
		// Keep the merged journal and the spooled shards for the layer
		// measurements that re-read them.
		if err := os.Rename(rig.coord.Output(), o.journal); err != nil {
			return nil, err
		}
		for _, sh := range fleet.PlanShards(fx.points, fleetShards) {
			name := fmt.Sprintf("shard-%04d.journal", sh.ID)
			if err := os.Rename(filepath.Join(rig.dir, "coordinator", name), o.journal+"."+name); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// statsOfJournal rebuilds the simulated statistics from a merged journal:
// the fleet has no CampaignResult of its own. Convergence counts are an
// execution statistic the journal does not carry, so they stay zero here
// and are compared only among fleet reps.
func statsOfJournal(rec *journal.Recovered) simStats {
	var s simStats
	for _, r := range rec.ByIndex {
		s.Points++
		if r.Pruned {
			s.Pruned++
			continue
		}
		s.Executed++
		switch hafi.Outcome(r.Outcome) {
		case hafi.OutcomeBenign:
			s.Benign++
		case hafi.OutcomeSDC:
			s.SDC++
		case hafi.OutcomeHang:
			s.Hang++
		case hafi.OutcomeHarnessError:
			s.HarnessErr++
		}
	}
	for i := range rec.HitByIndex {
		if rec.ByIndex[i].Pruned {
			s.PrunedHits++
		}
	}
	return s
}
