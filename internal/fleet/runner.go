package fleet

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hafi"
	"repro/internal/journal"
	"repro/internal/obs"
)

// ShardObs is the per-shard observability context a Worker hands its
// Runner: a live progress counter (read by the heartbeat telemetry
// sampler while the shard runs) and a bounded trace recorder whose
// snapshot becomes the trace segment uploaded with the shard journal.
// Nil-safe throughout, so a Runner can ignore it entirely.
type ShardObs struct {
	done atomic.Int64
	rec  *SegmentRecorder
}

// NewShardObs returns a fresh per-shard observability context.
func NewShardObs() *ShardObs {
	return &ShardObs{rec: NewSegmentRecorder(0)}
}

// SetDone publishes the shard's classified-point count (monotonic within
// one shard run).
func (o *ShardObs) SetDone(n int) {
	if o != nil {
		o.done.Store(int64(n))
	}
}

// Done reads the live classified-point count.
func (o *ShardObs) Done() int64 {
	if o == nil {
		return 0
	}
	return o.done.Load()
}

// Recorder returns the shard's trace recorder (nil on a nil receiver).
func (o *ShardObs) Recorder() *SegmentRecorder {
	if o == nil {
		return nil
	}
	return o.rec
}

// CampaignRunner is the production Runner: it executes shards of the
// campaign fault list on the wide HAFI engine, reusing one pool of device
// instances across every shard the worker leases (device construction is
// paid once per process, not once per shard).
type CampaignRunner struct {
	// Ctl is this worker's campaign controller. Not shareable between
	// concurrent workers: each in-process worker needs its own.
	Ctl *hafi.Controller
	// Points is the full campaign fault list (shards slice into it).
	Points []hafi.FaultPoint
	// RunsW is the device pool (e.g. 256-lane devices), reused across
	// shards.
	RunsW []hafi.RunW
	// Model is the fault model the fault list was enumerated under, in
	// -fault-model syntax (empty = "seu").
	Model string
	// MATESet enables online pruning (nil = none). Fleet campaigns receive
	// it serialized in the Spec so every worker prunes identically.
	MATESet *core.MATESet
	// DisableEarlyExit turns off the convergence early-exit.
	DisableEarlyExit bool
	// Obs receives the standard campaign metrics (nil disables).
	Obs *obs.Registry
	// Throttle sleeps this long after every classified point — a test
	// lever (campaignworker -throttle) for demonstrating straggler
	// detection against a deliberately slow worker. Zero in production.
	Throttle time.Duration
}

// Header returns the full-campaign journal identity for Spec.Check.
func (r *CampaignRunner) Header() journal.Header {
	return r.Ctl.JournalHeader(r.Points)
}

// FaultModel implements Runner.
func (r *CampaignRunner) FaultModel() string { return r.Model }

// RunShard runs fault-list range [lo, hi) and writes its journal to path.
// The journal carries the shard-slice header (golden signature + slice
// fingerprint) and local indexes 0..hi-lo-1; journal.Merge remaps them to
// global indexes at merge time.
//
// While the shard runs, obsv (optional) receives the live classified
// count via the engine's Progress callback, and the engine's spans are
// teed into obsv's segment recorder — alongside, not instead of, any
// tracer the operator attached with -trace.
func (r *CampaignRunner) RunShard(ctx context.Context, lo, hi int, path string, obsv *ShardObs) error {
	if lo < 0 || hi > len(r.Points) || lo >= hi {
		return fmt.Errorf("fleet: shard range [%d,%d) outside fault list of %d points", lo, hi, len(r.Points))
	}
	pts := r.Points[lo:hi]
	w, err := journal.Create(path, r.Ctl.JournalHeader(pts))
	if err != nil {
		return err
	}
	cfg := hafi.CampaignConfig{
		Points:           pts,
		MATESet:          r.MATESet,
		DisableEarlyExit: r.DisableEarlyExit,
		Context:          ctx,
		Journal:          w,
		Obs:              r.Obs,
	}
	if obsv != nil || r.Throttle > 0 {
		throttle := r.Throttle
		cfg.Progress = func(done int) {
			obsv.SetDone(done)
			if throttle > 0 {
				time.Sleep(throttle)
			}
		}
	}
	if r.Obs != nil && obsv != nil {
		// Tee the engine's spans into the shard's segment recorder for the
		// duration of this run; the operator's own tracer (if any) keeps
		// receiving everything.
		prev := r.Obs.Tracer()
		r.Obs.AttachTracer(obs.TeeTracer(prev, obsv.Recorder()))
		defer r.Obs.AttachTracer(prev)
	}
	res, runErr := r.Ctl.RunCampaignBatchedPoolWithW(cfg, r.RunsW)
	closeErr := w.Close()
	if runErr != nil {
		return runErr
	}
	if closeErr != nil {
		return closeErr
	}
	if res.Interrupted {
		// The journal covers only a prefix; the caller must not upload it.
		if err := ctx.Err(); err != nil {
			return err
		}
		return fmt.Errorf("fleet: shard run interrupted")
	}
	return nil
}
