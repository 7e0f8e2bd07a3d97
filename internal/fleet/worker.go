package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
)

// Runner executes shards of the campaign fault list locally. Header must
// return the full-campaign journal identity (the worker proves to itself,
// via Spec.Check, that its local reconstruction matches the coordinator's
// before touching a single shard); RunShard must write a complete shard
// journal for [lo, hi) to path, or return an error (ctx.Err() when the
// shard was cancelled mid-run and the journal is incomplete).
type Runner interface {
	Header() journal.Header
	// FaultModel names the model the fault list was enumerated under, in
	// -fault-model syntax (empty = "seu"); Spec.Check rejects a worker
	// whose model disagrees with the coordinator's.
	FaultModel() string
	// RunShard executes [lo, hi) into the journal at path. obsv (may be
	// nil) is the shard's observability context: runners that support it
	// publish live progress through obsv.SetDone and record their spans
	// into obsv.Recorder() so the worker can heartbeat telemetry and
	// upload a trace segment.
	RunShard(ctx context.Context, lo, hi int, path string, obsv *ShardObs) error
}

// Worker is the fleet client loop: lease a shard, run it under a heartbeat,
// upload the journal with retries, repeat until the coordinator says done.
//
// Failure behavior, by failure mode:
//
//   - coordinator down/restarting: every RPC retries with jittered
//     exponential backoff (transient classification via HTTPError.Temporary);
//   - lease lost (fencing 409 on heartbeat or completion): the shard is
//     abandoned without error — some other worker owns it now — and the
//     loop leases the next one;
//   - SIGINT (via Drain): the current shard is finished and uploaded, then
//     the loop exits cleanly; cancelling the context instead aborts the
//     shard mid-run.
type Worker struct {
	Client *Client
	Runner Runner
	// Dir holds the in-progress shard journals (one file per lease).
	Dir string
	// Backoff is the RPC retry policy (zero value = library defaults).
	Backoff Backoff
	// PollInterval paces lease polling while every shard is leased elsewhere
	// (default: the coordinator's advertised heartbeat interval).
	PollInterval time.Duration
	// Obs receives fleet_worker_* metrics and is sampled for the heartbeat
	// telemetry snapshots (nil disables both).
	Obs *obs.Registry
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...interface{})
	// Events receives the worker's structured event stream (nil disables).
	Events *obs.EventLog

	draining atomic.Bool
}

// Drain requests a graceful exit: the worker finishes (and uploads) the
// shard it is currently running, then leaves the lease loop. Safe to call
// from any goroutine — the SIGINT handler's entry point.
func (w *Worker) Drain() { w.draining.Store(true) }

func (w *Worker) logf(format string, args ...interface{}) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// workerMetrics holds the worker's fleet_worker_* handles. Without a
// registry they are nil, and nil obs handles are no-ops.
type workerMetrics struct {
	shards, retries, lost *obs.Counter
	busy                  *obs.Gauge
}

func newWorkerMetrics(reg *obs.Registry) workerMetrics {
	return workerMetrics{
		shards:  reg.Counter("fleet_worker_shards_total"),
		retries: reg.Counter("fleet_worker_upload_retries_total"),
		lost:    reg.Counter("fleet_worker_leases_lost_total"),
		busy:    reg.Gauge("fleet_worker_busy"),
	}
}

// Run executes the lease loop until the campaign is done, the context is
// cancelled, or an unrecoverable local error occurs. Returns nil both on
// campaign completion and on a drained exit.
func (w *Worker) Run(ctx context.Context) error {
	if w.Dir != "" {
		if err := os.MkdirAll(w.Dir, 0o755); err != nil {
			return fmt.Errorf("fleet: creating worker scratch dir: %w", err)
		}
	}
	met := newWorkerMetrics(w.Obs)
	bo := w.Backoff
	userHook := bo.OnRetry
	bo.OnRetry = func(attempt int, err error) {
		met.retries.Inc()
		w.logf("fleet: rpc failed (attempt %d, retrying): %v", attempt+1, err)
		if userHook != nil {
			userHook(attempt, err)
		}
	}

	// Fetch the spec (bounded retries: a wrong address must fail, not hang)
	// and refuse to join a fleet whose campaign we cannot reproduce.
	var spec Spec
	err := bo.Retry(ctx, 10, func() error {
		var err error
		spec, err = w.Client.Spec(ctx)
		return err
	})
	if err != nil {
		return fmt.Errorf("fleet: fetching campaign spec: %w", err)
	}
	if err := spec.Check(w.Runner.Header(), w.Runner.FaultModel()); err != nil {
		return err
	}
	heartbeat := time.Duration(spec.HeartbeatMillis) * time.Millisecond
	if heartbeat <= 0 {
		heartbeat = time.Second
	}
	w.Events.Event(obs.LevelInfo, "worker.join",
		fmt.Sprintf("joined fleet (campaign trace %s)", spec.TraceID),
		"worker", w.Client.Worker, "trace_id", spec.TraceID)
	poll := w.PollInterval
	if poll <= 0 {
		poll = heartbeat
	}

	for {
		if w.draining.Load() {
			w.logf("fleet: drained: exiting before taking another lease")
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		// Bounded retries (~1 min at default backoff): a coordinator restart
		// is waited out, a permanently gone coordinator ends the worker with
		// an error instead of an infinite poll.
		var resp LeaseResponse
		err := bo.Retry(ctx, 12, func() error {
			var err error
			resp, err = w.Client.Lease(ctx)
			return err
		})
		if err != nil {
			return fmt.Errorf("fleet: leasing: %w", err)
		}
		switch resp.Status {
		case "done":
			w.logf("fleet: campaign complete: worker exiting")
			return nil
		case "wait":
			if err := sleepContext(ctx, poll); err != nil {
				return err
			}
		case "lease":
			if err := w.runShard(ctx, resp.Grant, heartbeat, bo, met); err != nil {
				return err
			}
		default:
			return fmt.Errorf("fleet: coordinator sent unknown lease status %q", resp.Status)
		}
	}
}

// runShard executes one granted shard under a heartbeat and uploads the
// result. A lost lease (fenced heartbeat or completion) abandons the shard
// and returns nil — the lease loop moves on.
func (w *Worker) runShard(ctx context.Context, grant LeaseGrant, heartbeat time.Duration, bo Backoff, met workerMetrics) error {
	met.busy.Set(1)
	defer met.busy.Set(0)
	w.logf("fleet: running shard %d [%d,%d) under fence %d", grant.Shard, grant.Lo, grant.Hi, grant.Fence)
	w.Events.Event(obs.LevelInfo, "shard.start",
		fmt.Sprintf("running shard %d [%d,%d)", grant.Shard, grant.Lo, grant.Hi),
		"shard", grant.Shard, "fence", grant.Fence, "trace_id", grant.TraceID)
	path := filepath.Join(w.Dir, fmt.Sprintf("shard-%04d-f%06d.journal", grant.Shard, grant.Fence))
	obsv := NewShardObs()

	// Heartbeat until the runner returns; a fencing rejection cancels the
	// shard (running it to completion would only produce an unuploadable
	// journal). Transient heartbeat failures are simply skipped — the lease
	// TTL spans several intervals, so one missed renewal is survivable.
	shardCtx, cancelShard := context.WithCancel(ctx)
	defer cancelShard()
	var fenced atomic.Bool
	beat := func(ctx context.Context) {
		err := w.Client.Heartbeat(ctx, grant.Shard, grant.Fence, sampleTelemetry(w.Obs, obsv.Done()))
		if errors.Is(err, ErrFenced) {
			fenced.Store(true)
			cancelShard()
		} else if err != nil && ctx.Err() == nil {
			w.logf("fleet: heartbeat for shard %d failed (lease TTL absorbs it): %v", grant.Shard, err)
		}
	}
	// With a registry the lease also opens and closes with a heartbeat: the
	// coordinator differences each document against the worker's previous
	// one, so the first sets the baseline and the last carries the work
	// since the final tick. Without a registry there is nothing to fold.
	if w.Obs != nil {
		beat(ctx)
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(heartbeat)
		defer t.Stop()
		for !fenced.Load() {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				beat(hbCtx)
			}
		}
	}()

	runErr := w.Runner.RunShard(shardCtx, grant.Lo, grant.Hi, path, obsv)
	stopHB()
	<-hbDone
	if w.Obs != nil && runErr == nil && !fenced.Load() {
		beat(ctx)
	}

	if fenced.Load() {
		met.lost.Inc()
		w.logf("fleet: lost lease on shard %d (fence %d superseded): abandoning", grant.Shard, grant.Fence)
		w.Events.Event(obs.LevelWarn, "lease.lost",
			fmt.Sprintf("lost lease on shard %d", grant.Shard),
			"shard", grant.Shard, "fence", grant.Fence)
		os.Remove(path)
		return nil
	}
	if runErr != nil {
		os.Remove(path)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("fleet: running shard %d: %w", grant.Shard, runErr)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("fleet: reading shard %d journal: %w", grant.Shard, err)
	}
	// The shard's trace segment rides along with the completion. Failure
	// to encode it (never expected) degrades the stitched timeline, not
	// the upload.
	var traceData []byte
	if seg := obsv.Recorder().Snapshot(grant.TraceID, grant.Shard, w.Client.Worker); len(seg.Events) > 0 {
		traceData, _ = json.Marshal(seg)
	}
	// Upload with generous transient retries (the journal is finished work;
	// a restarting coordinator is worth waiting out) — permanent rejections
	// (fencing 409, verification 422) stop immediately.
	uploadErr := bo.Retry(ctx, 15, func() error {
		err := w.Client.Complete(ctx, grant.Shard, grant.Fence, data, traceData)
		if err == nil {
			return nil
		}
		var herr *HTTPError
		if errors.Is(err, ErrFenced) || (errors.As(err, &herr) && !herr.Temporary()) {
			return Permanent(err)
		}
		return err
	})
	switch {
	case uploadErr == nil:
		met.shards.Inc()
		w.logf("fleet: shard %d uploaded (%d bytes)", grant.Shard, len(data))
		w.Events.Event(obs.LevelInfo, "shard.upload",
			fmt.Sprintf("shard %d uploaded", grant.Shard),
			"shard", grant.Shard, "bytes", len(data), "trace_bytes", len(traceData))
		os.Remove(path)
		return nil
	case errors.Is(uploadErr, ErrFenced):
		met.lost.Inc()
		w.logf("fleet: shard %d upload fenced off (another worker owns it): abandoning", grant.Shard)
		os.Remove(path)
		return nil
	default:
		return fmt.Errorf("fleet: uploading shard %d: %w", grant.Shard, uploadErr)
	}
}
