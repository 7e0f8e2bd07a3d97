package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/hafi"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/obs/tracefile"
)

// ShardState is the lease state machine of one shard:
//
//	Pending ──grant──▶ Leased ──verified upload──▶ Done
//	   ▲                  │
//	   └── TTL expired ───┘
//
// Every grant carries a fresh fencing token (a globally monotonic
// counter); a completion or heartbeat quoting any older token is rejected,
// which is what makes a crashed-and-re-leased shard safe against its
// original worker waking up late.
type ShardState int

const (
	ShardPending ShardState = iota
	ShardLeased
	ShardDone
)

func (s ShardState) String() string {
	switch s {
	case ShardPending:
		return "pending"
	case ShardLeased:
		return "leased"
	case ShardDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ErrFenced rejects a heartbeat or completion carrying a stale fencing
// token: the shard's lease has been granted to someone else since.
var ErrFenced = errors.New("fleet: stale fence (lease reassigned)")

// InvalidJournalError rejects a completion whose uploaded journal failed
// verification against the shard's expected fingerprints or coverage.
type InvalidJournalError struct{ Reason error }

func (e *InvalidJournalError) Error() string {
	return fmt.Sprintf("fleet: shard journal rejected: %v", e.Reason)
}
func (e *InvalidJournalError) Unwrap() error { return e.Reason }

// Options parameterises a coordinator.
type Options struct {
	// Shards is the target shard count (the planner may produce fewer on
	// small fault lists; see PlanShards).
	Shards int
	// LeaseTTL is how long a lease lives without a heartbeat (default 10s).
	LeaseTTL time.Duration
	// Heartbeat is the renewal interval advertised to workers (default
	// LeaseTTL/4; must stay below LeaseTTL or every lease would expire
	// between renewals).
	Heartbeat time.Duration
	// Dir is the coordinator's durable directory: the state log and the
	// spooled per-shard journals live here.
	Dir string
	// Output is the merged campaign journal path (default
	// Dir/campaign.journal).
	Output string
	// Spec describes the campaign to workers; NewCoordinator fills in the
	// fingerprint and lease fields.
	Spec Spec
	// Obs is the registry the coordinator counts into (nil = a private
	// one, so Status works without observability flags). Heartbeat
	// telemetry folds the workers' campaign_* counters into it under
	// their own names, so it must not also be the registry of a campaign
	// run in the same process: those counters would count twice.
	Obs *obs.Registry
	// Now is the clock (nil = time.Now; injectable for expiry tests).
	Now func() time.Time
	// Logf receives operator progress lines (nil = silent).
	Logf func(format string, args ...interface{})
	// Events receives the structured operational event stream (nil
	// disables; nil-safe like every obs handle).
	Events *obs.EventLog
	// Trace, when set, receives the stitched campaign timeline at merge
	// time: the campaign root span, one process group per shard, and every
	// worker-uploaded trace segment nested inside its shard span.
	Trace *tracefile.Writer
}

// shardSlot is one shard plus its lease state.
type shardSlot struct {
	Shard
	state       ShardState
	worker      string
	fence       uint64
	deadline    time.Time
	grants      int
	file        string // spool file name once done
	traceFile   string // spooled trace segment, if the worker sent one
	grantedAt   time.Time
	completedAt time.Time
	leaseDone   int64 // live points-done inside the current lease
}

// Progress is the fleet-wide campaign progress view, folded from
// heartbeat telemetry plus the lease table.
type Progress struct {
	PointsTotal int64 `json:"points_total"`
	// PointsDone counts points in accepted shards plus live heartbeat
	// progress inside leased shards; it may briefly regress when a lease
	// expires and its in-flight progress is discarded.
	PointsDone int64 `json:"points_done"`
	// Rate is the summed EWMA throughput of the active workers (points/s).
	Rate float64 `json:"rate"`
	// ETASeconds estimates time to campaign completion; -1 until the
	// first heartbeat telemetry establishes a throughput.
	ETASeconds    float64 `json:"eta_seconds"`
	LaneOccupancy float64 `json:"lane_occupancy"`
}

// ShardStatus is one row of the live shard map in /status.
type ShardStatus struct {
	ID         int    `json:"id"`
	Lo         int    `json:"lo"`
	Hi         int    `json:"hi"`
	State      string `json:"state"`
	Worker     string `json:"worker,omitempty"`
	Done       int64  `json:"done"`
	Grants     int    `json:"grants"`
	DeadlineMS int64  `json:"lease_deadline_unix_ms,omitempty"`
}

// Status is the coordinator snapshot served on /v1/status and /status.
type Status struct {
	Shards  int    `json:"shards"`
	Pending int    `json:"pending"`
	Leased  int    `json:"leased"`
	Done    int    `json:"done"`
	Merged  bool   `json:"merged"`
	Output  string `json:"output"`
	TraceID string `json:"trace_id"`
	// Counters is the coordinator registry's counter map: the fleet_*
	// lease-protocol counts and every campaign_* counter folded from
	// worker heartbeats, keyed as in the -stats-json document.
	Counters  map[string]int64 `json:"counters"`
	Progress  Progress         `json:"progress"`
	Workers   []WorkerStatus   `json:"workers,omitempty"`
	ShardMap  []ShardStatus    `json:"shard_map,omitempty"`
	Anomalies []Anomaly        `json:"anomalies,omitempty"`
}

// Coordinator owns a campaign's shard plan and lease table. All methods
// are safe for concurrent use by the HTTP handlers.
type Coordinator struct {
	opts   Options
	spec   Spec
	header journal.Header

	mu       sync.Mutex
	shards   []*shardSlot
	fence    uint64
	done     int
	merged   bool
	mergedCh chan struct{}
	log      *stateLog
	met      fleetMetrics
	agg      *aggregator
	traceID  string
	started  time.Time
}

// NewCoordinator plans the fault space, replays any durable state found in
// opts.Dir (a restarted coordinator resumes exactly where it crashed:
// completed shards stay completed, leased shards get a fresh TTL so live
// workers keep them by heartbeating, and expired ones re-lease), and
// merges immediately if the replayed state says every shard is already
// done.
func NewCoordinator(points []hafi.FaultPoint, goldenSignature uint64, opts Options) (*Coordinator, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("fleet: empty fault list")
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = opts.LeaseTTL / 4
	}
	if opts.Heartbeat >= opts.LeaseTTL {
		return nil, fmt.Errorf("fleet: heartbeat interval %v must be below the lease TTL %v", opts.Heartbeat, opts.LeaseTTL)
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("fleet: coordinator needs a durable directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if opts.Output == "" {
		opts.Output = filepath.Join(opts.Dir, "campaign.journal")
	}
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}

	c := &Coordinator{
		opts:     opts,
		header:   journal.Header{GoldenSignature: goldenSignature, NumPoints: uint64(len(points)), FaultListHash: hafi.FaultListHash(points)},
		mergedCh: make(chan struct{}),
		met:      newFleetMetrics(opts.Obs),
		agg:      newAggregator(opts),
	}
	// The campaign trace ID derives deterministically from the campaign
	// identity, so a restarted coordinator keeps stitching segments into
	// the same logical trace its workers were minted into.
	c.traceID = fmt.Sprintf("%016x", c.header.GoldenSignature^c.header.FaultListHash^(c.header.NumPoints*0x9e3779b97f4a7c15))
	c.spec = opts.Spec
	c.spec.GoldenSignature = c.header.GoldenSignature
	c.spec.NumPoints = c.header.NumPoints
	c.spec.FaultListHash = c.header.FaultListHash
	c.spec.LeaseTTLMillis = opts.LeaseTTL.Milliseconds()
	c.spec.HeartbeatMillis = opts.Heartbeat.Milliseconds()
	c.spec.TraceID = c.traceID

	for _, sh := range PlanShards(points, opts.Shards) {
		c.shards = append(c.shards, &shardSlot{Shard: sh})
	}
	c.started = c.now()
	c.met.shards.Set(int64(len(c.shards)))
	c.met.pointsTotal.Set(int64(c.header.NumPoints))

	if err := c.restore(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Coordinator) now() time.Time {
	if c.opts.Now != nil {
		return c.opts.Now()
	}
	return time.Now()
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

func (c *Coordinator) statePath() string { return filepath.Join(c.opts.Dir, "state.log") }
func (c *Coordinator) spoolPath(name string) string {
	return filepath.Join(c.opts.Dir, name)
}

// restore replays the durable state log and re-verifies everything it
// claims: a "complete" event only stands if the spooled journal still
// verifies, and a "merged" event only stands if the merged output still
// recovers completely — so a crash between any two steps re-runs exactly
// the missing step and nothing else.
func (c *Coordinator) restore() error {
	events, err := replayStateLog(c.statePath())
	if err != nil {
		return err
	}
	if len(events) == 0 {
		if st, err := os.Stat(c.statePath()); err == nil && st.Size() > 0 {
			return fmt.Errorf("fleet: state log %s is unreadable (no intact events)", c.statePath())
		}
	}
	now := c.now()
	mergedClaimed := false
	if len(events) > 0 {
		plan := events[0]
		if plan.Ev != evPlan {
			return fmt.Errorf("fleet: state log %s does not start with a plan event", c.statePath())
		}
		if plan.Golden != c.header.GoldenSignature || plan.Points != c.header.NumPoints ||
			plan.Hash != c.header.FaultListHash || plan.Shards != len(c.shards) {
			return fmt.Errorf("fleet: state dir %s belongs to a different campaign or shard plan (log: golden=%016x points=%d hash=%016x shards=%d; want golden=%016x points=%d hash=%016x shards=%d)",
				c.opts.Dir, plan.Golden, plan.Points, plan.Hash, plan.Shards,
				c.header.GoldenSignature, c.header.NumPoints, c.header.FaultListHash, len(c.shards))
		}
		for _, ev := range events[1:] {
			switch ev.Ev {
			case evGrant:
				if ev.Shard < 0 || ev.Shard >= len(c.shards) {
					continue
				}
				sh := c.shards[ev.Shard]
				if ev.Fence > c.fence {
					c.fence = ev.Fence
				}
				if sh.state == ShardDone {
					continue
				}
				sh.state = ShardLeased
				sh.worker = ev.Worker
				sh.fence = ev.Fence
				sh.grants++
			case evComplete:
				if ev.Shard < 0 || ev.Shard >= len(c.shards) {
					continue
				}
				sh := c.shards[ev.Shard]
				if err := c.verifyShardFile(sh, c.spoolPath(ev.File)); err != nil {
					c.logf("fleet: restart: shard %d spool %s no longer verifies (%v); shard re-runs", ev.Shard, ev.File, err)
					sh.state = ShardPending
					continue
				}
				sh.state = ShardDone
				sh.file = ev.File
				if name := fmt.Sprintf("shard-%04d.trace", sh.ID); fileExists(c.spoolPath(name)) {
					sh.traceFile = name
				}
			case evMerged:
				mergedClaimed = true
			}
		}
	}
	for _, sh := range c.shards {
		if sh.state == ShardDone {
			c.done++
		} else if sh.state == ShardLeased {
			// Fresh grace period: a live worker keeps its shard by simply
			// heartbeating against the restarted coordinator.
			sh.deadline = now.Add(c.opts.LeaseTTL)
		}
	}
	c.met.shardsDone.Set(int64(c.done))
	c.met.pointsDone.Set(c.pointsDoneLocked())

	c.log, err = openStateLog(c.statePath())
	if err != nil {
		return err
	}
	if len(events) == 0 {
		err := c.log.append(stateEvent{
			Ev: evPlan, Golden: c.header.GoldenSignature, Points: c.header.NumPoints,
			Hash: c.header.FaultListHash, Shards: len(c.shards),
		})
		if err != nil {
			return err
		}
	}

	if mergedClaimed {
		if err := c.verifyMergedOutput(); err == nil {
			c.setMergedLocked()
		} else {
			c.logf("fleet: restart: merged journal no longer verifies (%v); re-merging", err)
		}
	}
	if !c.merged && c.done == len(c.shards) {
		if err := c.mergeLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the state log. It does not touch shard state on disk.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		return nil
	}
	err := c.log.close()
	c.log = nil
	return err
}

// Spec returns the campaign definition advertised to workers.
func (c *Coordinator) Spec() Spec { return c.spec }

// Header returns the campaign journal identity.
func (c *Coordinator) Header() journal.Header { return c.header }

// Output returns the merged campaign journal path.
func (c *Coordinator) Output() string { return c.opts.Output }

// MergedCh is closed once the campaign journal has been merged.
func (c *Coordinator) MergedCh() <-chan struct{} { return c.mergedCh }

// sweepLocked expires overdue leases (mu held).
func (c *Coordinator) sweepLocked(now time.Time) {
	for _, sh := range c.shards {
		if sh.state == ShardLeased && now.After(sh.deadline) {
			sh.state = ShardPending
			sh.leaseDone = 0
			c.met.expired.Inc()
			c.agg.workerDone(sh.worker)
			c.logf("fleet: lease of shard %d expired (worker %s, fence %d): re-leasing", sh.ID, sh.worker, sh.fence)
			c.opts.Events.Event(obs.LevelWarn, "lease.expire",
				fmt.Sprintf("lease of shard %d expired", sh.ID),
				"shard", sh.ID, "worker", sh.worker, "fence", sh.fence)
		}
	}
}

// LeaseGrant is a successful lease: the shard range plus the fencing token
// every subsequent heartbeat and the final completion must quote.
type LeaseGrant struct {
	Shard     int    `json:"shard"`
	Lo        int    `json:"lo"`
	Hi        int    `json:"hi"`
	Fence     uint64 `json:"fence"`
	ShardHash uint64 `json:"shard_hash"`
	// TraceID is the campaign trace the worker should stamp on the trace
	// segment it uploads with the finished shard.
	TraceID string `json:"trace_id,omitempty"`
}

// Lease hands the next pending shard to worker. The second return is
// "lease" (grant valid), "wait" (everything is leased or done — poll again
// after a backoff) or "done" (campaign complete; the worker may exit).
func (c *Coordinator) Lease(worker string) (LeaseGrant, string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.sweepLocked(now)
	c.tryMergeLocked()
	if c.done == len(c.shards) {
		return LeaseGrant{}, "done", nil
	}
	for _, sh := range c.shards {
		if sh.state != ShardPending {
			continue
		}
		c.fence++
		sh.state = ShardLeased
		sh.worker = worker
		sh.fence = c.fence
		sh.deadline = now.Add(c.opts.LeaseTTL)
		sh.grants++
		sh.grantedAt = now
		sh.leaseDone = 0
		err := c.log.append(stateEvent{Ev: evGrant, Shard: sh.ID, Fence: sh.fence, Worker: worker})
		if err != nil {
			sh.state = ShardPending // the fence stays burned; harmless
			return LeaseGrant{}, "", err
		}
		c.met.granted.Inc()
		if sh.grants > 1 {
			c.met.regranted.Inc()
		}
		c.logf("fleet: shard %d [%d,%d) leased to %s (fence %d, grant #%d)", sh.ID, sh.Lo, sh.Hi, worker, sh.fence, sh.grants)
		c.opts.Events.Event(obs.LevelInfo, "lease.grant",
			fmt.Sprintf("shard %d [%d,%d) leased to %s", sh.ID, sh.Lo, sh.Hi, worker),
			"shard", sh.ID, "worker", worker, "fence", sh.fence, "grant", sh.grants, "trace_id", c.traceID)
		return LeaseGrant{Shard: sh.ID, Lo: sh.Lo, Hi: sh.Hi, Fence: sh.fence, ShardHash: sh.Hash, TraceID: c.traceID}, "lease", nil
	}
	return LeaseGrant{}, "wait", nil
}

// Heartbeat renews the lease identified by (shard, fence) and folds the
// heartbeat's telemetry snapshot (nil is a bare renewal) into the fleet
// aggregate. A stale fence returns ErrFenced: the caller has lost the
// shard and must abandon it — its telemetry is discarded with it.
func (c *Coordinator) Heartbeat(worker string, shard int, fence uint64, tel *Telemetry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.sweepLocked(now)
	if shard < 0 || shard >= len(c.shards) {
		return fmt.Errorf("fleet: no such shard %d", shard)
	}
	sh := c.shards[shard]
	if sh.state != ShardLeased || sh.fence != fence {
		c.met.heartbeatsStale.Inc()
		return ErrFenced
	}
	sh.deadline = now.Add(c.opts.LeaseTTL)
	sh.worker = worker
	c.met.heartbeats.Inc()
	c.agg.fold(worker, shard, tel, now)
	if tel != nil {
		sh.leaseDone = tel.ShardDone
	}
	c.agg.detect(now, c.shards, c.opts.LeaseTTL)
	c.met.pointsDone.Set(c.pointsDoneLocked())
	return nil
}

// Complete accepts a finished shard's journal. The fence must be the
// shard's latest grant — a zombie worker whose lease expired and was
// re-granted is turned away with ErrFenced, so no shard is ever counted
// twice. The journal is verified (header fingerprints, corruption,
// complete point coverage) before the shard is marked done; a verification
// failure returns an *InvalidJournalError and re-opens the shard.
// Re-uploading an already-accepted shard under the same fence is
// idempotent (the worker may retry a completion whose response was lost).
//
// trace is the shard's optional trace segment (JSON-encoded TraceSegment);
// it is spooled best-effort next to the journal and stitched into the
// campaign timeline at merge time. A bad segment never rejects a good
// journal.
func (c *Coordinator) Complete(worker string, shard int, fence uint64, data, trace []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.sweepLocked(now)
	if shard < 0 || shard >= len(c.shards) {
		return fmt.Errorf("fleet: no such shard %d", shard)
	}
	sh := c.shards[shard]
	if sh.state == ShardDone {
		if sh.fence == fence {
			return nil // idempotent retry of the accepted upload
		}
		c.met.completionsStale.Inc()
		return ErrFenced
	}
	if sh.fence != fence {
		c.met.completionsStale.Inc()
		return ErrFenced
	}
	// The fence is current: accept even if the lease just expired but the
	// shard has not been re-granted — the work is valid and re-running it
	// would be waste.
	name := fmt.Sprintf("shard-%04d.journal", sh.ID)
	if err := c.spoolShard(sh, name, data); err != nil {
		sh.state = ShardPending // let someone else (or a fixed worker) retry
		c.met.completionsInvalid.Inc()
		c.logf("fleet: shard %d upload from %s rejected: %v", sh.ID, worker, err)
		c.opts.Events.Event(obs.LevelWarn, "shard.reject",
			fmt.Sprintf("shard %d upload from %s rejected: %v", sh.ID, worker, err),
			"shard", sh.ID, "worker", worker)
		return err
	}
	if err := c.log.append(stateEvent{Ev: evComplete, Shard: sh.ID, Fence: fence, File: name}); err != nil {
		return err
	}
	sh.state = ShardDone
	sh.file = name
	sh.completedAt = now
	sh.leaseDone = int64(sh.Hi - sh.Lo)
	c.spoolTrace(sh, trace)
	c.agg.workerDone(worker)
	c.done++
	c.met.completions.Inc()
	c.met.shardsDone.Set(int64(c.done))
	c.met.pointsDone.Set(c.pointsDoneLocked())
	c.logf("fleet: shard %d completed by %s (%d/%d shards done)", sh.ID, worker, c.done, len(c.shards))
	c.opts.Events.Event(obs.LevelInfo, "shard.complete",
		fmt.Sprintf("shard %d completed by %s", sh.ID, worker),
		"shard", sh.ID, "worker", worker, "done", c.done, "shards", len(c.shards))
	c.tryMergeLocked()
	return nil
}

// spoolTrace saves a worker's uploaded trace segment next to the shard
// journal, best-effort: trace loss degrades the stitched timeline, never
// the campaign. Segments minted for a different trace ID (e.g. by a
// worker pointed at the wrong coordinator) are dropped.
func (c *Coordinator) spoolTrace(sh *shardSlot, trace []byte) {
	if len(trace) == 0 {
		return
	}
	var seg TraceSegment
	if err := json.Unmarshal(trace, &seg); err != nil {
		c.logf("fleet: shard %d trace segment unparseable: %v", sh.ID, err)
		return
	}
	if seg.TraceID != c.traceID {
		c.logf("fleet: shard %d trace segment carries foreign trace id %s (want %s): dropped", sh.ID, seg.TraceID, c.traceID)
		return
	}
	name := fmt.Sprintf("shard-%04d.trace", sh.ID)
	if err := os.WriteFile(c.spoolPath(name)+".tmp", trace, 0o644); err != nil {
		c.logf("fleet: shard %d trace spool: %v", sh.ID, err)
		return
	}
	if err := os.Rename(c.spoolPath(name)+".tmp", c.spoolPath(name)); err != nil {
		c.logf("fleet: shard %d trace spool: %v", sh.ID, err)
		return
	}
	sh.traceFile = name
}

// pointsDoneLocked is the fleet-wide classified-point count: full credit
// for accepted shards plus live heartbeat progress inside leased ones.
func (c *Coordinator) pointsDoneLocked() int64 {
	var done int64
	for _, sh := range c.shards {
		switch sh.state {
		case ShardDone:
			done += int64(sh.Hi - sh.Lo)
		case ShardLeased:
			done += sh.leaseDone
		}
	}
	return done
}

// spoolShard writes an uploaded journal next to the state log and verifies
// it. The write goes through a temp file + rename so a crash never leaves
// a half-written spool file behind a "complete" state event; verification
// runs on the temp file so an invalid upload never occupies the spool name.
func (c *Coordinator) spoolShard(sh *shardSlot, name string, data []byte) error {
	tmp, err := os.CreateTemp(c.opts.Dir, name+".up-*")
	if err != nil {
		return fmt.Errorf("fleet: spool: %w", err)
	}
	tmpPath := tmp.Name()
	defer os.Remove(tmpPath)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("fleet: spool: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("fleet: spool: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("fleet: spool: %w", err)
	}
	if err := c.verifyShardFile(sh, tmpPath); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, c.spoolPath(name)); err != nil {
		return fmt.Errorf("fleet: spool: %w", err)
	}
	return nil
}

// verifyShardFile checks a spooled shard journal against the shard's
// expected identity and coverage.
func (c *Coordinator) verifyShardFile(sh *shardSlot, path string) error {
	rec, err := journal.Recover(path)
	if err != nil {
		return &InvalidJournalError{Reason: err}
	}
	if !rec.HasHeader {
		return &InvalidJournalError{Reason: fmt.Errorf("no intact campaign header")}
	}
	want := sh.Header(c.header.GoldenSignature)
	switch {
	case rec.Header.GoldenSignature != want.GoldenSignature:
		return &InvalidJournalError{Reason: fmt.Errorf("golden signature mismatch (journal %016x, want %016x)", rec.Header.GoldenSignature, want.GoldenSignature)}
	case rec.Header.NumPoints != want.NumPoints:
		return &InvalidJournalError{Reason: fmt.Errorf("fault-list size mismatch (journal %d, want %d)", rec.Header.NumPoints, want.NumPoints)}
	case rec.Header.FaultListHash != want.FaultListHash:
		return &InvalidJournalError{Reason: fmt.Errorf("fault-list hash mismatch (journal %016x, want %016x)", rec.Header.FaultListHash, want.FaultListHash)}
	}
	if rec.Corrupt {
		return &InvalidJournalError{Reason: fmt.Errorf("journal contains corrupt records")}
	}
	if got, want := len(rec.ByIndex), sh.Hi-sh.Lo; got != want {
		return &InvalidJournalError{Reason: fmt.Errorf("incomplete shard: %d of %d points classified", got, want)}
	}
	return nil
}

// tryMergeLocked merges once every shard is done; a failed merge is logged
// and retried on the next call (every lease/status poll), never silently
// dropped.
func (c *Coordinator) tryMergeLocked() {
	if c.merged || c.done != len(c.shards) {
		return
	}
	if err := c.mergeLocked(); err != nil {
		c.logf("fleet: merge failed (will retry): %v", err)
	}
}

// mergeLocked merges every spooled shard journal into the campaign journal
// (atomically, via journal.Merge's temp-and-rename) and records the fact.
func (c *Coordinator) mergeLocked() error {
	shards := make([]journal.MergeShard, 0, len(c.shards))
	for _, sh := range c.shards {
		rec, err := journal.Recover(c.spoolPath(sh.file))
		if err != nil {
			return fmt.Errorf("fleet: merge: shard %d: %w", sh.ID, err)
		}
		shards = append(shards, journal.MergeShard{
			Rec:  rec,
			Base: uint64(sh.Lo),
			Want: sh.Header(c.header.GoldenSignature),
		})
	}
	stats, err := journal.Merge(c.opts.Output, c.header, shards)
	if err != nil {
		return err
	}
	if uint64(stats.Records) != c.header.NumPoints {
		// Unreachable when every shard verified complete; guard anyway so a
		// lossy merge can never masquerade as a finished campaign.
		return fmt.Errorf("fleet: merge covered %d of %d points", stats.Records, c.header.NumPoints)
	}
	if err := c.log.append(stateEvent{Ev: evMerged, File: filepath.Base(c.opts.Output)}); err != nil {
		return err
	}
	c.met.merges.Inc()
	c.logf("fleet: merged %d shards (%d records, %d attribution hits) into %s", stats.Shards, stats.Records, stats.MATEHits, c.opts.Output)
	c.opts.Events.Event(obs.LevelInfo, "merge.done",
		fmt.Sprintf("merged %d shards (%d records) into %s", stats.Shards, stats.Records, c.opts.Output),
		"shards", stats.Shards, "records", stats.Records, "output", c.opts.Output, "trace_id", c.traceID)
	c.stitchTraceLocked()
	c.setMergedLocked()
	return nil
}

// stitchTraceLocked assembles the cross-process campaign timeline on the
// coordinator's trace writer: a campaign root span (pid 1), one process
// group per shard labelled with the worker that finished it, a
// coordinator-side shard span covering grant→complete on the group's tid
// 0, and every event of the shard's uploaded segment nested inside that
// window on tid lane+1.
func (c *Coordinator) stitchTraceLocked() {
	tw := c.opts.Trace
	if tw == nil {
		return
	}
	now := c.now()
	tw.ProcessName(1, "campaignd")
	tw.CompleteOn(1, 0, "campaign", "trace "+c.traceID, c.started, now.Sub(c.started))
	for _, sh := range c.shards {
		pid := shardPID(sh.ID)
		granted, completed := sh.grantedAt, sh.completedAt
		// A coordinator restarted after shards completed has no grant
		// timestamps; degrade to the campaign window rather than drop rows.
		if granted.IsZero() {
			granted = c.started
		}
		if completed.IsZero() {
			completed = now
		}
		tw.ProcessName(pid, fmt.Sprintf("shard %02d · %s", sh.ID, sh.worker))
		tw.ThreadName(pid, 0, "lease")
		tw.CompleteOn(pid, 0, "shard", fmt.Sprintf("[%d,%d) worker %s grants %d", sh.Lo, sh.Hi, sh.worker, sh.grants),
			granted, completed.Sub(granted))
		if sh.traceFile == "" {
			continue
		}
		data, err := os.ReadFile(c.spoolPath(sh.traceFile))
		if err != nil {
			c.logf("fleet: stitch: shard %d: %v", sh.ID, err)
			continue
		}
		var seg TraceSegment
		if err := json.Unmarshal(data, &seg); err != nil {
			c.logf("fleet: stitch: shard %d: %v", sh.ID, err)
			continue
		}
		for lane := int32(0); lane < segmentLanes(&seg); lane++ {
			tw.ThreadName(pid, lane+1, fmt.Sprintf("lane %d", lane))
		}
		stitchSegment(tw, &seg, granted, completed)
	}
}

// segmentLanes counts the distinct (compacted) lanes in a segment.
func segmentLanes(seg *TraceSegment) int32 {
	var max int32 = -1
	for _, ev := range seg.Events {
		if ev.Lane > max {
			max = ev.Lane
		}
	}
	return max + 1
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// verifyMergedOutput re-validates the merged campaign journal after a
// restart: right header, no corruption, complete coverage.
func (c *Coordinator) verifyMergedOutput() error {
	rec, err := journal.Recover(c.opts.Output)
	if err != nil {
		return err
	}
	if !rec.HasHeader || rec.Header != c.header {
		return fmt.Errorf("merged journal header mismatch")
	}
	if rec.Corrupt || rec.Torn {
		return fmt.Errorf("merged journal damaged")
	}
	if uint64(len(rec.ByIndex)) != c.header.NumPoints {
		return fmt.Errorf("merged journal covers %d of %d points", len(rec.ByIndex), c.header.NumPoints)
	}
	return nil
}

func (c *Coordinator) setMergedLocked() {
	if !c.merged {
		c.merged = true
		close(c.mergedCh)
	}
}

// Status snapshots the lease table, counters, folded fleet telemetry,
// the per-worker and per-shard views, and the active anomalies.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.sweepLocked(now)
	c.tryMergeLocked()
	c.agg.detect(now, c.shards, c.opts.LeaseTTL)
	st := Status{
		Shards:   len(c.shards),
		Merged:   c.merged,
		Output:   c.opts.Output,
		TraceID:  c.traceID,
		Counters: c.opts.Obs.Stats().Counters,
		Progress: c.progressLocked(now),
		Workers:  c.agg.workerStatuses(),
	}
	for _, sh := range c.shards {
		switch sh.state {
		case ShardPending:
			st.Pending++
		case ShardLeased:
			st.Leased++
		case ShardDone:
			st.Done++
		}
		row := ShardStatus{
			ID: sh.ID, Lo: sh.Lo, Hi: sh.Hi,
			State: sh.state.String(), Done: sh.leaseDone, Grants: sh.grants,
		}
		if sh.state != ShardPending {
			row.Worker = sh.worker
		}
		if sh.state == ShardDone {
			row.Done = int64(sh.Hi - sh.Lo)
		}
		if sh.state == ShardLeased {
			row.DeadlineMS = sh.deadline.UnixMilli()
		}
		st.ShardMap = append(st.ShardMap, row)
	}
	st.Anomalies = c.agg.anomalyList()
	return st
}

// progressLocked folds the lease table and aggregated telemetry into the
// fleet progress view (mu held).
func (c *Coordinator) progressLocked(now time.Time) Progress {
	p := Progress{
		PointsTotal:   int64(c.header.NumPoints),
		PointsDone:    c.pointsDoneLocked(),
		Rate:          c.agg.fleetRate(now),
		ETASeconds:    -1,
		LaneOccupancy: c.agg.laneOccupancy(),
	}
	if remaining := p.PointsTotal - p.PointsDone; remaining <= 0 {
		p.ETASeconds = 0
	} else if p.Rate > 0 {
		p.ETASeconds = float64(remaining) / p.Rate
	}
	c.met.pointsDone.Set(p.PointsDone)
	return p
}

// fleetMetrics holds the coordinator's fleet_* registry handles. The
// registry is the only tally of these facts; Status serves its counters.
type fleetMetrics struct {
	granted, expired, regranted   *obs.Counter
	heartbeats, heartbeatsStale   *obs.Counter
	completions, completionsStale *obs.Counter
	completionsInvalid, merges    *obs.Counter
	shards, shardsDone            *obs.Gauge
	pointsTotal, pointsDone       *obs.Gauge
}

func newFleetMetrics(reg *obs.Registry) fleetMetrics {
	return fleetMetrics{
		granted:            reg.Counter("fleet_leases_granted_total"),
		expired:            reg.Counter("fleet_lease_expiries_total"),
		regranted:          reg.Counter("fleet_lease_regrants_total"),
		heartbeats:         reg.Counter("fleet_heartbeats_total"),
		heartbeatsStale:    reg.Counter("fleet_heartbeats_stale_total"),
		completions:        reg.Counter("fleet_completions_total"),
		completionsStale:   reg.Counter("fleet_completions_stale_total"),
		completionsInvalid: reg.Counter("fleet_completions_invalid_total"),
		merges:             reg.Counter("fleet_merges_total"),
		shards:             reg.Gauge("fleet_shards"),
		shardsDone:         reg.Gauge("fleet_shards_done"),
		pointsTotal:        reg.Gauge("fleet_points_total"),
		pointsDone:         reg.Gauge("fleet_points_done"),
	}
}
