// Package hafi models a hardware-assisted fault-injection (HAFI) platform
// in software. Real HAFI systems (Entrena et al., FLINT, ...) instrument a
// netlist with injection logic, emulate it on an FPGA, and run complete
// fault-injection experiments online; the paper integrates MATE evaluation
// into such a platform to skip provably benign injections before they are
// executed.
//
// This package reproduces that flow against the gate-level simulator:
//
//   - a golden run records per-cycle checkpoints (flip-flop state plus
//     external memory) and the fault-free result signature,
//   - the campaign controller walks the (flip-flop × cycle) fault list,
//     restores the checkpoint, flips the target bit, runs the workload to
//     completion and classifies the outcome (benign / silent data
//     corruption / hang),
//   - with a MATE set attached, the controller evaluates the MATEs on the
//     golden trace for each injection point first and skips those proven
//     benign — the paper's online fault-space pruning,
//   - lut.go provides the FPGA cost model of Section 6.1 (6-input LUTs per
//     MATE versus the 1.5k–6k LUTs of published FI controllers).
//
// Campaigns are resilient: a CampaignConfig may carry a context for
// graceful cancellation (SIGINT drains in-flight experiments and reports a
// partial, internally consistent result), a journal.Writer that durably
// logs every classified point, and a journal.Recovered that resumes a
// crashed campaign by replaying already-classified points — the merged
// result is identical to an uninterrupted run. A panicking experiment is
// classified OutcomeHarnessError instead of aborting the campaign.
//
// The product engine is the wide one (RunW, RunCampaignBatchedPoolWithW).
// The scalar Run and Controller.RunCampaign are the oracle it is scored
// against: one plain sequential loop over the fault list.
package hafi

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Run is one executable instance of the device under test: the emulated
// netlist plus its external memories. A fresh Run starts at reset. It is
// the scalar reference the wide engine's verdicts are checked against.
type Run interface {
	// Machine exposes the simulated netlist state.
	Machine() *sim.Machine
	// Env returns the environment Step drives the machine with, so
	// RecordGolden can capture the wire trace between Settle and CommitFFs.
	Env() sim.Env
	// Step advances one clock cycle (including memory traffic).
	Step()
	// Halted reports whether the workload finished.
	Halted() bool
	// Checkpoint captures flip-flop state, primary inputs and memories.
	Checkpoint() Checkpoint
	// Restore rewinds to a previous checkpoint.
	Restore(Checkpoint)
	// Signature condenses the externally visible result (output port and
	// data memory) into a comparable hash.
	Signature() uint64
	// MemDigest returns the running external-memory write digest (see
	// sim.UpdateWriteDigest): a chained hash over every write event since
	// reset, rewound by Restore. Two runs with equal digests have performed
	// the same write sequence (w.h.p.), so their external memories are
	// equal — the memory half of the convergence early-exit check.
	MemDigest() uint64
}

// Checkpoint is an opaque snapshot of a Run.
type Checkpoint interface{}

// Outcome classifies one fault-injection experiment.
type Outcome int

// Experiment outcomes. OutcomeBenign: the workload finished with the
// fault-free result. OutcomeSDC: it finished with a wrong result (silent
// data corruption). OutcomeHang: it did not finish within the timeout.
// OutcomeHarnessError: the experiment did not produce a verdict because
// the harness itself failed (a panicking device model); the fault is
// neither counted as benign nor silently dropped.
const (
	OutcomeBenign Outcome = iota
	OutcomeSDC
	OutcomeHang
	OutcomeHarnessError
)

func (o Outcome) String() string {
	switch o {
	case OutcomeBenign:
		return "benign"
	case OutcomeSDC:
		return "sdc"
	case OutcomeHang:
		return "hang"
	case OutcomeHarnessError:
		return "harness-error"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Golden is the fault-free reference execution: per-cycle checkpoints for
// fast experiment setup, the full wire trace for MATE evaluation, the halt
// cycle and the result signature.
type Golden struct {
	Checkpoints []Checkpoint
	// MemDigests[c] is the external-memory write digest at the start of
	// cycle c, aligned with Checkpoints. The campaign's convergence
	// early-exit compares a faulty run's digest against it.
	MemDigests []uint64
	Trace      *sim.Trace
	HaltCycle  int
	Signature  uint64
}

// RecordGolden runs the workload to completion (bounded by maxCycles),
// checkpointing every cycle and recording the full wire trace.
func RecordGolden(r Run, maxCycles int) (*Golden, error) {
	g := &Golden{Trace: sim.NewTrace(r.Machine().NL.NumWires())}
	for cyc := 0; cyc < maxCycles; cyc++ {
		if r.Halted() {
			g.HaltCycle = cyc
			g.Signature = r.Signature()
			return g, nil
		}
		g.Checkpoints = append(g.Checkpoints, r.Checkpoint())
		g.MemDigests = append(g.MemDigests, r.MemDigest())
		m := r.Machine()
		m.Settle(r.Env())
		g.Trace.Append(m.Values())
		m.CommitFFs()
	}
	return nil, fmt.Errorf("hafi: golden run did not halt within %d cycles", maxCycles)
}

// FaultPoint identifies one injection under a fault model. In the zero
// Model (SEU): invert the stored value of flip-flop FF at the beginning of
// cycle Cycle. Duration generalises the fault model to upsets that hold for
// several cycles (paper Section 6.2: "our approach works out of the box
// also with upsets that hold more than one cycle"): the flip-flop is
// re-inverted at the beginning of each of the Duration cycles. Zero means 1
// (a classic SEU). The remaining operands belong to the non-SEU models (see
// the ModelID constants) and must be zero for models that do not use them.
type FaultPoint struct {
	FF       int
	Cycle    int
	Duration int

	// Model selects the fault model; the zero value is ModelSEU, so legacy
	// fault points behave exactly as before.
	Model ModelID
	// Span is the MBU burst width (adjacent flip-flops upset together).
	Span int
	// Period is the intermittent re-flip period in cycles.
	Period int
	// StuckHigh selects stuck-at-1 over stuck-at-0.
	StuckHigh bool
	// Targets is the SET flip set: the flip-flops the struck gate's cone
	// latches into, sorted ascending with Targets[0] == FF. Empty means
	// {FF}.
	Targets []int
}

func (p FaultPoint) duration() int {
	if p.Duration <= 0 {
		return 1
	}
	return p.Duration
}

func (p FaultPoint) span() int {
	if p.Span <= 0 {
		return 1
	}
	return p.Span
}

func (p FaultPoint) period() int {
	if p.Period <= 0 {
		return 1
	}
	return p.Period
}

// targets returns the SET flip set ({FF} when the explicit list is empty).
func (p FaultPoint) targets() []int {
	if len(p.Targets) == 0 {
		return []int{p.FF}
	}
	return p.Targets
}

// plainSEU reports the legacy point shape: the zero model with no foreign
// operands. Plain-SEU points hash, journal and resume byte-identically to
// every campaign recorded before fault-model diversity existed.
func (p FaultPoint) plainSEU() bool {
	return p.Model == ModelSEU && p.Span == 0 && p.Period == 0 && !p.StuckHigh && len(p.Targets) == 0
}

// CampaignConfig parameterises a fault-injection campaign.
type CampaignConfig struct {
	// Points is the fault list (already sampled/sliced by the caller).
	Points []FaultPoint
	// TimeoutFactor bounds experiment length: an experiment hangs when it
	// exceeds TimeoutFactor × golden halt cycle. Zero selects the default
	// of 2; NaN, negative or sub-1 factors (which would time out the
	// golden run itself) are rejected.
	TimeoutFactor float64
	// MATESet enables online pruning: injections whose (wire, cycle) point
	// a triggered MATE proves benign are skipped without execution.
	MATESet *core.MATESet
	// ValidateSkipped additionally executes every skipped experiment and
	// verifies it really is benign (used by the test suite; defeats the
	// purpose of pruning in production).
	ValidateSkipped bool
	// DisableEarlyExit turns off the golden-state convergence early-exit
	// and the wide engine's held rule: every experiment runs to halt or
	// timeout even when its state provably re-converged with the fault-free
	// reference or provably reaches the halt golden but for one held flip.
	// The classification is identical either way; this is an escape hatch
	// for differential testing and debugging.
	DisableEarlyExit bool
	// Context, when non-nil, cancels the campaign gracefully: in-flight
	// experiments (on a batched device: every lane carrying one) finish and
	// are recorded, no new ones start, and the partial result carries
	// Interrupted=true.
	Context context.Context
	// Journal, when non-nil, receives one durable record per classified
	// point. A journal write failure aborts the campaign — a silently lossy
	// journal would defeat crash recovery.
	Journal *journal.Writer
	// Resume replays points already classified by a previous run of the
	// same campaign: recovered records are merged into the result without
	// re-execution (and without re-journaling). The records must match
	// the fault list point for point.
	Resume *journal.Recovered
	// Progress, when non-nil, is called after every newly classified point
	// with the running count of points classified in this run (replayed
	// Resume records excluded). Both engines call it from the goroutine
	// that classifies or journals the point, never concurrently.
	Progress func(done int)
	// Obs, when non-nil, receives campaign metrics (points done, injections,
	// pruned/replayed counts, outcome histogram, batch lane occupancy,
	// worker utilization). Nil keeps the hot path at a single pointer check.
	Obs *obs.Registry
}

// context returns the effective campaign context.
func (cfg *CampaignConfig) context() context.Context {
	if cfg.Context != nil {
		return cfg.Context
	}
	return context.Background()
}

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	Total     int
	Skipped   int // pruned by MATEs without execution
	Executed  int
	ByOutcome map[Outcome]int
	// SkippedWrong counts validated-skipped experiments that were NOT
	// benign — any nonzero value is a MATE soundness violation.
	SkippedWrong int
	// PrunedByMATE credits every skipped point to the set index of the MATE
	// that proved it benign: the first MATE, in set order, triggering on the
	// upset's first cycle. The credits sum exactly to Skipped, except that
	// points replayed from a pre-attribution (v1) journal carry no credit.
	PrunedByMATE map[int]int64
	// Interrupted marks a partial result: the campaign context was
	// cancelled before every point was classified. The counters cover
	// exactly the classified points (Total = Skipped + Executed).
	Interrupted bool
	// Converged counts executed experiments that ended through the
	// convergence early-exit: the faulty flip-flop state matched the golden
	// reference (with an equal memory write digest) after the upset's hold
	// window, so the run was classified benign without simulating the
	// remaining cycles. It is an execution-strategy statistic, not part of
	// the classification (replayed journal records carry no credit).
	Converged int
	// CyclesSaved sums the simulation cycles skipped by those early exits
	// (golden halt cycle minus convergence cycle, per converged experiment).
	CyclesSaved int64
	// Held counts executed experiments the wide engine retired by its held
	// rule (scheduler.go, held.go): past the upset's window, golden but for
	// one flip-flop whose flip is provably held to the golden halt, so the
	// verdict is that flip's at the halt and no cycles are credited. Like
	// Converged it describes how the run executed; the sequential oracle
	// runs such experiments out and reports 0.
	Held int

	// reorderHighWater is the most results the batched engine's emitter ever
	// held back waiting for an earlier plan position (tests bound it).
	reorderHighWater int
}

func newCampaignResult() *CampaignResult {
	return &CampaignResult{ByOutcome: map[Outcome]int{}, PrunedByMATE: map[int]int64{}}
}

// PrunedFraction returns the share of fault-list points the MATEs removed.
func (r *CampaignResult) PrunedFraction() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Skipped) / float64(r.Total)
}

// replay merges one recovered journal record without re-execution. hit, when
// non-nil, is the point's recovered attribution record; it is credited only
// for a pruned point (an orphan hit whose experiment record was lost to a
// torn tail must not fabricate attribution for a re-executed point).
func (r *CampaignResult) replay(rec journal.Record, hit *journal.MATEHit) {
	r.Total++
	if rec.Pruned {
		r.Skipped++
		if hit != nil {
			r.PrunedByMATE[int(hit.MATE)]++
		}
		if rec.SkippedWrong {
			r.SkippedWrong++
		}
		return
	}
	r.Executed++
	r.ByOutcome[Outcome(rec.Outcome)]++
}

// replayHit looks up the recovered attribution for a resumed point.
func replayHit(res *journal.Recovered, idx uint64) *journal.MATEHit {
	if h, ok := res.HitByIndex[idx]; ok {
		return &h
	}
	return nil
}

// Controller is the campaign controller: the software model of the FI
// control unit that HAFI platforms realise as a soft core or dedicated FSM
// on the FPGA. It drives the wide engine (RunCampaignBatchedPoolWithW) and
// the oracle that engine is checked against (RunCampaign on its one scalar
// Run).
type Controller struct {
	nl     *netlist.Netlist
	run    Run
	golden *Golden
	// ffQ caches the Q wire of every flip-flop for the convergence check
	// (hot path: one comparison per FF per cycle).
	ffQ []int32
	// matesByWire indexes the MATE set: for each fault wire, the MATEs
	// that can prove it benign, in set order (ascending set index) so
	// attribution is deterministic.
	matesByWire map[netlist.WireID][]indexedMATE
	// held is the table of the wide engine's held rule (held.go), built
	// on the first campaign that uses it.
	heldOnce sync.Once
	held     *heldTable
}

// indexedMATE pairs a MATE with its index in the campaign MATE set — the
// identity that attribution records and labeled metrics refer to.
type indexedMATE struct {
	m   *core.MATE
	idx int
}

// NewController prepares a controller for the given scalar device instance
// and golden reference.
func NewController(run Run, golden *Golden) *Controller {
	nl := run.Machine().NL
	c := &Controller{nl: nl, run: run, golden: golden}
	c.ffQ = make([]int32, len(nl.FFs))
	for i := range nl.FFs {
		c.ffQ[i] = int32(nl.FFs[i].Q)
	}
	return c
}

// NewControllerPool is NewController(factory(), golden). It is kept only
// for the benchmark harness, which names it; nothing shards scalar runs.
func NewControllerPool(factory func() Run, golden *Golden) *Controller {
	return NewController(factory(), golden)
}

// JournalHeader returns the journal identity of a campaign over the given
// fault list: golden signature plus fault-list fingerprint. journal.Resume
// uses it to refuse journals recorded for a different campaign.
func (c *Controller) JournalHeader(points []FaultPoint) journal.Header {
	return journal.Header{
		GoldenSignature: c.golden.Signature,
		NumPoints:       uint64(len(points)),
		FaultListHash:   FaultListHash(points),
	}
}

// FaultListHash fingerprints the exact injection-point sequence. Plain-SEU
// points hash exactly the legacy 12 bytes (FF, cycle, duration), so every
// journal recorded before fault-model diversity still resumes; points of
// other models append an extension block carrying the model tag and its
// operands, so two fault lists differing only in model never collide.
func FaultListHash(points []FaultPoint) uint64 {
	h := fnv.New64a()
	var b [20]byte
	for _, p := range points {
		binary.LittleEndian.PutUint32(b[0:], uint32(p.FF))
		binary.LittleEndian.PutUint32(b[4:], uint32(p.Cycle))
		binary.LittleEndian.PutUint32(b[8:], uint32(p.duration()))
		if p.plainSEU() {
			h.Write(b[:12])
			continue
		}
		b[12] = uint8(p.Model)
		b[13] = 0
		if p.StuckHigh {
			b[13] = 1
		}
		binary.LittleEndian.PutUint16(b[14:], uint16(p.span()))
		binary.LittleEndian.PutUint16(b[16:], uint16(p.period()))
		binary.LittleEndian.PutUint16(b[18:], uint16(len(p.targets())))
		h.Write(b[:20])
		for _, ff := range p.targets() {
			binary.LittleEndian.PutUint32(b[0:], uint32(ff))
			h.Write(b[:4])
		}
	}
	return h.Sum64()
}

// targetsHash fingerprints a SET flip set for the fixed-width journal
// record (FNV-1a over the little-endian u32 target indices).
func targetsHash(targets []int) uint64 {
	h := sigOffset64
	for _, ff := range targets {
		for shift := 0; shift < 32; shift += 8 {
			h = (h ^ uint64(uint8(uint32(ff)>>shift))) * sigPrime64
		}
	}
	return h
}

// pointRecord builds the journal record of one classified point. Plain-SEU
// points leave the model fields zero, keeping their journal encoding
// byte-identical to the v2 format; other models stamp the record with the
// model tag and normalised operands (journal format v3).
func pointRecord(idx uint64, p FaultPoint) journal.Record {
	rec := journal.Record{Index: idx, FF: uint32(p.FF), Cycle: uint32(p.Cycle), Duration: uint32(p.duration())}
	if !p.plainSEU() {
		rec.Model = uint8(p.Model)
		rec.Span = uint16(p.span())
		rec.Period = uint16(p.period())
		rec.StuckHigh = p.StuckHigh
		if p.Model == ModelSET {
			ts := p.targets()
			rec.NumTargets = uint16(len(ts))
			rec.TargetsHash = targetsHash(ts)
		}
	}
	return rec
}

// prepareCampaign validates the configuration (shared by the sequential
// and the batched engine) and computes the experiment timeout:
// TimeoutFactor × golden halt cycle, but always at least one cycle past
// the golden halt so a fault-free experiment can never be misclassified
// as a hang.
func (c *Controller) prepareCampaign(cfg *CampaignConfig) (timeout int, err error) {
	tf := cfg.TimeoutFactor
	if tf == 0 {
		tf = 2
	}
	switch {
	case math.IsNaN(tf):
		return 0, fmt.Errorf("hafi: TimeoutFactor is NaN")
	case tf < 0:
		return 0, fmt.Errorf("hafi: TimeoutFactor %g is negative", tf)
	case tf < 1:
		return 0, fmt.Errorf("hafi: TimeoutFactor %g < 1 would time out the golden run itself", tf)
	}
	timeout = int(tf * float64(c.golden.HaltCycle))
	if timeout <= c.golden.HaltCycle {
		timeout = c.golden.HaltCycle + 1
	}
	for i, p := range cfg.Points {
		if p.Cycle >= len(c.golden.Checkpoints) {
			return 0, fmt.Errorf("hafi: injection cycle %d beyond golden run (%d)", p.Cycle, len(c.golden.Checkpoints))
		}
		fm := Model(p.Model)
		if fm == nil {
			return 0, fmt.Errorf("hafi: point %d uses unknown fault model %d", i, p.Model)
		}
		if err := fm.Validate(c.nl, p); err != nil {
			return 0, fmt.Errorf("hafi: point %d: %w", i, err)
		}
	}
	if err := c.checkResume(cfg); err != nil {
		return 0, err
	}
	c.indexMATEs(cfg.MATESet)
	return timeout, nil
}

// checkResume verifies that recovered journal records actually describe
// this campaign: header identity and a point-for-point match between each
// record and the fault list. Any mismatch aborts — merging a foreign
// journal would fabricate results.
func (c *Controller) checkResume(cfg *CampaignConfig) error {
	if cfg.Resume == nil {
		return nil
	}
	if cfg.Resume.HasHeader {
		if want := c.JournalHeader(cfg.Points); cfg.Resume.Header != want {
			return fmt.Errorf("hafi: journal belongs to a different campaign (header %+v, want %+v)", cfg.Resume.Header, want)
		}
	}
	for idx, rec := range cfg.Resume.ByIndex {
		if idx >= uint64(len(cfg.Points)) {
			return fmt.Errorf("hafi: journal record for point %d beyond fault list (%d points)", idx, len(cfg.Points))
		}
		p := cfg.Points[idx]
		want := pointRecord(idx, p)
		if rec.FF != want.FF || rec.Cycle != want.Cycle || rec.Duration != want.Duration {
			return fmt.Errorf("hafi: journal record %d (ff=%d cycle=%d dur=%d) does not match fault list point (ff=%d cycle=%d dur=%d)",
				idx, rec.FF, rec.Cycle, rec.Duration, p.FF, p.Cycle, p.duration())
		}
		if rec.Model != want.Model || rec.Span != want.Span || rec.Period != want.Period ||
			rec.StuckHigh != want.StuckHigh || rec.NumTargets != want.NumTargets || rec.TargetsHash != want.TargetsHash {
			return fmt.Errorf("hafi: journal record %d (model=%s span=%d period=%d) does not match fault list point (model=%s span=%d period=%d)",
				idx, ModelID(rec.Model), rec.Span, rec.Period, p.Model, want.Span, want.Period)
		}
	}
	return nil
}

// progressCounter feeds the Progress callback the running count of newly
// classified points.
type progressCounter struct {
	fn func(int)
	n  int
}

func (pc *progressCounter) bump() {
	pc.n++
	if pc.fn != nil {
		pc.fn(pc.n)
	}
}

// RunCampaign is the oracle: it executes the configured campaign on the
// controller's one scalar Run, point after point in fault-list order, and
// returns the aggregated result. The wide engine is checked against its
// verdicts, attribution and convergence statistics.
func (c *Controller) RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	timeout, err := c.prepareCampaign(&cfg)
	if err != nil {
		return nil, err
	}
	sp := cfg.Obs.StartSpan("campaign")
	defer sp.End()
	met := newCampaignMetrics(cfg.Obs, len(cfg.Points))
	met.setWorkers(1)
	met.workerBusy(1)
	defer met.workerBusy(-1)
	res := newCampaignResult()
	prog := &progressCounter{fn: cfg.Progress}
	ctx := cfg.context()
	early := !cfg.DisableEarlyExit
	// converged credits one early-exited execution (validation re-runs of
	// pruned points included: the statistic counts executions, and staying
	// engine-independent requires crediting every one).
	converged := func(saved int) {
		if saved > 0 {
			res.Converged++
			res.CyclesSaved += int64(saved)
			met.convergedN(1, int64(saved))
		}
	}
	for i, p := range cfg.Points {
		idx := uint64(i)
		if cfg.Resume != nil {
			if rec, ok := cfg.Resume.ByIndex[idx]; ok {
				res.replay(rec, replayHit(cfg.Resume, idx))
				met.replay()
				continue
			}
		}
		if ctx.Err() != nil {
			break // graceful drain: stop starting new experiments
		}
		rec := pointRecord(idx, p)
		res.Total++
		var hit *journal.MATEHit
		mate, pruned := -1, false
		if cfg.MATESet != nil {
			mate, pruned = c.provedBenign(p)
		}
		if pruned {
			res.Skipped++
			res.PrunedByMATE[mate]++
			rec.Pruned = true
			width := len(cfg.MATESet.MATEs[mate].Literals)
			hit = &journal.MATEHit{Index: idx, FF: uint32(p.FF), MATE: uint32(mate), Width: uint16(width)}
			met.matePruned(mate, width)
			if cfg.ValidateSkipped {
				out, saved := c.safeExecute(p, timeout, early)
				converged(saved)
				if out != OutcomeBenign {
					res.SkippedWrong++
					rec.SkippedWrong = true
				}
			}
		} else {
			out, saved := c.safeExecute(p, timeout, early)
			converged(saved)
			res.Executed++
			res.ByOutcome[out]++
			rec.Outcome = uint8(out)
		}
		if cfg.Journal != nil {
			// The attribution hit lands before the experiment record: a crash
			// between the two leaves an orphan hit (ignored on recovery),
			// never a pruned point without attribution.
			if hit != nil {
				if err := cfg.Journal.AppendMATEHit(*hit); err != nil {
					return nil, err
				}
			}
			if err := cfg.Journal.Append(rec); err != nil {
				return nil, err
			}
		}
		met.point(rec)
		prog.bump()
	}
	res.Interrupted = ctx.Err() != nil
	return res, nil
}

// safeExecute runs one experiment with panic isolation: a panicking device
// model yields OutcomeHarnessError instead of aborting the campaign. The
// device needs no repair: the next experiment's Restore rewrites its
// flip-flops, inputs, memory, digest and cycle.
func (c *Controller) safeExecute(p FaultPoint, timeout int, early bool) (out Outcome, saved int) {
	defer func() {
		if r := recover(); r != nil {
			out, saved = OutcomeHarnessError, 0
		}
	}()
	return c.execute(c.run, p, timeout, early)
}

// indexMATEs builds the per-wire MATE index used by provedBenign. Walking
// set.MATEs in order keeps every per-wire slice sorted by set index, which
// makes the "fired first" attribution rule deterministic.
func (c *Controller) indexMATEs(set *core.MATESet) {
	c.matesByWire = map[netlist.WireID][]indexedMATE{}
	if set == nil {
		return
	}
	for i, m := range set.MATEs {
		for _, w := range m.Masks {
			c.matesByWire[w] = append(c.matesByWire[w], indexedMATE{m: m, idx: i})
		}
	}
}

// provedBenign evaluates the MATEs covering the fault wire on the golden
// trace — the per-cycle online check a MATE-enabled HAFI platform
// implements in logic. A multi-cycle upset is provably benign when some
// covering MATE triggers in *every* cycle it holds: each cycle starts from
// the golden state (inductively, because the previous cycle was masked) and
// the triggered MATE masks that cycle's inversion too.
//
// The argument covers exactly one fault shape: a single flip-flop inverted
// for a contiguous run of cycles. Points of other models are therefore only
// prunable when they degenerate to that shape (FaultModel.SEUEquivalent):
// a span-1 MBU, a single-target SET, an intermittent window holding at most
// one flip. Multi-flip sets, periodic re-flips from re-diverged state and
// data-dependent stuck-at forces return ok=false unconditionally — those
// faults always execute.
//
// When the point is proven benign, mate is the set index of the MATE that
// fired first: the lowest-index MATE triggering on the upset's first cycle.
// Each pruned point is credited to exactly one MATE, so the per-MATE credits
// of a campaign sum exactly to its skipped-point count.
func (c *Controller) provedBenign(p FaultPoint) (mate int, ok bool) {
	ff, dur, ok := Model(p.Model).SEUEquivalent(p)
	if !ok {
		return 0, false
	}
	q := c.nl.FFs[ff].Q
	credit := -1
	for cyc := p.Cycle; cyc < p.Cycle+dur; cyc++ {
		if cyc >= c.golden.Trace.NumCycles() {
			return 0, false
		}
		masked := false
		for _, im := range c.matesByWire[q] {
			if im.m.EvalTrace(c.golden.Trace, cyc) {
				masked = true
				if credit < 0 {
					credit = im.idx
				}
				break
			}
		}
		if !masked {
			return 0, false
		}
	}
	return credit, true
}

// execute restores the checkpoint, injects the fault and runs the workload
// to completion or timeout on the given device instance. The fault model
// decides what changes on which cycle: its Inject is called at the
// injection cycle and then at the beginning of every further non-halted
// cycle of its active window (for an SEU that re-inverts the held
// flip-flop, byte for byte the behavior before fault models existed).
//
// With early set, the controller applies the convergence early-exit: once
// the fault's active window is over, a cycle whose flip-flop state equals
// the golden reference AND whose memory write digest equals the golden
// digest proves the remaining execution identical to the fault-free run
// (the two-pass Settle contract makes the environment a function of
// FF-registered wires only, so FF state + external memory determine the
// future). The experiment is then classified benign without simulating the
// remaining cycles; saved reports how many were skipped (0 for a full
// run). The classification is exactly the one a full run would produce.
func (c *Controller) execute(run Run, p FaultPoint, timeout int, early bool) (out Outcome, saved int) {
	run.Restore(c.golden.Checkpoints[p.Cycle])
	fm := Model(p.Model)
	ffs := &machineFFs{run.Machine()}
	fm.Inject(ffs, p, p.Cycle)
	holdEnd := fm.ActiveEnd(p)
	digests := c.golden.MemDigests
	for cyc := p.Cycle; cyc < timeout; cyc++ {
		if cyc > p.Cycle && cyc < holdEnd && !run.Halted() {
			fm.Inject(ffs, p, cyc)
		}
		if run.Halted() {
			if run.Signature() == c.golden.Signature {
				return OutcomeBenign, 0
			}
			return OutcomeSDC, 0
		}
		if early && cyc >= holdEnd && cyc < len(digests) &&
			run.MemDigest() == digests[cyc] && c.ffConverged(run.Machine(), cyc) {
			return OutcomeBenign, c.golden.HaltCycle - cyc
		}
		run.Step()
	}
	if run.Halted() && run.Signature() == c.golden.Signature {
		return OutcomeBenign, 0
	}
	if run.Halted() {
		return OutcomeSDC, 0
	}
	return OutcomeHang, 0
}

// ffConverged reports whether the machine's stored flip-flop state equals
// the golden reference at the start of cycle cyc. Trace rows record the
// settled wires of a cycle, and Q wires are not driven by combinational
// gates, so row cyc's Q bits are exactly the FF state at the start of
// cycle cyc — matching the loop position of the caller.
func (c *Controller) ffConverged(m *sim.Machine, cyc int) bool {
	row := c.golden.Trace.Row(cyc)
	v := m.Values()
	for _, q := range c.ffQ {
		if v[q] != (row[q>>6]>>(uint(q)&63)&1 == 1) {
			return false
		}
	}
	return true
}

// FullFaultList enumerates every (FF, cycle) point up to maxCycle.
func FullFaultList(nl *netlist.Netlist, maxCycle int) []FaultPoint {
	var out []FaultPoint
	for cyc := 0; cyc < maxCycle; cyc++ {
		for ff := range nl.FFs {
			out = append(out, FaultPoint{FF: ff, Cycle: cyc})
		}
	}
	return out
}

// SampledFaultList enumerates every FF at every strideth cycle — the
// sampling a campaign planner would apply when the full space is too
// large. It is ModelFaultList for the SEU model; the group exclusion is
// the shared model-aware filter (a point is excluded when any flip-flop it
// upsets is in an excluded group).
func SampledFaultList(nl *netlist.Netlist, maxCycle, stride int, excludeGroups ...string) []FaultPoint {
	return ModelFaultList(nl, maxCycle, stride, ModelSpec{Model: ModelSEU}, excludeGroups...)
}

// FNV-1a parameters of the signature stream (identical to hash/fnv, inlined
// so the per-experiment signature computation allocates nothing).
const (
	sigOffset64 uint64 = 0xcbf29ce484222325
	sigPrime64  uint64 = 1099511628211
)

// SignatureHash hashes a byte stream into the result signature format
// (FNV-1a, byte for byte what hash/fnv.New64a produces — but without the
// heap-allocated hasher, as this runs once per executed experiment).
func SignatureHash(parts ...[]byte) uint64 {
	h := sigOffset64
	for _, p := range parts {
		for _, b := range p {
			h = (h ^ uint64(b)) * sigPrime64
		}
	}
	return h
}
