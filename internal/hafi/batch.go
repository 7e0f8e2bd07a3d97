package hafi

import (
	"fmt"
	"sync"

	"repro/internal/journal"
)

// DefaultCampaignLanes is the lane count the campaign front-ends default
// to: width 4 (256 lanes), the widest kernel with a hand-unrolled dense
// dispatch. Journals are byte-identical across widths.
const DefaultCampaignLanes = 256

// RunCampaignBatchedPoolWithW is the wide campaign engine's one entry point
// (the name is the one bench/ calls; it is shortened when bench/ is next
// edited): it executes the campaign on a pool of wide device instances —
// the paper's "one FI controller distributes the FI campaign over several
// FPGAs", with each instance playing one FPGA. It gives every point the
// outcome the oracle, RunCampaign, gives it, typically two orders of
// magnitude faster. MATE pruning is applied before execution, exactly like
// the sequential controller; ValidateSkipped re-executes pruned points on
// the devices as well.
//
// The engine is the lane scheduler of scheduler.go: a device sweeps the
// golden timeline, a lane whose experiment retired is handed the next
// pending point of the cycle the sweep has reached, and lanes retire
// individually through the convergence early-exit (see Controller.execute).
// CampaignConfig.DisableEarlyExit restores full runs. The devices share one
// plan and results are journaled in plan order from a single goroutine, so
// classification and the journal byte stream are identical at every lane
// count and pool size, and crash-resume and journal-diff behaviour does not
// depend on either.
//
// The caller builds the pool — one device per core it wants to use, and no
// more than ⌈points/lanes⌉, which is all a campaign can keep busy — and may
// reuse it across calls (a fleet worker executing many shards pays the
// construction once): a campaign restores a golden checkpoint into every
// lane before it injects. Every instance must model the netlist and
// workload the golden reference was recorded from; one that does not is
// refused before anything is classified or journaled.
//
// Resilience matches the sequential engine: recovered journal records are
// replayed instead of re-executed, every newly classified point is
// journaled in plan order as soon as every earlier point is (on
// cancellation the journal covers a contiguous plan prefix), cancellation
// stops handing out points while the experiments in flight finish, and a
// panicking device costs exactly the points that panic again when retried
// alone (OutcomeHarnessError).
func (c *Controller) RunCampaignBatchedPoolWithW(cfg CampaignConfig, runs []RunW) (*CampaignResult, error) {
	timeout, err := c.prepareCampaign(&cfg)
	if err != nil {
		return nil, err
	}
	if err := c.checkPool(runs); err != nil {
		return nil, err
	}
	sp := cfg.Obs.StartSpan("campaign")
	defer sp.End()
	met := newCampaignMetrics(cfg.Obs, len(cfg.Points))
	em := &emitter{c: c, cfg: &cfg, met: met, res: newCampaignResult(), prog: &progressCounter{fn: cfg.Progress}}

	toRun, toValidate, err := c.classifyPoints(&cfg, em)
	if err != nil {
		return nil, err
	}
	met.setLanes(runs[0].Lanes())
	met.setWorkers(len(runs))

	// Validation re-runs are a second plan through the same scheduler, so
	// their records follow every executed point's, as the sequential
	// controller's accounting expects.
	for _, pass := range []struct {
		order    []int32
		validate bool
	}{{toRun, false}, {toValidate, true}} {
		if len(pass.order) == 0 {
			continue
		}
		pl := newPlan(cfg.context(), cfg.Points, pass.order)
		if err := c.runPlan(&cfg, pl, pass.validate, runs, timeout, em, met); err != nil {
			return nil, err
		}
	}
	em.res.Interrupted = cfg.context().Err() != nil
	return em.res, nil
}

// checkPool refuses a pool the scheduler could only turn into harness
// errors: every device must simulate a netlist of the controller's shape
// and take the golden run's checkpoints.
func (c *Controller) checkPool(runs []RunW) error {
	if len(runs) == 0 {
		return fmt.Errorf("hafi: pool campaign needs at least one device instance")
	}
	for i, r := range runs {
		if r == nil {
			return fmt.Errorf("hafi: pool device %d is nil", i)
		}
		if nl := r.MachW().NL; nl.NumWires() != c.nl.NumWires() || len(nl.FFs) != len(c.nl.FFs) {
			return fmt.Errorf("hafi: pool device %d simulates %d wires and %d flip-flops, the controller's netlist has %d and %d",
				i, nl.NumWires(), len(nl.FFs), c.nl.NumWires(), len(c.nl.FFs))
		}
		if len(c.golden.Checkpoints) == 0 {
			continue
		}
		if err := tryLoad(r, c.golden.Checkpoints[0]); err != nil {
			return fmt.Errorf("hafi: pool device %d does not take the golden run's checkpoints: %v", i, err)
		}
	}
	return nil
}

// tryLoad is LoadCheckpoint with the device's refusal as an error.
func tryLoad(r RunW, cp Checkpoint) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	r.LoadCheckpoint(cp)
	return nil
}

// runPlan executes one plan on the pool: one goroutine per device drives
// the lane scheduler, the calling goroutine journals their results in plan
// order.
func (c *Controller) runPlan(cfg *CampaignConfig, pl *plan, validate bool, runs []RunW, timeout int, em *emitter, met *campaignMetrics) error {
	results := make(chan *[]laneResult, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, run := range runs {
		wg.Add(1)
		go func(i int, run RunW) {
			defer wg.Done()
			// Device panics are isolated per point inside device.drive; anything
			// reaching here is a harness bug — surface it as an error instead
			// of crashing the campaign.
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("hafi: pool worker panicked: %v", r)
				}
			}()
			met.workerBusy(1)
			defer met.workerBusy(-1)
			newDevice(c, cfg, run, timeout, results, met).drive(pl)
		}(i, run)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// After an emission error the drain continues (workers must not block)
	// but nothing further is journaled.
	em.begin(pl, validate)
	var firstErr error
	for rs := range results {
		if firstErr == nil {
			firstErr = em.accept(*rs)
		}
		*rs = (*rs)[:0]
		resultPool.Put(rs)
	}
	for _, err := range errs {
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil && em.next < len(pl.order) && pl.ctx.Err() == nil {
		firstErr = fmt.Errorf("hafi: scheduler finished with %d of %d points unclassified", len(pl.order)-em.next, len(pl.order))
	}
	return firstErr
}

// laneResult is one finished experiment on its way from a device to the
// emitter: its plan position, its verdict and, when the convergence
// early-exit retired it, the cycles that saved (0 otherwise: an exit at
// the golden halt cycle itself is a halt, not a convergence).
type laneResult struct {
	pos   int32
	saved int32
	out   Outcome
}

// resultPool recycles the slices laneResults travel in.
var resultPool = sync.Pool{New: func() interface{} { return new([]laneResult) }}

// emitter accumulates the campaign result and journals classified points.
// All methods must be called from a single goroutine: the scheduler funnels
// every device's results through one channel for exactly this reason.
type emitter struct {
	c    *Controller
	cfg  *CampaignConfig
	met  *campaignMetrics
	res  *CampaignResult
	prog *progressCounter

	// Reorder buffer of the plan being executed: ready[pos] holds a result
	// that arrived before every earlier position had; next is the first
	// position not yet journaled.
	pl       *plan
	validate bool
	ready    []readyResult
	next     int
	held     int
}

// readyResult is a laneResult at rest in the reorder buffer, which has one
// entry per plan position for the whole campaign: eight bytes each.
type readyResult struct {
	saved int32
	out   uint8
	done  bool
}

// journalPoint logs one classified point; a non-nil hit (attribution of a
// pruned point) lands immediately before the experiment record so a crash
// between the two leaves an orphan hit, never an unattributed pruned
// point.
func (em *emitter) journalPoint(rec journal.Record, hit *journal.MATEHit) error {
	if em.cfg.Journal != nil {
		if hit != nil {
			if err := em.cfg.Journal.AppendMATEHit(*hit); err != nil {
				return err
			}
		}
		if err := em.cfg.Journal.Append(rec); err != nil {
			return err
		}
	}
	em.met.point(rec)
	em.prog.bump()
	return nil
}

// credit accounts one pruned point to its MATE and builds the journal
// attribution record.
func (em *emitter) credit(idx uint64, p FaultPoint, mate int) *journal.MATEHit {
	em.res.Skipped++
	em.res.PrunedByMATE[mate]++
	width := len(em.cfg.MATESet.MATEs[mate].Literals)
	em.met.matePruned(mate, width)
	return &journal.MATEHit{Index: idx, FF: uint32(p.FF), MATE: uint32(mate), Width: uint16(width)}
}

// begin points the reorder buffer at a new plan.
func (em *emitter) begin(pl *plan, validate bool) {
	em.pl, em.validate = pl, validate
	em.ready = make([]readyResult, len(pl.order))
	em.next, em.held = 0, 0
}

// accept buffers one device's results and journals the contiguous plan
// prefix they complete, point by point.
func (em *emitter) accept(rs []laneResult) error {
	for _, r := range rs {
		em.ready[r.pos] = readyResult{saved: r.saved, out: uint8(r.out), done: true}
	}
	em.held += len(rs)
	em.res.reorderHighWater = max(em.res.reorderHighWater, em.held)
	for em.next < len(em.ready) && em.ready[em.next].done {
		if err := em.emitPoint(em.pl.order[em.next], em.ready[em.next]); err != nil {
			return err
		}
		em.next++
		em.held--
	}
	return nil
}

// emitPoint folds one executed point into the result and journal.
func (em *emitter) emitPoint(i int32, r readyResult) error {
	idx, p, o := uint64(i), em.cfg.Points[i], Outcome(r.out)
	em.res.Total++
	if r.saved > 0 {
		em.res.Converged++
		em.res.CyclesSaved += int64(r.saved)
		em.met.convergedN(1, int64(r.saved))
	}
	rec := pointRecord(idx, p)
	var hit *journal.MATEHit
	if em.validate {
		// The plan carries indices only; classifyPoints proved the point
		// benign, so the lookup repeats and cannot fail.
		mate, _ := em.c.provedBenign(p)
		hit = em.credit(idx, p, mate)
		rec.Pruned = true
		if o != OutcomeBenign {
			em.res.SkippedWrong++
			rec.SkippedWrong = true
		}
	} else {
		em.res.Executed++
		em.res.ByOutcome[o]++
		rec.Outcome = uint8(o)
	}
	return em.journalPoint(rec, hit)
}

// classifyPoints performs the pre-execution classification pass in
// fault-list order: resumed points replay, pruned points settle and are
// journaled immediately (unless they still need validation), and everything
// else is returned as fault-list indices, to run and to validate.
func (c *Controller) classifyPoints(cfg *CampaignConfig, em *emitter) (toRun, toValidate []int32, err error) {
	n := len(cfg.Points)
	if cfg.Resume != nil {
		n -= len(cfg.Resume.ByIndex)
	}
	toRun = make([]int32, 0, n)
	for i, p := range cfg.Points {
		idx := uint64(i)
		if cfg.Resume != nil {
			if rec, ok := cfg.Resume.ByIndex[idx]; ok {
				em.res.replay(rec, replayHit(cfg.Resume, idx))
				em.met.replay()
				continue
			}
		}
		if cfg.MATESet != nil {
			if mate, ok := c.provedBenign(p); ok {
				if cfg.ValidateSkipped {
					toValidate = append(toValidate, int32(i))
					continue
				}
				em.res.Total++
				hit := em.credit(idx, p, mate)
				rec := pointRecord(idx, p)
				rec.Pruned = true
				if err := em.journalPoint(rec, hit); err != nil {
					return nil, nil, err
				}
				continue
			}
		}
		toRun = append(toRun, int32(i))
	}
	return toRun, toValidate, nil
}
