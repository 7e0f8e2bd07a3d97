package hafi

import (
	"fmt"
	"sync"

	"repro/internal/journal"
)

// DefaultCampaignLanes is the lane count the campaign front-ends default
// to: width 4 (256 lanes), the widest kernel with a hand-unrolled dense
// dispatch. 64-lane devices remain fully supported (journals are
// byte-identical across widths).
const DefaultCampaignLanes = 256

// RunCampaignBatched executes the campaign on a 64-lane batched device.
// Semantically identical to RunCampaign (same outcomes for every point);
// typically an order of magnitude faster. MATE pruning is applied before
// execution, exactly like the sequential controller; ValidateSkipped
// re-executes pruned points on the device as well.
//
// Every RunCampaignBatched* entry point is the lane scheduler of
// scheduler.go over a pool of devices (here a pool of one): a device
// sweeps the golden timeline, a lane whose experiment retired is handed
// the next pending point of the cycle the sweep has reached, and lanes
// retire individually through the convergence early-exit (see
// Controller.execute). CampaignConfig.DisableEarlyExit restores full runs.
//
// Resilience matches the sequential engine: recovered journal records are
// replayed instead of re-executed, every newly classified point is
// journaled in plan order as soon as every earlier point is, cancellation
// stops handing out points while the experiments in flight finish, and a
// panicking device costs exactly the points that panic again when retried
// alone (OutcomeHarnessError).
func (c *Controller) RunCampaignBatched(cfg CampaignConfig, run64 Run64) (*CampaignResult, error) {
	return c.RunCampaignBatchedW(cfg, AsRunW(run64))
}

// RunCampaignBatchedW is RunCampaignBatched on a wide (64·W lane) device.
// Classification — and the journal byte stream — is identical at every
// width.
func (c *Controller) RunCampaignBatchedW(cfg CampaignConfig, run RunW) (*CampaignResult, error) {
	return c.runCampaignPool(cfg, []RunW{run}, nil)
}

// RunCampaignBatchedPool is RunCampaignBatched over a pool of up to
// cfg.Workers batched device instances — the paper's "one FI controller
// distributes the FI campaign over several FPGAs", with each worker
// playing one FPGA. The factory must produce Run64 instances of the same
// netlist and workload the golden reference was recorded from.
//
// The devices share one plan and results are journaled in plan order from
// a single goroutine, so the journal an uninterrupted pool campaign writes
// is byte-identical to the single-instance engine's, and crash-resume and
// journal-diff behavior is unchanged. On cancellation the journal covers a
// contiguous plan prefix.
func (c *Controller) RunCampaignBatchedPool(cfg CampaignConfig, factory func() (Run64, error)) (*CampaignResult, error) {
	return c.RunCampaignBatchedPoolW(cfg, func() (RunW, error) {
		r, err := factory()
		if err != nil {
			return nil, err
		}
		return AsRunW(r), nil
	})
}

// RunCampaignBatchedPoolW is RunCampaignBatchedPool over a factory of wide
// devices (see RunCampaignBatchedW).
func (c *Controller) RunCampaignBatchedPoolW(cfg CampaignConfig, factory func() (RunW, error)) (*CampaignResult, error) {
	return c.runCampaignPool(cfg, nil, factory)
}

// RunCampaignBatchedPoolWith is RunCampaignBatchedPool over caller-provided
// device instances instead of a factory: the pool size is len(runs) and the
// instances are reused as-is, so a long-lived process (a fleet worker
// executing many shards of one campaign) pays the device construction cost
// once, not once per shard. The instances must model the same netlist and
// workload the golden reference was recorded from; they are handed back in
// whatever state the last sweep left them (a campaign restores a golden
// checkpoint into every lane before it injects, so reuse is safe by
// construction).
func (c *Controller) RunCampaignBatchedPoolWith(cfg CampaignConfig, runs []Run64) (*CampaignResult, error) {
	rw := make([]RunW, len(runs))
	for i, r := range runs {
		rw[i] = AsRunW(r)
	}
	return c.RunCampaignBatchedPoolWithW(cfg, rw)
}

// RunCampaignBatchedPoolWithW is RunCampaignBatchedPoolWith over wide
// device instances.
func (c *Controller) RunCampaignBatchedPoolWithW(cfg CampaignConfig, runs []RunW) (*CampaignResult, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("hafi: pool campaign needs at least one device instance")
	}
	return c.runCampaignPool(cfg, runs, nil)
}

// runCampaignPool is the one batched engine: exactly one of runs/factory is
// set, fixing the pool or constructing it on demand.
func (c *Controller) runCampaignPool(cfg CampaignConfig, runs []RunW, factory func() (RunW, error)) (*CampaignResult, error) {
	timeout, err := c.prepareCampaign(&cfg)
	if err != nil {
		return nil, err
	}
	sp := cfg.Obs.StartSpan("campaign")
	defer sp.End()
	met := newCampaignMetrics(cfg.Obs, len(cfg.Points))
	em := &emitter{c: c, cfg: &cfg, met: met, res: newCampaignResult(), prog: newProgress(cfg.Progress)}

	toRun, toValidate, err := c.classifyPoints(&cfg, em)
	if err != nil {
		return nil, err
	}

	if factory != nil {
		// At least one device, and another while those built so far cannot
		// hold the whole plan at once.
		work := len(toRun) + len(toValidate)
		for len(runs) < max(cfg.Workers, 1) && (len(runs) == 0 || len(runs)*runs[0].Lanes() < work) {
			r, err := factory()
			if err != nil {
				return nil, fmt.Errorf("hafi: pool worker %d: %w", len(runs), err)
			}
			runs = append(runs, r)
		}
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
