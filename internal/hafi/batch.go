package hafi

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/journal"
	"repro/internal/sim"
)

// DefaultCampaignLanes is the lane count the campaign front-ends default
// to: width 4 (256 lanes), the widest kernel with a hand-unrolled dense
// dispatch. 64-lane devices remain fully supported (journals are
// byte-identical across widths).
const DefaultCampaignLanes = 256

// DefaultDeltaFallbackPercent is the frontier-occupancy threshold at which
// a cone-delta batch abandons sparse evaluation for dense dispatch,
// as a percent of the dense per-cycle gate-evaluation cost. Measured on
// the AVR/fib campaign (see EXPERIMENTS.md): per-gate delta evaluation
// costs ~3-4× a dense kernel slot (scattered loads, golden-row lookups,
// worklist pushes), so sparse stops paying between 25% and 50% occupancy;
// 40% was the ablation's flattest optimum and errs toward staying sparse,
// which the convergence early-exit rewards on long tails.
const DefaultDeltaFallbackPercent = 40

// stragglerMaxLive is the live-lane count at or below which a batch hands
// its remaining lanes to the straggler pool (when the device supports
// SuspendRunW): once no future injection or golden-relative convergence
// check is possible, the only thing left is running each survivor to its
// halt or timeout, and a handful of hang candidates should not drag a
// whole batch through thousands of near-empty simulation cycles. One lane
// group is the natural boundary — below it the device cannot shrink any
// further.
const stragglerMaxLive = 64

// stragglerMinTail is the minimum remaining cycle count that justifies
// suspending a lane: below it, finishing inline is cheaper than the
// export/import round trip.
const stragglerMinTail = 1024

// RunCampaignBatched executes the campaign on a 64-lane batched device:
// injection points that share a cycle are grouped, up to 64 of them run as
// lanes of one bit-parallel simulation. Semantically identical to
// RunCampaign (same outcomes for every point); typically an order of
// magnitude faster. MATE pruning is applied before batching, exactly like
// the sequential controller. ValidateSkipped re-executes pruned points
// batched as well.
//
// Lanes retire individually through the convergence early-exit (see
// Controller.execute): a lane whose flip-flop state and memory write
// digest re-converge with the golden reference after its hold window is
// classified benign immediately, and the batch ends as soon as every lane
// has halted or retired — long-tail batches no longer run to the slowest
// lane's halt. CampaignConfig.DisableEarlyExit restores full runs.
//
// Resilience matches the sequential engine: recovered journal records are
// replayed instead of re-executed, every newly classified point is
// journaled as its batch completes, cancellation drains at batch
// granularity, and a panicking batch is retried lane by lane so only the
// offending point is classified OutcomeHarnessError.
func (c *Controller) RunCampaignBatched(cfg CampaignConfig, run64 Run64) (*CampaignResult, error) {
	return c.RunCampaignBatchedW(cfg, AsRunW(run64))
}

// RunCampaignBatchedW is RunCampaignBatched on a wide (64·W lane) device:
// the batch plan packs up to run.Lanes() same-cycle points per batch, and
// when the device supports the cone-delta evaluator (DeltaRunW) each batch
// runs in sparse delta mode until frontier occupancy crosses the dense
// fallback threshold. Classification — and the journal byte stream — is
// identical at every width and in both engine modes.
func (c *Controller) RunCampaignBatchedW(cfg CampaignConfig, run RunW) (*CampaignResult, error) {
	timeout, err := c.prepareCampaign(&cfg)
	if err != nil {
		return nil, err
	}
	ctx := cfg.context()
	sp := cfg.Obs.StartSpan("campaign")
	defer sp.End()
	met := newCampaignMetrics(cfg.Obs, len(cfg.Points))
	st := newBatchState(&cfg, met)
	met.setLanes(run.Lanes())

	specs, err := c.classifyPoints(&cfg, st, run.Lanes())
	if err != nil {
		return nil, err
	}

	// Straggler suspension (SuspendRunW devices only): a batch down to a
	// handful of live lanes past every injection and convergence horizon
	// hands them to the pool instead of simulating a near-empty device to
	// the timeout; the pool finishes all batches' stragglers together in
	// packed waves. Specs whose outcomes are complete emit immediately;
	// a spec with suspended lanes — and everything after it, to keep the
	// journal a contiguous plan prefix — is buffered and emitted after
	// resolution.
	type pendingSpec struct {
		outcomes []Outcome
		conv     int
		saved    int64
		waiting  int
	}
	var (
		scratch batchScratch
		pending []pendingSpec
		susp    []suspLane
		emitted int
	)
	scratch.suspendOK = true
	flush := func() error {
		for emitted < len(pending) && pending[emitted].waiting == 0 {
			p := &pending[emitted]
			st.res.Converged += p.conv
			st.res.CyclesSaved += p.saved
			if err := st.emitSpec(specs[emitted], p.outcomes); err != nil {
				return err
			}
			emitted++
		}
		return nil
	}
	for si, spec := range specs {
		if ctx.Err() != nil {
			break
		}
		conv, saved, outcomes := c.runSpec(&cfg, run, spec, timeout, met, &scratch)
		pending = append(pending, pendingSpec{
			outcomes: append([]Outcome(nil), outcomes...),
			conv:     conv,
			saved:    saved,
			waiting:  len(scratch.susp),
		})
		for _, s := range scratch.susp {
			s.spec = si
			susp = append(susp, s)
		}
		if err := flush(); err != nil {
			return nil, err
		}
	}
	if len(susp) > 0 {
		c.resolveStragglers(&cfg, run, timeout, susp, func(spec, item int, o Outcome) {
			pending[spec].outcomes[item] = o
			pending[spec].waiting--
		}, &scratch)
		if err := flush(); err != nil {
			return nil, err
		}
	}
	st.res.Interrupted = ctx.Err() != nil
	return st.res, nil
}

// RunCampaignBatchedPool is RunCampaignBatched sharded over a pool of
// cfg.Workers batched device instances — the paper's "one FI controller
// distributes the FI campaign over several FPGAs", with each worker
// playing one FPGA. The factory must produce Run64 instances of the same
// netlist and workload the golden reference was recorded from.
//
// The batch plan is the exact plan of the single-instance engine, batches
// are dispatched to workers in plan order, and results are emitted through
// a reorder buffer in plan order from a single goroutine — so the journal
// an uninterrupted pool campaign writes is byte-identical to the
// single-instance engine's, and crash-resume/journal-diff behavior is
// unchanged. On cancellation, dispatch stops; in-flight batches finish and
// are emitted, so the journal still covers a contiguous plan prefix.
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
// devices (see RunCampaignBatchedW). Every instance the factory produces
// must have the same lane count.
func (c *Controller) RunCampaignBatchedPoolW(cfg CampaignConfig, factory func() (RunW, error)) (*CampaignResult, error) {
	return c.runCampaignPool(cfg, nil, factory)
}

// RunCampaignBatchedPoolWith is RunCampaignBatchedPool over caller-provided
// device instances instead of a factory: the pool size is len(runs) and the
// instances are reused as-is, so a long-lived process (a fleet worker
// executing many shards of one campaign) pays the device construction cost
// once, not once per shard. The instances must model the same netlist and
// workload the golden reference was recorded from; they are handed back in
// whatever state the last batch left them (every batch restores a golden
// checkpoint before injecting, so reuse is safe by construction).
func (c *Controller) RunCampaignBatchedPoolWith(cfg CampaignConfig, runs []Run64) (*CampaignResult, error) {
	rw := make([]RunW, len(runs))
	for i, r := range runs {
		rw[i] = AsRunW(r)
	}
	return c.RunCampaignBatchedPoolWithW(cfg, rw)
}

// RunCampaignBatchedPoolWithW is RunCampaignBatchedPoolWith over wide
// device instances. All instances must share one lane count.
func (c *Controller) RunCampaignBatchedPoolWithW(cfg CampaignConfig, runs []RunW) (*CampaignResult, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("hafi: pool campaign needs at least one device instance")
	}
	return c.runCampaignPool(cfg, runs, nil)
}

// runCampaignPool is the shared pool engine: exactly one of runs/factory is
// set, fixing the pool size or constructing it on demand.
func (c *Controller) runCampaignPool(cfg CampaignConfig, runs []RunW, factory func() (RunW, error)) (*CampaignResult, error) {
	timeout, err := c.prepareCampaign(&cfg)
	if err != nil {
		return nil, err
	}
	ctx := cfg.context()
	sp := cfg.Obs.StartSpan("campaign")
	defer sp.End()
	met := newCampaignMetrics(cfg.Obs, len(cfg.Points))
	st := newBatchState(&cfg, met)

	nw := cfg.Workers
	if runs != nil {
		nw = len(runs)
	}
	if nw < 1 {
		nw = 1
	}
	// The batch plan depends on the device lane count, so at least one
	// instance must exist before planning; the rest of a factory pool is
	// constructed after the plan fixes the worker count.
	if runs == nil {
		first, err := factory()
		if err != nil {
			return nil, fmt.Errorf("hafi: pool worker 0: %w", err)
		}
		runs = append(make([]RunW, 0, nw), first)
	}
	lanes := runs[0].Lanes()
	for i, r := range runs {
		if r.Lanes() != lanes {
			return nil, fmt.Errorf("hafi: pool device %d has %d lanes, pool runs at %d", i, r.Lanes(), lanes)
		}
	}
	met.setLanes(lanes)

	specs, err := c.classifyPoints(&cfg, st, lanes)
	if err != nil {
		return nil, err
	}

	if nw > len(specs) && len(specs) > 0 {
		nw = len(specs)
	}
	if factory != nil {
		for len(runs) < nw {
			r, err := factory()
			if err != nil {
				return nil, fmt.Errorf("hafi: pool worker %d: %w", len(runs), err)
			}
			if r.Lanes() != lanes {
				return nil, fmt.Errorf("hafi: pool device %d has %d lanes, pool runs at %d", len(runs), r.Lanes(), lanes)
			}
			runs = append(runs, r)
		}
	}
	runs = runs[:nw]
	met.setWorkers(nw)

	// batchDone carries one completed batch back to the emitter. outcomes
	// aliases a pooled buffer (buf) returned to outPool after emission.
	type batchDone struct {
		spec     int
		conv     int
		saved    int64
		outcomes []Outcome
		buf      *[]Outcome
		err      error
	}
	work := make(chan int)
	results := make(chan batchDone, nw)
	outPool := sync.Pool{New: func() interface{} {
		s := make([]Outcome, 0, lanes)
		return &s
	}}

	// Dispatcher: batch indices strictly in plan order, stopping (never
	// mid-batch) once the campaign context is cancelled.
	go func() {
		defer close(work)
		for si := range specs {
			select {
			case work <- si:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(run RunW) {
			defer wg.Done()
			var scratch batchScratch
			scratch.suspendOK = true
			// Straggler-bearing batches are held back (the emitter's reorder
			// buffer absorbs the gap) and resolved together on this worker's
			// device once the plan drains; spec/item of a pool worker's
			// suspLane index heldDone, not the plan.
			var (
				heldDone    []batchDone
				heldWaiting []int
				susp        []suspLane
			)
			for si := range work {
				d := batchDone{spec: si}
				nsusp := 0
				// Worker-level backstop, mirroring runParallel: panics are
				// already isolated per batch and per lane inside runSpec, so
				// anything reaching here is a harness bug — surface it as an
				// error instead of crashing the campaign.
				func() {
					defer func() {
						if r := recover(); r != nil {
							d.err = fmt.Errorf("hafi: pool worker panicked: %v", r)
						}
					}()
					met.workerBusy(1)
					defer met.workerBusy(-1)
					var out []Outcome
					d.conv, d.saved, out = c.runSpec(&cfg, run, specs[si], timeout, met, &scratch)
					// The scratch is reused for the next batch; the emitter
					// needs a stable copy. The copy's backing array cycles
					// through outPool instead of being reallocated per batch.
					d.buf = outPool.Get().(*[]Outcome)
					d.outcomes = append((*d.buf)[:0], out...)
					nsusp = len(scratch.susp)
				}()
				if d.err == nil && nsusp > 0 {
					for _, s := range scratch.susp {
						s.spec = len(heldDone)
						susp = append(susp, s)
					}
					heldDone = append(heldDone, d)
					heldWaiting = append(heldWaiting, nsusp)
					continue
				}
				results <- d
			}
			if len(susp) > 0 {
				met.workerBusy(1)
				c.resolveStragglers(&cfg, run, timeout, susp, func(hi, item int, o Outcome) {
					heldDone[hi].outcomes[item] = o
					heldWaiting[hi]--
				}, &scratch)
				met.workerBusy(-1)
			}
			for hi, d := range heldDone {
				if heldWaiting[hi] > 0 {
					// Cancelled mid-resolution: the batch has unclassified
					// lanes, so it must not reach the journal. The emitter
					// stops releasing at the first missing spec, keeping the
					// journal a contiguous plan prefix.
					*d.buf = d.outcomes[:0]
					outPool.Put(d.buf)
					continue
				}
				results <- d
			}
		}(runs[w])
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Emitter: reorder buffer releasing the contiguous prefix in plan
	// order. After an emission error the drain continues (workers must not
	// block) but nothing further is journaled.
	pending := make(map[int]batchDone)
	next := 0
	var firstErr error
	for d := range results {
		pending[d.spec] = d
		for {
			dd, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if firstErr == nil && dd.err != nil {
				firstErr = dd.err
			}
			if firstErr == nil {
				st.res.Converged += dd.conv
				st.res.CyclesSaved += dd.saved
				if err := st.emitSpec(specs[dd.spec], dd.outcomes); err != nil {
					firstErr = err
				}
			}
			if dd.buf != nil {
				*dd.buf = dd.outcomes[:0]
				outPool.Put(dd.buf)
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	st.res.Interrupted = ctx.Err() != nil
	return st.res, nil
}

// batchState bundles the result accumulation and journal emission shared
// by the single-instance and pool engines. All methods must be called from
// a single goroutine (the pool engine funnels completed batches through
// its reorder buffer for exactly this reason).
type batchState struct {
	cfg  *CampaignConfig
	met  *campaignMetrics
	res  *CampaignResult
	prog *progressCounter
}

func newBatchState(cfg *CampaignConfig, met *campaignMetrics) *batchState {
	return &batchState{cfg: cfg, met: met, res: newCampaignResult(), prog: newProgress(cfg.Progress)}
}

// journalPoint logs one classified point; a non-nil hit (attribution of a
// pruned point) lands immediately before the experiment record so a crash
// between the two leaves an orphan hit, never an unattributed pruned
// point.
func (st *batchState) journalPoint(rec journal.Record, hit *journal.MATEHit) error {
	if st.cfg.Journal != nil {
		if hit != nil {
			if err := st.cfg.Journal.AppendMATEHit(*hit); err != nil {
				return err
			}
		}
		if err := st.cfg.Journal.Append(rec); err != nil {
			return err
		}
	}
	st.met.point(rec)
	st.prog.bump()
	return nil
}

func record(idx uint64, p FaultPoint) journal.Record {
	return pointRecord(idx, p)
}

// credit accounts one pruned point to its MATE and builds the journal
// attribution record.
func (st *batchState) credit(idx uint64, p FaultPoint, mate int) *journal.MATEHit {
	st.res.Skipped++
	st.res.PrunedByMATE[mate]++
	width := len(st.cfg.MATESet.MATEs[mate].Literals)
	st.met.matePruned(mate, width)
	return &journal.MATEHit{Index: idx, FF: uint32(p.FF), MATE: uint32(mate), Width: uint16(width)}
}

// emitSpec folds one completed batch into the result and journal, lane by
// lane in batch order.
func (st *batchState) emitSpec(spec batchSpec, outcomes []Outcome) error {
	for j, it := range spec.items {
		o := outcomes[j]
		st.res.Total++
		rec := record(it.idx, it.p)
		var hit *journal.MATEHit
		if spec.validate {
			hit = st.credit(it.idx, it.p, it.mate)
			rec.Pruned = true
			if o != OutcomeBenign {
				st.res.SkippedWrong++
				rec.SkippedWrong = true
			}
		} else {
			st.res.Executed++
			st.res.ByOutcome[o]++
			rec.Outcome = uint8(o)
		}
		if err := st.journalPoint(rec, hit); err != nil {
			return err
		}
	}
	return nil
}

// classifyPoints performs the pre-batch classification pass in fault-list
// order: resumed points replay, pruned points settle immediately (final
// unless they still need validation), and everything else lands in the
// deterministic batch plan. The returned specs are the to-run batches
// followed by the to-validate batches, each grouped by injection cycle
// into ≤lanes-lane batches — identical for the single-instance and pool
// engines.
func (c *Controller) classifyPoints(cfg *CampaignConfig, st *batchState, lanes int) ([]batchSpec, error) {
	var toRun, toValidate []batchItem
	for i, p := range cfg.Points {
		idx := uint64(i)
		if cfg.Resume != nil {
			if rec, ok := cfg.Resume.ByIndex[idx]; ok {
				st.res.replay(rec, replayHit(cfg.Resume, idx))
				st.met.replay()
				continue
			}
		}
		if cfg.MATESet != nil {
			if mate, ok := c.provedBenign(p); ok {
				if cfg.ValidateSkipped {
					toValidate = append(toValidate, batchItem{idx, p, mate})
					continue
				}
				st.res.Total++
				hit := st.credit(idx, p, mate)
				rec := record(idx, p)
				rec.Pruned = true
				if err := st.journalPoint(rec, hit); err != nil {
					return nil, err
				}
				continue
			}
		}
		toRun = append(toRun, batchItem{idx, p, -1})
	}
	return append(planBatches(toRun, false, lanes), planBatches(toValidate, true, lanes)...), nil
}

// batchItem carries a fault point together with its global fault-list
// index (the journal key) and, for validated-skipped points, the set index
// of the crediting MATE (-1 for executed points).
type batchItem struct {
	idx  uint64
	p    FaultPoint
	mate int
}

// batchSpec is one planned ≤lanes-lane batch: same-cycle items in the
// deterministic plan order shared by every batched engine.
type batchSpec struct {
	items    []batchItem
	cycle    int
	validate bool
}

// planBatches groups items by injection cycle into ≤lanes-lane batches.
// The grouping (stable sort by cycle, greedy fill) is deterministic, so
// the single-instance and pool engines produce the same plan — the basis
// of their byte-identical journals. Since records are emitted per point in
// item order and the sort is stable, the journal byte stream is also
// identical across lane counts: wider devices only change how many
// consecutive plan items share one simulation.
func planBatches(items []batchItem, validate bool, lanes int) []batchSpec {
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return items[idx[a]].p.Cycle < items[idx[b]].p.Cycle })
	var specs []batchSpec
	for lo := 0; lo < len(idx); {
		cycle := items[idx[lo]].p.Cycle
		hi := lo
		for hi < len(idx) && hi-lo < lanes && items[idx[hi]].p.Cycle == cycle {
			hi++
		}
		spec := batchSpec{cycle: cycle, validate: validate, items: make([]batchItem, 0, hi-lo)}
		for _, ii := range idx[lo:hi] {
			spec.items = append(spec.items, items[ii])
		}
		specs = append(specs, spec)
		lo = hi
	}
	return specs
}

// batchScratch is the per-engine-instance reusable working set of the
// batch loop: one campaign runs thousands of batches, and per-batch slice
// allocations were a measurable share of the campaign's allocation count.
// Sized on first use for the device's lane count.
type batchScratch struct {
	lanes    int
	batch    []FaultPoint
	outcomes []Outcome
	solo     []Outcome
	ffs      []laneFFs
	dffs     []deltaFFs
	ends     []int
	laneItem []int
	witness  []int32
	src      []uint16
	used     []uint64
	halted   []uint64
	done     []uint64

	// susp collects the lanes runBatch suspended into the straggler pool
	// (item indices are batch-relative; runSpec's caller rebases them);
	// suspendOK arms suspension — only the single-instance engine sets it,
	// the pool engine's per-point outcomes flow through worker channels
	// that have nowhere to park an unresolved lane.
	susp      []suspLane
	suspendOK bool
}

// suspLane is one suspended experiment: the plan spec and batch item it
// settles, the logical cycle its snapshot was taken at, and the opaque
// target-specific lane state (SuspendRunW.ExportLane).
type suspLane struct {
	spec  int
	item  int
	cyc   int
	state interface{}
}

func (sc *batchScratch) init(lanes int) {
	if sc.lanes == lanes {
		return
	}
	groups := lanes / 64
	sc.lanes = lanes
	sc.batch = make([]FaultPoint, lanes)
	sc.outcomes = make([]Outcome, lanes)
	sc.solo = make([]Outcome, 1)
	sc.ffs = make([]laneFFs, lanes)
	sc.dffs = make([]deltaFFs, lanes)
	sc.ends = make([]int, lanes)
	sc.laneItem = make([]int, lanes)
	sc.witness = make([]int32, lanes)
	sc.src = make([]uint16, lanes)
	sc.used = make([]uint64, groups)
	sc.halted = make([]uint64, groups)
	sc.done = make([]uint64, groups)
}

// runSpec executes one planned batch (with panic isolation and lane-by-lane
// retry) and returns the convergence statistics plus the per-lane outcomes,
// which alias the scratch and are only valid until the next runSpec call on
// the same scratch. Items the batch suspended into the straggler pool are
// listed in scratch.susp (reset on every call) and have no outcome yet;
// the single-instance engine resolves them after the plan drains, the pool
// engine never suspends.
func (c *Controller) runSpec(cfg *CampaignConfig, run RunW, spec batchSpec, timeout int, met *campaignMetrics, scratch *batchScratch) (converged int, saved int64, outcomes []Outcome) {
	scratch.init(run.Lanes())
	scratch.susp = scratch.susp[:0]
	n := len(spec.items)
	batch := scratch.batch[:n]
	for j, it := range spec.items {
		batch[j] = it.p
	}
	outcomes = scratch.outcomes[:n]

	met.batch(n)
	bsp := cfg.Obs.StartSpan("campaign/batch")
	early := !cfg.DisableEarlyExit
	conv, sv, panicked := c.runBatchSafe(cfg, run, batch, spec.cycle, timeout, early, outcomes, scratch, met)
	if panicked {
		// Isolate the faulty lane: retry each point as its own 1-lane
		// batch. Only the point(s) that still panic solo are charged with
		// the harness error; healthy lanes get their verdict.
		conv, sv = 0, 0
		scratch.susp = scratch.susp[:0]
		for j := range batch {
			mark := len(scratch.susp)
			soloConv, soloSaved, soloPanic := c.runBatchSafe(cfg, run, batch[j:j+1], spec.cycle, timeout, early, scratch.solo[:1], scratch, met)
			switch {
			case soloPanic:
				scratch.susp = scratch.susp[:mark]
				outcomes[j] = OutcomeHarnessError
			case len(scratch.susp) > mark:
				// The solo lane suspended itself; rebase its item index
				// from the 1-lane sub-batch to the spec.
				scratch.susp[mark].item = j
				conv += soloConv
				sv += soloSaved
			default:
				outcomes[j] = scratch.solo[0]
				conv += soloConv
				sv += soloSaved
			}
		}
	}
	met.convergedN(conv, sv)
	bsp.Detail("cycle %d, %d lanes, %d converged", spec.cycle, n, conv)
	met.batchDone(bsp.End(), n)
	return conv, sv, outcomes
}

// runBatchSafe executes one same-cycle batch with panic isolation.
func (c *Controller) runBatchSafe(cfg *CampaignConfig, run RunW, batch []FaultPoint, cycle, timeout int, early bool, outcomes []Outcome, sc *batchScratch, met *campaignMetrics) (converged int, saved int64, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			converged, saved, panicked = 0, 0, true
		}
	}()
	conv, sv := c.runBatch(cfg, run, batch, cycle, timeout, early, outcomes, sc, met)
	return conv, sv, false
}

// runBatch loads the shared checkpoint, injects one fault per lane (each
// lane's fault model decides which flip-flops change on which cycle), runs
// to halt/timeout and classifies every lane into outcomes (len(batch)
// entries). All points share cycle.
//
// With early set, lanes retire individually: each cycle the lane-parallel
// divergence mask (OR over all flip-flops of lane^golden) identifies lanes
// whose flip-flop state equals the golden reference; those of them past
// their fault's active window whose memory write digest also matches golden
// retire benign on the spot. The batch ends once every lane has halted or
// retired, which is what turns wide batches with one slow lane from
// worst-case into average-case runtime.
//
// When the device supports it (DeltaRunW) and the config allows, the batch
// starts in cone-delta mode: gate evaluation restricted to the frontier of
// wires differing from the golden trace, with injections, divergence masks
// and the halted flag all answered in delta space. The batch falls back to
// dense dispatch — once, irreversibly — when the frontier grows past the
// occupancy threshold or the golden trace ends (the final signature read
// always happens on materialized dense state). Classification is identical
// in both modes.
func (c *Controller) runBatch(cfg *CampaignConfig, run RunW, batch []FaultPoint, cycle, timeout int, early bool, outcomes []Outcome, sc *batchScratch, met *campaignMetrics) (converged int, saved int64) {
	run.LoadCheckpoint(c.golden.Checkpoints[cycle])
	groups := sc.lanes / 64
	used, halted, done := sc.used, sc.halted, sc.done
	for g := 0; g < groups; g++ {
		used[g], halted[g], done[g] = 0, 0, 0
	}
	// nLanes live device lanes carry the batch; laneItem maps each to its
	// batch item (identity until retired lanes are compacted away, then a
	// shrinking prefix of the device).
	nLanes := len(batch)
	laneItem := sc.laneItem
	// witness[lane] is the lane's watched flip-flop: the index where the
	// convergence check last saw it diverge. As long as that flip-flop
	// still differs from golden the lane cannot have converged, so the
	// per-cycle check is one word load instead of a scan over every
	// flip-flop — the classic watched-literal trick. Any valid index is a
	// sound starting point; 0 simply forces one full scan on first use.
	witness := sc.witness
	for lane := range batch {
		used[lane>>6] |= 1 << (uint(lane) & 63)
		laneItem[lane] = lane
		witness[lane] = 0
	}
	// Lane compaction: once enough lanes have been classified (done) that
	// the survivors fit in fewer 64-lane groups, pack them into the low
	// lanes and shrink the device — the per-cycle cost of a wide batch then
	// tracks its live lanes instead of its original width. Dense mode only:
	// the cone-delta evaluator is anchored to full-width golden broadcasts.
	compactRun, _ := run.(CompactRunW)
	if sc.lanes <= 64 {
		compactRun = nil // nothing to shrink below one group
	}

	// The golden trace bounds delta execution: past its last recorded row
	// there is nothing to be relative to.
	traceEnd := 0
	if c.golden.Trace != nil {
		traceEnd = c.golden.Trace.NumCycles()
		if c.golden.HaltCycle < traceEnd {
			traceEnd = c.golden.HaltCycle
		}
	}
	var d *sim.DeltaState
	var dr DeltaRunW
	if !cfg.DisableDelta && cycle < traceEnd {
		if drw, ok := run.(DeltaRunW); ok {
			if ds := drw.InitDelta(c.golden.Trace); ds != nil {
				d, dr = ds, drw
				d.Reset(cycle)
			}
		}
	}
	deltaMode := d != nil
	fallbackOps := 0
	if deltaMode {
		pct := cfg.DeltaFallbackPercent
		if pct <= 0 {
			pct = DefaultDeltaFallbackPercent
		}
		fallbackOps = d.NumOps() * pct / 100
	}

	ends := sc.ends
	inject := func(lane int, p FaultPoint, cyc int) {
		if deltaMode {
			Model(p.Model).Inject(&sc.dffs[lane], p, cyc)
		} else {
			Model(p.Model).Inject(&sc.ffs[lane], p, cyc)
		}
	}
	for lane, p := range batch {
		sc.ffs[lane] = laneFFs{r: run, lane: lane}
		sc.dffs[lane] = deltaFFs{d: d, lane: lane}
		ends[lane] = Model(p.Model).ActiveEnd(p)
		inject(lane, p, cycle)
	}

	readHalted := func() {
		for g := 0; g < groups; g++ {
			if deltaMode {
				halted[g] = dr.HaltedMaskDeltaG(g)
			} else {
				halted[g] = run.HaltedMaskG(g)
			}
		}
	}
	allDone := func() bool {
		for g := 0; g < groups; g++ {
			if (halted[g]|done[g])&used[g] != used[g] {
				return false
			}
		}
		return true
	}

	mw := run.MachW()
	digests := c.golden.MemDigests

	// Straggler suspension (see resolveStragglers): once the batch is past
	// every injection end and the golden digest horizon, a surviving lane
	// can only run to its halt or its timeout — no convergence retirement,
	// no re-injection, no golden-relative check touches it again. From that
	// cycle on, a batch down to at most one group of live lanes exports
	// them into the straggler pool instead of dragging a nearly empty
	// device through the remaining cycles alone.
	suspRun, _ := run.(SuspendRunW)
	if !sc.suspendOK {
		suspRun = nil
	}
	// maxEnd is the last cycle any lane's fault is active. Compaction only
	// drops lanes, so it stays an upper bound; from it on the per-lane
	// re-injection and window loops below have nothing to do (for SEU that
	// is every cycle after the first).
	maxEnd := 0
	for lane := 0; lane < nLanes; lane++ {
		maxEnd = max(maxEnd, ends[lane])
	}
	suspendAfter := max(len(digests), maxEnd)

	for cyc := cycle; cyc < timeout; cyc++ {
		if cyc > cycle && cyc < maxEnd {
			readHalted()
			for lane := 0; lane < nLanes; lane++ {
				if cyc < ends[lane] && (halted[lane>>6]|done[lane>>6])>>(uint(lane)&63)&1 == 0 {
					inject(lane, batch[laneItem[lane]], cyc)
				}
			}
		}
		// Re-read after the injections: a fault landing in the halt flag
		// itself must be visible to this cycle's retirement/termination
		// decisions, exactly as in the historical 64-lane engine.
		readHalted()
		if !deltaMode {
			// Eager classification: a halted lane's state is frozen (the
			// sequential controller reads its verdict at the halt and the
			// engines journal byte-identically), so its signature now equals
			// its signature at batch end. Classifying it immediately marks it
			// done, which is what feeds the lane compaction below.
			for g := 0; g < groups; g++ {
				h := used[g] & halted[g] &^ done[g]
				for h != 0 {
					l := bits.TrailingZeros64(h)
					h &^= 1 << uint(l)
					lane := g<<6 + l
					if run.SignatureLane(lane) == c.golden.Signature {
						outcomes[laneItem[lane]] = OutcomeBenign
					} else {
						outcomes[laneItem[lane]] = OutcomeSDC
					}
					done[g] |= 1 << uint(l)
				}
			}
		}
		if early && cyc < len(digests) {
			var row []uint64
			if !deltaMode {
				row = c.golden.Trace.Row(cyc)
			}
			for g := 0; g < groups; g++ {
				// Eligible for retirement: in use, not halted, not already
				// classified, and past the fault's active window (an active
				// lane is re-injected above and cannot match golden mid-window
				// anyway; the explicit gate keeps the invariant local).
				elig := used[g] &^ (halted[g] | done[g])
				if elig == 0 {
					continue
				}
				base := g << 6
				hi := base + 64
				if hi > nLanes {
					hi = nLanes
				}
				if cyc < maxEnd {
					for lane := base; lane < hi; lane++ {
						if cyc < ends[lane] {
							elig &^= 1 << uint(lane-base)
						}
					}
				}
				if elig == 0 {
					continue
				}
				if deltaMode {
					conv := elig &^ d.DivergenceMaskG(g)
					for conv != 0 {
						l := bits.TrailingZeros64(conv)
						conv &^= 1 << uint(l)
						lane := base + l
						if run.MemDigestLane(lane) == digests[cyc] {
							done[g] |= 1 << uint(l)
							outcomes[laneItem[lane]] = OutcomeBenign
							converged++
							saved += int64(c.golden.HaltCycle - cyc)
						}
					}
					continue
				}
				// Dense mode: watched-flip-flop filter. A lane whose watched
				// flip-flop still differs from golden has not converged and
				// costs one load; the digest gate then excludes lanes that
				// could not retire this cycle anyway, and only the remainder
				// pays the full flip-flop scan (which also picks the next
				// watched flip-flop). Retirement decisions — and therefore
				// the converged/saved statistics — are identical to the
				// group-wide divergence-mask formulation this replaces.
				for m := elig; m != 0; {
					l := bits.TrailingZeros64(m)
					m &^= 1 << uint(l)
					lane := base + l
					if mw.FFDivergedLane(int(witness[lane]), lane, row) {
						continue
					}
					if run.MemDigestLane(lane) != digests[cyc] {
						continue
					}
					if k := mw.FirstDivergedFF(lane, row); k >= 0 {
						witness[lane] = int32(k)
						continue
					}
					done[g] |= 1 << uint(l)
					outcomes[laneItem[lane]] = OutcomeBenign
					converged++
					saved += int64(c.golden.HaltCycle - cyc)
				}
			}
		}
		if allDone() {
			break
		}
		if suspRun != nil && !deltaMode && cyc >= suspendAfter && timeout-cyc > stragglerMinTail {
			live := 0
			for g := 0; g < groups; g++ {
				live += bits.OnesCount64(used[g] &^ done[g])
			}
			if live <= stragglerMaxLive {
				for g := 0; g < groups; g++ {
					m := used[g] &^ done[g]
					for m != 0 {
						l := bits.TrailingZeros64(m)
						m &^= 1 << uint(l)
						lane := g<<6 + l
						sc.susp = append(sc.susp, suspLane{
							item:  laneItem[lane],
							cyc:   cyc,
							state: suspRun.ExportLane(lane),
						})
						done[g] |= 1 << uint(l)
					}
				}
				break
			}
		}
		if compactRun != nil && !deltaMode {
			live := 0
			for g := 0; g < groups; g++ {
				live += bits.OnesCount64(used[g] &^ done[g])
			}
			if ng := (live + 63) >> 6; ng < groups {
				src := sc.src[:0]
				n := 0
				for g := 0; g < groups; g++ {
					m := used[g] &^ done[g]
					for m != 0 {
						l := bits.TrailingZeros64(m)
						m &^= 1 << uint(l)
						lane := g<<6 + l
						// n <= lane throughout, so the forward moves never
						// clobber an entry still to be read.
						src = append(src, uint16(lane))
						laneItem[n] = laneItem[lane]
						ends[n] = ends[lane]
						witness[n] = witness[lane]
						n++
					}
				}
				compactRun.CompactLanes(src)
				nLanes, groups = n, ng
				for g := 0; g < groups; g++ {
					used[g], halted[g], done[g] = 0, 0, 0
				}
				for lane := 0; lane < nLanes; lane++ {
					used[lane>>6] |= 1 << (uint(lane) & 63)
				}
			}
		}
		if deltaMode {
			dr.StepDelta()
			if d.Cycle() >= traceEnd || d.LastEvaluated() > fallbackOps {
				d.Materialize()
				deltaMode = false
				met.frontierFallback()
			}
		} else {
			run.Step()
		}
	}
	if deltaMode {
		// Final classification (halted flag, signatures) reads dense
		// machine state.
		d.Materialize()
		deltaMode = false
	}
	if d != nil {
		met.deltaSkipped(d.TakeSkipped())
	}
	readHalted()
	for lane := 0; lane < nLanes; lane++ {
		if done[lane>>6]>>(uint(lane)&63)&1 == 1 {
			continue
		}
		switch {
		case halted[lane>>6]>>(uint(lane)&63)&1 == 0:
			outcomes[laneItem[lane]] = OutcomeHang
		case run.SignatureLane(lane) == c.golden.Signature:
			outcomes[laneItem[lane]] = OutcomeBenign
		default:
			outcomes[laneItem[lane]] = OutcomeSDC
		}
	}
	return converged, saved
}

// resolveStragglers finishes the suspended lanes of all batches together:
// waves of up to the device width are imported lane by lane, packed to the
// wave's group count and run until every lane halts or reaches its own
// logical timeout. A campaign whose batches each end with a few timeout
// candidates (hangs dominate: a runaway program counter sweeping empty
// instruction memory does not revisit a state within the timeout window,
// so no loop detector can retire it early) thus pays for one packed tail
// instead of one near-empty tail per batch. Classification is exactly
// runBatch's: a lane halted at or before its logical timeout gets its
// signature verdict, a lane still running at the timeout is a hang — so
// outcomes, and the journal, are identical to the unsuspended engine.
// Waves are panic-isolated like batches: a poisoned wave is retried lane
// by lane, and only lanes that fail solo are charged OutcomeHarnessError.
func (c *Controller) resolveStragglers(cfg *CampaignConfig, run RunW, timeout int, susp []suspLane, set func(spec, item int, o Outcome), sc *batchScratch) {
	ctx := cfg.context()
	sp := cfg.Obs.StartSpan("campaign/stragglers")
	defer sp.End()
	sp.Detail("%d suspended lanes", len(susp))
	sr := run.(SuspendRunW) // suspLane entries exist only for SuspendRunW devices
	for lo := 0; lo < len(susp); lo += sc.lanes {
		if ctx.Err() != nil {
			return
		}
		hi := lo + sc.lanes
		if hi > len(susp) {
			hi = len(susp)
		}
		wave := susp[lo:hi]
		out := sc.outcomes[:len(wave)]
		if c.runWaveSafe(run, sr, timeout, wave, out, sc) {
			for i := range wave {
				solo := sc.solo[:1]
				if c.runWaveSafe(run, sr, timeout, wave[i:i+1], solo, sc) {
					set(wave[i].spec, wave[i].item, OutcomeHarnessError)
				} else {
					set(wave[i].spec, wave[i].item, solo[0])
				}
			}
			continue
		}
		for i := range wave {
			set(wave[i].spec, wave[i].item, out[i])
		}
	}
}

// runWaveSafe executes one straggler wave with panic isolation.
func (c *Controller) runWaveSafe(run RunW, sr SuspendRunW, timeout int, wave []suspLane, out []Outcome, sc *batchScratch) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
		}
	}()
	c.runWave(run, sr, timeout, wave, out, sc)
	return false
}

// runWave imports one wave of suspended lanes into the shared device and
// runs them out. Lanes come from different batches, so they carry
// different logical cycles: the wave steps them together and tracks each
// lane's remaining cycles individually — the machine's dynamics depend
// only on its state, never on the absolute cycle number, which is what
// makes heterogeneous lanes sound. out[i] receives wave[i]'s outcome.
func (c *Controller) runWave(run RunW, sr SuspendRunW, timeout int, wave []suspLane, out []Outcome, sc *batchScratch) {
	n := len(wave)
	run.MachW().Reset() // full width restored; non-wave lanes hold the reset state
	for i, s := range wave {
		sr.ImportLane(i, s.state)
	}
	groups := sc.lanes / 64
	cr, _ := run.(CompactRunW)
	if ng := (n + 63) >> 6; cr != nil && ng < groups {
		src := sc.src[:n]
		for i := range src {
			src[i] = uint16(i)
		}
		cr.CompactLanes(src)
		groups = ng
	}
	used, halted, done := sc.used, sc.halted, sc.done
	// slot maps a device lane to its wave index, deadline to the step count
	// at which it reaches its logical timeout; compaction permutes both.
	slot, deadline := sc.laneItem, sc.ends
	for g := 0; g < groups; g++ {
		used[g], halted[g], done[g] = 0, 0, 0
	}
	for i := range wave {
		used[i>>6] |= 1 << (uint(i) & 63)
		slot[i] = i
		deadline[i] = timeout - wave[i].cyc
	}
	nLanes := n
	for t := 0; ; t++ {
		for g := 0; g < groups; g++ {
			halted[g] = run.HaltedMaskG(g)
		}
		// Halted lanes classify first — a lane halted exactly at its
		// timeout state still gets its signature verdict, matching the
		// order of runBatch's final classification.
		for g := 0; g < groups; g++ {
			h := used[g] & halted[g] &^ done[g]
			for h != 0 {
				l := bits.TrailingZeros64(h)
				h &^= 1 << uint(l)
				lane := g<<6 + l
				if run.SignatureLane(lane) == c.golden.Signature {
					out[slot[lane]] = OutcomeBenign
				} else {
					out[slot[lane]] = OutcomeSDC
				}
				done[g] |= 1 << uint(l)
			}
		}
		for lane := 0; lane < nLanes; lane++ {
			if t >= deadline[lane] && (used[lane>>6]&^done[lane>>6])>>(uint(lane)&63)&1 == 1 {
				out[slot[lane]] = OutcomeHang
				done[lane>>6] |= 1 << (uint(lane) & 63)
			}
		}
		allDone := true
		for g := 0; g < groups; g++ {
			if done[g]&used[g] != used[g] {
				allDone = false
				break
			}
		}
		if allDone {
			return
		}
		if cr != nil {
			live := 0
			for g := 0; g < groups; g++ {
				live += bits.OnesCount64(used[g] &^ done[g])
			}
			if ng := (live + 63) >> 6; ng < groups {
				src := sc.src[:0]
				nn := 0
				for g := 0; g < groups; g++ {
					m := used[g] &^ done[g]
					for m != 0 {
						l := bits.TrailingZeros64(m)
						m &^= 1 << uint(l)
						lane := g<<6 + l
						src = append(src, uint16(lane))
						slot[nn] = slot[lane]
						deadline[nn] = deadline[lane]
						nn++
					}
				}
				cr.CompactLanes(src)
				nLanes, groups = nn, ng
				for g := 0; g < groups; g++ {
					used[g], halted[g], done[g] = 0, 0, 0
				}
				for lane := 0; lane < nLanes; lane++ {
					used[lane>>6] |= 1 << (uint(lane) & 63)
				}
			}
		}
		run.Step()
	}
}
