package hafi

import (
	"context"
	"math"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sim"
)

// plan is the work list the devices of a pool share: the fault-list indices
// of the points to execute, stable-sorted by injection cycle — the order
// records are journaled in, identical at every lane count, pool size and
// timing — and cut into one range per injection cycle. Devices take
// positions from the cycle their sweep has reached.
type plan struct {
	points []FaultPoint
	order  []int32         // plan position -> fault-list index
	ctx    context.Context // cancellation stops take and start; nil never does

	mu     sync.Mutex
	cycles []planCycle // ascending; the cycle field is immutable
	low    int         // every cycle before cycles[low] is handed out
}

// planCycle is the still pending plan positions [next, end) of one
// injection cycle (next is guarded by plan.mu).
type planCycle struct {
	cycle     int
	next, end int32
}

func newPlan(ctx context.Context, points []FaultPoint, order []int32) *plan {
	sort.SliceStable(order, func(a, b int) bool { return points[order[a]].Cycle < points[order[b]].Cycle })
	pl := &plan{points: points, order: order, ctx: ctx}
	for pos, i := range order {
		if n := len(pl.cycles); n == 0 || pl.cycles[n-1].cycle != points[i].Cycle {
			pl.cycles = append(pl.cycles, planCycle{cycle: points[i].Cycle, next: int32(pos)})
		}
		pl.cycles[len(pl.cycles)-1].end = int32(pos) + 1
	}
	return pl
}

// solo is the one-point plan a device retries position pos alone on after a
// panic. Positions keep their meaning, and it cannot be cancelled: a point
// in flight is finished.
func (pl *plan) solo(pos int32) *plan {
	cycle := pl.points[pl.order[pos]].Cycle
	return &plan{points: pl.points, order: pl.order, cycles: []planCycle{{cycle: cycle, next: pos, end: pos + 1}}}
}

func (pl *plan) point(pos int32) *FaultPoint { return &pl.points[pl.order[pos]] }

// take hands out up to n pending positions of cycles[ci].
func (pl *plan) take(ci, n int) (lo, hi int32) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.takeLocked(ci, n)
}

func (pl *plan) takeLocked(ci, n int) (lo, hi int32) {
	if pl.ctx != nil && pl.ctx.Err() != nil {
		return 0, 0
	}
	pc := &pl.cycles[ci]
	lo = pc.next
	hi = min(pc.end, lo+int32(n))
	pc.next = hi
	return lo, hi
}

// start picks the lowest cycle that still has pending points and takes up
// to n of them; lo == hi when the plan has none left to give.
func (pl *plan) start(n int) (ci int, lo, hi int32) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for pl.low < len(pl.cycles) && pl.cycles[pl.low].next == pl.cycles[pl.low].end {
		pl.low++
	}
	if pl.low == len(pl.cycles) {
		return 0, 0, 0
	}
	lo, hi = pl.takeLocked(pl.low, n)
	return pl.low, lo, hi
}

// device is the lane scheduler of one device instance. It sweeps the golden
// timeline in lock-step and keeps every lane in one of four states:
//
//   - golden: the lane tracks the golden run of the current sweep — it was
//     loaded with the sweep's checkpoint and never used, or its experiment
//     retired by convergence (flip-flops and write digest equal golden, so
//     memory is golden too). Handing it a point is the model's Inject alone.
//   - run: an experiment of the current sweep; the sweep's cycle is its
//     cycle, so it is re-injected inside its active window and compared
//     against the golden row for the convergence early-exit.
//   - tail: an experiment of an earlier sweep that outlived the golden
//     horizon. Nothing golden-relative touches it again: it runs to its halt
//     or to its deadline while the next sweep goes on around it.
//   - dead (in none of the masks): the experiment ended halted or hung, the
//     lane's state is garbage. Handing it a point takes a per-lane load of
//     the golden checkpoint first (SuspendRunW), or waits for the broadcast
//     load of the next sweep.
//
// The machine's dynamics depend only on its state, never on the absolute
// cycle number, so a lane's timeout is a deadline in device steps.
type device struct {
	c       *Controller
	run     RunW
	sr      SuspendRunW // nil: free lanes are the golden ones only
	cr      CompactRunW
	mw      *sim.MachineW
	digests []uint64 // the device's per-lane write digests (laneDigests)
	obs     *obs.Registry
	met     *campaignMetrics
	results chan<- *[]laneResult
	out     *[]laneResult
	timeout int
	early   bool
	held    *heldTable // nil when early is off

	lanes, groups                int
	goldenM, runM, tailM, halted []uint64 // one bit per lane, per group
	nGolden, nRun, nTail         int
	pos                          []int32 // plan position of a run or tail lane
	end                          []int   // first cycle past the lane's active window
	deadline                     []int   // device step at which the lane has hung
	// witness[lane] is the lane's watched flip-flop: where the retirement
	// check last saw it diverge. While that flip-flop still differs from
	// golden and its flip is not held from this cycle on, the lane can
	// neither have converged nor be held, so the per-cycle check is one
	// word load instead of a scan over every flip-flop.
	witness []watch
	watch0  watch // a fresh lane's witness: flip-flop 0
	ffs     []laneFFs

	steps        int  // device steps taken: the clock deadlines are read on
	nextDeadline int  // no lane's deadline is earlier
	sweeping     bool // cyc is meaningful and golden lanes exist
	cyc          int  // golden cycle the sweep has reached
	ci           int  // first plan cycle not before cyc
	maxEnd       int  // no run lane is inside its active window from here on
	planDone     bool // the plan gave nothing: no sweep starts again
	// pendLo..pendHi are positions taken from the plan and not yet in a lane.
	pendLo, pendHi int32

	// Accounting of the current sweep for the batch metrics and span.
	span                *obs.Span
	sweepPoints         int
	sweepSteps, busySum int
}

func newDevice(c *Controller, cfg *CampaignConfig, run RunW, timeout int, results chan<- *[]laneResult, met *campaignMetrics) *device {
	lanes := run.Lanes()
	groups := lanes / 64
	d := &device{
		c: c, run: run, mw: run.MachW(), obs: cfg.Obs, met: met, results: results,
		timeout: timeout, early: !cfg.DisableEarlyExit,
		lanes: lanes, groups: groups,
		goldenM: make([]uint64, groups), runM: make([]uint64, groups),
		tailM: make([]uint64, groups), halted: make([]uint64, groups),
		pos: make([]int32, lanes), end: make([]int, lanes), deadline: make([]int, lanes),
		witness: make([]watch, lanes), ffs: make([]laneFFs, lanes),
		nextDeadline: math.MaxInt,
	}
	if d.early {
		d.held = c.heldFaults(cfg.Obs)
		q0 := int32(d.mw.NL.FFs[0].Q)
		d.watch0 = watch{q0, d.held.from[0], q0}
	}
	d.digests, _ = laneDigests(run) // cannot fail: checkPool refused a device without them
	d.sr, _ = run.(SuspendRunW)
	d.cr, _ = run.(CompactRunW)
	for lane := range d.ffs {
		d.ffs[lane] = laneFFs{r: run, lane: lane}
	}
	return d
}

// drive takes the device through the plan with panic isolation: a panic
// anywhere in the device loop aborts the lanes in flight, not the points
// already finished. Every point in flight is retried alone, and only one
// that panics again is charged with the harness error.
func (d *device) drive(pl *plan) {
	for !d.sweepSafe(pl) {
		for _, pos := range d.abort() {
			if !d.sweepSafe(pl.solo(pos)) {
				d.abort()
				d.emit(laneResult{pos: pos, out: OutcomeHarnessError})
				d.flush()
			}
		}
	}
}

func (d *device) sweepSafe(pl *plan) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
		}
	}()
	d.sweep(pl)
	return true
}

// abort gives up every lane after a panic and returns the positions that
// were in flight. Verdicts reached before the panic are sent on.
func (d *device) abort() []int32 {
	d.flush()
	var lost []int32
	for g := range d.runM {
		for m := d.runM[g] | d.tailM[g]; m != 0; m &= m - 1 {
			lost = append(lost, d.pos[g<<6+bits.TrailingZeros64(m)])
		}
		d.goldenM[g], d.runM[g], d.tailM[g] = 0, 0, 0
	}
	for pos := d.pendLo; pos < d.pendHi; pos++ {
		lost = append(lost, pos)
	}
	d.pendLo, d.pendHi = 0, 0
	d.nGolden, d.nRun, d.nTail = 0, 0, 0
	d.endSweep()
	return lost
}

// sweep is the device loop. It returns when the plan has nothing left to
// give and every lane the device carried is classified. The order inside
// one step is the sequential controller's (execute): inject, look at the
// halt flags, classify halted lanes by signature, retire converged and
// held lanes, call the hang of a lane at its deadline, step.
func (d *device) sweep(pl *plan) {
	digests := d.c.golden.MemDigests
	d.planDone = false
	for {
		if !d.sweeping && !d.startSweep(pl) && d.nTail == 0 {
			return
		}
		if d.sweeping {
			d.inject(pl)
		}
		// Read after the injections: a fault landing in the halt flag itself
		// must be visible to this cycle's decisions.
		d.readHalted()
		// A halted lane's state is frozen, so its signature now is its
		// signature at its timeout.
		for g := 0; g < d.groups; g++ {
			for m := (d.runM[g] | d.tailM[g]) & d.halted[g]; m != 0; m &= m - 1 {
				lane := g<<6 + bits.TrailingZeros64(m)
				if d.run.SignatureLane(lane) == d.c.golden.Signature {
					d.retire(lane, laneResult{out: OutcomeBenign})
				} else {
					d.retire(lane, laneResult{out: OutcomeSDC})
				}
			}
		}
		if d.sweeping && d.early && d.cyc < len(digests) {
			d.retireConverged(digests[d.cyc])
		}
		// Halted lanes are gone by now: a lane halted exactly at its timeout
		// got its signature verdict, as in execute.
		if d.steps >= d.nextDeadline {
			d.expire()
		}
		d.flush()
		if d.sweeping && (d.nRun == 0 || d.cyc >= max(d.maxEnd, len(digests))) {
			// Every active window is over and there is no golden state left
			// to converge to: survivors ride along as tails, and the next
			// sweep starts around them before the device steps again.
			for g := range d.runM {
				d.tailM[g] |= d.runM[g]
				d.runM[g] = 0
			}
			d.nTail += d.nRun
			d.nRun = 0
			d.endSweep()
			continue
		}
		if !d.sweeping {
			if d.nTail == 0 {
				continue
			}
			d.compactTails()
		}
		d.run.Step()
		d.steps++
		d.sweepSteps++
		d.busySum += d.nRun + d.nTail
		if d.sweeping {
			d.cyc++
		}
	}
}

// startSweep begins a sweep at the plan's lowest pending cycle: a broadcast
// checkpoint load (which restores the full width) when the device holds no
// tails, otherwise a per-lane load into every lane that is not one.
func (d *device) startSweep(pl *plan) bool {
	if d.planDone || d.nTail == d.lanes || (d.nTail > 0 && d.sr == nil) {
		return false
	}
	ci, lo, hi := pl.start(d.lanes - d.nTail)
	if lo == hi {
		d.planDone = true
		return false
	}
	d.ci, d.pendLo, d.pendHi = ci, lo, hi
	d.cyc = pl.cycles[ci].cycle
	cp := d.c.golden.Checkpoints[d.cyc]
	if d.nTail == 0 {
		d.run.LoadCheckpoint(cp)
		d.groups = d.lanes / 64
	}
	for g := range d.goldenM {
		d.goldenM[g] = ^d.tailM[g]
		if d.nTail > 0 {
			for m := d.goldenM[g]; m != 0; m &= m - 1 {
				d.sr.ImportLane(g<<6+bits.TrailingZeros64(m), cp)
			}
		}
	}
	d.nGolden = d.lanes - d.nTail
	d.sweeping, d.maxEnd = true, 0
	d.span = d.obs.StartSpan("campaign/batch")
	d.span.Detail("cycle %d", d.cyc)
	return true
}

// endSweep closes the sweep's accounting: one batch, its mean number of
// lanes carrying an experiment, its wall clock amortised over its points.
func (d *device) endSweep() {
	if d.sweeping {
		wall := d.span.End()
		if d.sweepSteps > 0 {
			d.met.batch(d.busySum / d.sweepSteps)
			d.met.batchDone(wall, d.sweepPoints)
		}
	}
	for g := range d.goldenM {
		d.goldenM[g] = 0
	}
	d.nGolden = 0
	d.sweeping = false
	d.sweepPoints, d.sweepSteps, d.busySum = 0, 0, 0
}

// inject is the start of a sweep step: lanes inside their active window are
// injected again, then free lanes are handed the pending points of this
// cycle.
func (d *device) inject(pl *plan) {
	if d.cyc < d.maxEnd {
		d.readHalted()
		for g := range d.runM {
			for m := d.runM[g] &^ d.halted[g]; m != 0; m &= m - 1 {
				lane := g<<6 + bits.TrailingZeros64(m)
				// A lane at its deadline is classified, not injected.
				if d.cyc < d.end[lane] && d.steps < d.deadline[lane] {
					p := pl.point(d.pos[lane])
					Model(p.Model).Inject(&d.ffs[lane], *p, d.cyc)
				}
			}
		}
	}
	for d.ci < len(pl.cycles) && pl.cycles[d.ci].cycle < d.cyc {
		d.ci++
	}
	if d.pendLo == d.pendHi && d.ci < len(pl.cycles) && pl.cycles[d.ci].cycle == d.cyc {
		free := d.nGolden
		if d.sr != nil {
			free = d.lanes - d.nRun - d.nTail
		}
		if free > 0 {
			d.pendLo, d.pendHi = pl.take(d.ci, free)
		}
	}
	for d.pendLo < d.pendHi {
		lane := d.freeLane()
		// From here on abort finds the position through the lane.
		g, bit := lane>>6, uint64(1)<<(uint(lane)&63)
		d.runM[g] |= bit
		d.nRun++
		d.pos[lane] = d.pendLo
		d.pendLo++
		p := pl.point(d.pos[lane])
		fm := Model(p.Model)
		d.end[lane] = fm.ActiveEnd(*p)
		d.maxEnd = max(d.maxEnd, d.end[lane])
		d.deadline[lane] = d.steps + d.timeout - d.cyc
		d.nextDeadline = min(d.nextDeadline, d.deadline[lane])
		d.witness[lane] = d.watch0
		d.sweepPoints++
		fm.Inject(&d.ffs[lane], *p, d.cyc)
	}
}

// freeLane removes a lane in the golden state of the sweep's cycle from the
// free ones: a golden lane when there is one, otherwise a dead lane loaded
// with the cycle's checkpoint.
func (d *device) freeLane() int {
	for g, m := range d.goldenM {
		if m != 0 {
			d.goldenM[g] &= m - 1
			d.nGolden--
			return g<<6 + bits.TrailingZeros64(m)
		}
	}
	for g := range d.runM {
		if m := ^(d.runM[g] | d.tailM[g]); m != 0 {
			lane := g<<6 + bits.TrailingZeros64(m)
			d.sr.ImportLane(lane, d.c.golden.Checkpoints[d.cyc])
			return lane
		}
	}
	panic("hafi: scheduler took more points than it has free lanes")
}

func (d *device) readHalted() {
	for g := 0; g < d.groups; g++ {
		d.halted[g] = d.run.HaltedMaskG(g)
	}
}

// retireConverged retires the run lanes past their active window whose
// remaining run is known. Both rules need the golden write digest. A lane
// whose flip-flops all equal golden has converged: benign and golden again.
// A lane whose flip-flops differ from golden in one flip-flop f alone, at a
// cycle from which f's flip is held to the halt, is held: it takes f's halt
// verdict (heldTable).
//
// The checks run cheapest first. The digest filter is one sequential pass
// over a group's 64 digest words and drops most lanes (three in four on AVR
// fib and sort, two in five on MSP430 conv) before any of them loads its
// witness. The witness keeps the full scan (examine) rare: a diverged
// witness rules out convergence, and held too unless its flip is held here
// and its other flip-flop no longer diverges. The scan prefers a witness
// whose flip is not held, so that the check is one load.
func (d *device) retireConverged(digest uint64) {
	row := d.c.golden.Trace.Row(d.cyc)
	cyc := int32(d.cyc)
	inWindow := d.cyc < d.maxEnd // some run lane may be inside its window
	for g, run := range d.runM {
		if run == 0 {
			continue
		}
		var same uint64
		for i, x := range d.digests[g<<6 : g<<6+64] {
			if x == digest {
				same |= 1 << uint(i)
			}
		}
		for m := run & same; m != 0; m &= m - 1 {
			lane := g<<6 + bits.TrailingZeros64(m)
			if inWindow && d.cyc < d.end[lane] {
				continue
			}
			if w := d.witness[lane]; d.diverged(w.q, lane, row) &&
				(cyc < w.heldFrom || w.other != w.q && d.diverged(w.other, lane, row)) {
				continue
			}
			d.examine(lane, row)
		}
	}
}

// examine is retireConverged's full flip-flop scan of a lane with the
// golden write digest: it retires the lane or picks its next witness.
func (d *device) examine(lane int, row []uint64) {
	cyc, from := int32(d.cyc), d.held.from
	first := d.mw.FirstDivergedFF(lane, row, 0)
	if first < 0 {
		d.retire(lane, laneResult{out: OutcomeBenign, saved: int32(d.c.golden.HaltCycle - d.cyc)})
		return
	}
	k, other := first, first
	for ; k >= 0 && cyc >= from[k]; k = d.mw.FirstDivergedFF(lane, row, k+1) {
		if other == first {
			other = k
		}
	}
	q := func(ff int) int32 { return int32(d.mw.NL.FFs[ff].Q) }
	switch {
	case k >= 0:
		d.witness[lane] = watch{q(k), from[k], q(k)}
	case other != first:
		d.witness[lane] = watch{q(first), from[first], q(other)}
	default:
		d.retire(lane, laneResult{out: d.held.verdict[first], held: true})
	}
}

// watch is a lane's witness: the Q wire q of the watched flip-flop with the
// cycle from which its flip is held to the halt (heldTable.from), side by
// side so that the per-cycle check reads both in one load, and other, the
// Q wire of a second flip-flop the last scan saw diverge beside a held one
// (q itself when it saw none). Wires, not flip-flop indices: the check
// reads the lane word and the golden bit without a lookup in between.
type watch struct{ q, heldFrom, other int32 }

// diverged reports whether one lane's value of wire q differs from the
// golden row.
func (d *device) diverged(q int32, lane int, row []uint64) bool {
	return (d.mw.LaneWord(netlist.WireID(q), lane>>6)^-(row[q>>6]>>(uint(q)&63)&1))>>(uint(lane)&63)&1 != 0
}

// expire calls the hang of every lane at its deadline.
func (d *device) expire() {
	d.nextDeadline = math.MaxInt
	for g := 0; g < d.groups; g++ {
		for m := d.runM[g] | d.tailM[g]; m != 0; m &= m - 1 {
			lane := g<<6 + bits.TrailingZeros64(m)
			if d.steps >= d.deadline[lane] {
				d.retire(lane, laneResult{out: OutcomeHang})
			} else {
				d.nextDeadline = min(d.nextDeadline, d.deadline[lane])
			}
		}
	}
}

// retire ends a lane's experiment with r, whose position it fills in:
// converged (saved > 0) lanes are golden again, every other lane is dead.
func (d *device) retire(lane int, r laneResult) {
	g, bit := lane>>6, uint64(1)<<(uint(lane)&63)
	if d.runM[g]&bit != 0 {
		d.runM[g] &^= bit
		d.nRun--
	} else {
		d.tailM[g] &^= bit
		d.nTail--
	}
	if r.saved > 0 {
		d.goldenM[g] |= bit
		d.nGolden++
	}
	r.pos = d.pos[lane]
	d.emit(r)
}

func (d *device) emit(r laneResult) {
	if d.out == nil {
		d.out = resultPool.Get().(*[]laneResult)
	}
	*d.out = append(*d.out, r)
}

func (d *device) flush() {
	if d.out != nil {
		d.results <- d.out
		d.out = nil
	}
}

// compactTails shrinks a draining device: once the plan is exhausted and
// only tails remain, the last thousands of steps would otherwise run a
// handful of hang candidates at the full width.
func (d *device) compactTails() {
	ng := (d.nTail + 63) >> 6
	if d.cr == nil || !d.planDone || ng >= d.groups {
		return
	}
	src := make([]uint16, 0, d.nTail)
	for g := 0; g < d.groups; g++ {
		for m := d.tailM[g]; m != 0; m &= m - 1 {
			src = append(src, uint16(g<<6+bits.TrailingZeros64(m)))
		}
	}
	d.cr.CompactLanes(src)
	d.groups = ng
	for g := range d.tailM {
		d.tailM[g] = 0
	}
	// i <= lane throughout, so the forward moves never clobber an entry
	// still to be read.
	for i, lane := range src {
		d.pos[i], d.deadline[i] = d.pos[lane], d.deadline[lane]
		d.tailM[i>>6] |= 1 << (uint(i) & 63)
	}
}
