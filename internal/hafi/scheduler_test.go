package hafi

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
	"repro/internal/journal"
	"repro/internal/progs"
	"repro/internal/sim"
)

// TestCancelAtHalfStopsEarly: a cancellation from Progress once half the
// points are journaled must find work left to cancel. The per-cycle engine
// this scheduler replaced held a whole campaign's records back behind its
// first straggler-bearing batch, so the cancel arrived when no work was
// left and the reorder buffer had grown to the point count.
func TestCancelAtHalfStopsEarly(t *testing.T) {
	c := avr.NewCore()
	prog := progs.AVRSort()
	g, err := RecordGolden(NewAVRRun(c, prog), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	points := ModelFaultList(c.NL, g.HaltCycle, 50, ModelSpec{Model: ModelIntermittent, Period: 2, Window: 8})
	ctl := NewController(NewAVRRun(c, prog), g)
	var pool []RunW
	for i := 0; i < 2; i++ {
		r, err := NewAVRRunW(avr.NewCore(), prog, DefaultCampaignLanes)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, r)
	}
	campaign := func(path string, resume bool, cfg CampaignConfig) *CampaignResult {
		t.Helper()
		var jw *journal.Writer
		var err error
		if resume {
			jw, cfg.Resume, err = journal.Resume(path, ctl.JournalHeader(points))
		} else {
			jw, err = journal.Create(path, ctl.JournalHeader(points))
		}
		if err != nil {
			t.Fatal(err)
		}
		cfg.Points, cfg.Journal = points, jw
		res, err := ctl.RunCampaignBatchedPoolWithW(cfg, pool)
		if err != nil {
			t.Fatal(err)
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	dir := t.TempDir()
	fullPath, cutPath := filepath.Join(dir, "full.journal"), filepath.Join(dir, "cut.journal")

	full := campaign(fullPath, false, CampaignConfig{})
	if full.Total != len(points) || full.Interrupted {
		t.Fatalf("uninterrupted campaign: %+v", full)
	}
	if full.reorderHighWater >= len(points) {
		t.Fatalf("the emitter held back %d results of a %d-point campaign", full.reorderHighWater, len(points))
	}
	t.Logf("%d points, reorder buffer high-water mark %d", len(points), full.reorderHighWater)

	ctx, progress := cancelAfter(t, len(points)/2)
	cut := campaign(cutPath, false, CampaignConfig{Context: ctx, Progress: progress})
	if !cut.Interrupted {
		t.Fatal("cancelled campaign not marked interrupted")
	}
	if cut.Total < len(points)/2 || cut.Total >= len(points)*3/4 {
		t.Fatalf("cancelled at %d of %d points, campaign classified %d: want at least half and less than three quarters",
			len(points)/2, len(points), cut.Total)
	}
	checkConsistent(t, cut)

	// The journal is a contiguous prefix of the plan: stable cycle-major
	// order over the fault list (nothing is pruned here).
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return points[order[a]].Cycle < points[order[b]].Cycle })
	rec, err := journal.Recover(cutPath)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn || rec.Corrupt || len(rec.Records) != cut.Total {
		t.Fatalf("cut journal: %d records for %d classified points, torn=%v corrupt=%v", len(rec.Records), cut.Total, rec.Torn, rec.Corrupt)
	}
	for pos, r := range rec.Records {
		if r.Index != uint64(order[pos]) {
			t.Fatalf("journal record %d is point %d, the plan has point %d there", pos, r.Index, order[pos])
		}
	}

	resumed := campaign(cutPath, true, CampaignConfig{})
	if resumed.Total != len(points) || resumed.Interrupted {
		t.Fatalf("resumed campaign: %+v", resumed)
	}
	want, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(cutPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the resumed journal differs from the uninterrupted one")
	}
}

// bareRunW hides every optional capability of the device it wraps but the
// write digests every campaign device exposes: the engine sees a RunW and
// its EnvW and nothing else (no ImportLane, no CompactLanes), so it can
// refill golden lanes only and starts a sweep only without tails.
type bareRunW struct{ RunW }

func (b bareRunW) EnvW() sim.EnvW { return b.RunW.(GoldenRunW).EnvW() }

// TestSchedulerGoldenLanesOnlyDevice: a capability-less device must journal
// the same bytes as the full one and the same verdicts as the scalar engine.
// The list has more points per cycle than the device has lanes, and a
// multi-cycle model, so leftovers, refills and tails all occur.
func TestSchedulerGoldenLanesOnlyDevice(t *testing.T) {
	c, prog, g, r := goldenAVR(t)
	ctl := NewController(r, g)
	points := ModelFaultList(c.NL, g.HaltCycle, 7, ModelSpec{Model: ModelIntermittent, Period: 2, Window: 5})
	if len(points) < 3*64 {
		t.Fatalf("fault list too small to overflow a 64-lane device: %d points", len(points))
	}
	journalBytes := func(exec func(cfg CampaignConfig) (*CampaignResult, error)) ([]byte, map[uint64]journal.Record) {
		t.Helper()
		raw, recs, _ := journalOf(t, ctl, CampaignConfig{Points: points}, exec)
		return raw, recs
	}
	full64, err := NewAVRRunW(avr.NewCore(), prog, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := RunW(bareRunW{full64}).(SuspendRunW); ok {
		t.Fatal("the bare double still exposes ImportLane")
	}
	_, scalar := journalBytes(func(cfg CampaignConfig) (*CampaignResult, error) { return ctl.RunCampaign(cfg) })
	want, _ := journalBytes(func(cfg CampaignConfig) (*CampaignResult, error) {
		return ctl.RunCampaignBatchedPoolWithW(cfg, []RunW{full64})
	})
	got, recs := journalBytes(func(cfg CampaignConfig) (*CampaignResult, error) {
		return ctl.RunCampaignBatchedPoolWithW(cfg, []RunW{bareRunW{full64}})
	})
	if !bytes.Equal(got, want) {
		t.Fatal("the capability-less device journals different bytes than the full one")
	}
	for idx, rec := range recs {
		if rec != scalar[idx] {
			t.Fatalf("point %d: capability-less device %+v, scalar engine %+v", idx, rec, scalar[idx])
		}
	}
}

// fullDevice is what both in-tree devices are.
type fullDevice interface {
	CompactRunW
	SuspendRunW
	GoldenRunW
}

// trippedRun panics on behalf of one flip-flop: in FlipLane itself, or (in
// step mode) in the first Step after the flip. LoadCheckpoint disarms it,
// as a device reset would.
type trippedRun struct {
	fullDevice
	tripFF int
	inStep bool
	armed  bool
}

func (p *trippedRun) FlipLane(ff, lane int) {
	if ff == p.tripFF {
		if !p.inStep {
			panic("injected lane fault")
		}
		p.armed = true
	}
	p.fullDevice.FlipLane(ff, lane)
}

func (p *trippedRun) Step() {
	if p.armed {
		panic("injected step fault")
	}
	p.fullDevice.Step()
}

func (p *trippedRun) LoadCheckpoint(cp Checkpoint) {
	p.armed = false
	p.fullDevice.LoadCheckpoint(cp)
}

// TestPanicIsolationScheduler: a device panic mid-sweep — in FlipLane when a
// freed lane is refilled, or in a Step with other experiments in flight —
// costs exactly the offending point; every point in flight with it is
// retried alone and keeps its verdict.
func TestPanicIsolationScheduler(t *testing.T) {
	c, prog, g, r := goldenAVR(t)
	ctl := NewController(r, g)
	nffs := min(len(c.NL.FFs), 12)
	tripFF := nffs / 2
	// Two injection cycles: the offending point arrives at the second one,
	// into a sweep that already carries the first cycle's experiments.
	var points []FaultPoint
	for ff := 0; ff < nffs; ff++ {
		if ff != tripFF {
			points = append(points, FaultPoint{FF: ff, Cycle: 3})
		}
	}
	for ff := 0; ff < nffs; ff++ {
		points = append(points, FaultPoint{FF: ff, Cycle: 5})
	}
	clean, err := NewAVRRunW(avr.NewCore(), prog, 128)
	if err != nil {
		t.Fatal(err)
	}
	onDevice := func(run RunW) (map[uint64]journal.Record, *CampaignResult) {
		t.Helper()
		_, recs, res := journalOf(t, ctl, CampaignConfig{Points: points}, func(cfg CampaignConfig) (*CampaignResult, error) {
			return ctl.RunCampaignBatchedPoolWithW(cfg, []RunW{run})
		})
		return recs, res
	}
	baseline, _ := onDevice(clean)
	for _, inStep := range []bool{false, true} {
		dev, err := NewAVRRunW(avr.NewCore(), prog, 128)
		if err != nil {
			t.Fatal(err)
		}
		got, res := onDevice(&trippedRun{fullDevice: dev.(fullDevice), tripFF: tripFF, inStep: inStep})
		if res.ByOutcome[OutcomeHarnessError] != 1 || res.Total != len(points) {
			t.Fatalf("inStep=%v: harness errors = %d, want exactly 1 (%+v)", inStep, res.ByOutcome[OutcomeHarnessError], res)
		}
		for idx, rec := range got {
			if rec.FF == uint32(tripFF) {
				if Outcome(rec.Outcome) != OutcomeHarnessError {
					t.Fatalf("inStep=%v: offending point classified %v, want harness-error", inStep, Outcome(rec.Outcome))
				}
				continue
			}
			if rec != baseline[idx] {
				t.Fatalf("inStep=%v: point %d disturbed by a neighbour's panic: got %+v, want %+v", inStep, idx, rec, baseline[idx])
			}
		}
	}
}

// TestPlanCursorRace: devices racing on the cursors of a tiny plan — some
// sweeping through the cycles with take, some jumping with start — hand out
// every position exactly once. Run under -race.
func TestPlanCursorRace(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		points := make([]FaultPoint, 1+rng.Intn(40))
		order := make([]int32, len(points))
		for i := range points {
			points[i].Cycle = rng.Intn(6)
			order[i] = int32(i)
		}
		pl := newPlan(context.Background(), points, order)
		const devices = 3
		taken := make([][]int32, devices)
		var wg sync.WaitGroup
		for d := 0; d < devices; d++ {
			wg.Add(1)
			go func(d int, rng *rand.Rand) {
				defer wg.Done()
				for {
					ci, lo, hi := pl.start(1 + rng.Intn(4))
					if lo == hi {
						return
					}
					for {
						for pos := lo; pos < hi; pos++ {
							taken[d] = append(taken[d], pos)
						}
						if ci++; ci == len(pl.cycles) || rng.Intn(3) == 0 {
							break
						}
						lo, hi = pl.take(ci, 1+rng.Intn(4))
					}
				}
			}(d, rand.New(rand.NewSource(seed*devices+int64(d))))
		}
		wg.Wait()
		seen := make([]int, len(points))
		for _, ps := range taken {
			for _, pos := range ps {
				seen[pos]++
			}
		}
		for pos, n := range seen {
			if n != 1 {
				t.Fatalf("seed %d: position %d handed out %d times", seed, pos, n)
			}
		}
	}
}

// TestImportLaneCheckpoint: ImportLane of a golden checkpoint is
// LoadCheckpoint restricted to that lane — flip-flops, inputs, memory
// image, digest and halted bit of the lane are the broadcast load's, every
// other lane is bit-identical to before. Both forms of ImportLane, checkpoint
// and ExportLane snapshot, are rejected outside the active groups and revive
// a lane CompactLanes left dead.
func TestImportLaneCheckpoint(t *testing.T) {
	type target struct {
		name   string
		scalar Run
		wide   func() RunW
		halted int // flip-flop behind HaltedMaskG
		mem    func(r RunW, lane int) interface{}
	}
	ac, aprog := avr.NewCore(), progs.AVRFib()
	mc, mprog := msp430.NewCore(), progs.MSP430Fib()
	ffOf := func(qs []int, q int) int {
		for i, w := range qs {
			if w == q {
				return i
			}
		}
		t.Fatalf("halted wire %d is not a flip-flop output", q)
		return -1
	}
	var aq, mq []int
	for _, ff := range ac.NL.FFs {
		aq = append(aq, int(ff.Q))
	}
	for _, ff := range mc.NL.FFs {
		mq = append(mq, int(ff.Q))
	}
	targets := []target{
		{"avr", NewAVRRun(ac, aprog), func() RunW {
			r, err := NewAVRRunW(avr.NewCore(), aprog, 256)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}, ffOf(aq, int(ac.Halted)), func(r RunW, lane int) interface{} { return r.(*wideRun[uint8]).dmemLane(lane) }},
		{"msp430", NewMSP430Run(mc, mprog), func() RunW {
			r, err := NewMSP430RunW(msp430.NewCore(), mprog, 256)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}, ffOf(mq, int(mc.Halted)), func(r RunW, lane int) interface{} { return r.(*wideRun[uint16]).dmemLane(lane) }},
	}
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			g, err := RecordGolden(tg.scalar, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			early, late := g.Checkpoints[40], g.Checkpoints[g.HaltCycle*2/3]
			ref := tg.wide()
			ref.LoadCheckpoint(late)

			// A device whose lanes all differ: every lane gets its own upset
			// and runs on, the lanes under test are halted on top.
			dev := tg.wide()
			dev.LoadCheckpoint(early)
			nffs := len(dev.MachW().NL.FFs)
			for lane := 0; lane < dev.Lanes(); lane++ {
				dev.FlipLane(lane%nffs, lane)
			}
			for i := 0; i < 50; i++ {
				dev.Step()
			}
			lanes := []int{0, 63, 64, 255}
			for _, lane := range lanes {
				if dev.HaltedMaskG(lane>>6)>>(uint(lane)&63)&1 == 0 {
					dev.FlipLane(tg.halted, lane)
				}
			}
			type laneSnap struct {
				wires  []uint64
				mem    interface{}
				digest uint64
			}
			snap := func(r RunW, lane int) laneSnap {
				s := laneSnap{wires: make([]uint64, r.MachW().LaneWireWords()), mem: tg.mem(r, lane), digest: r.MemDigestLane(lane)}
				r.MachW().ExportLane(lane, s.wires)
				return s
			}
			before := make([]laneSnap, dev.Lanes())
			for lane := range before {
				before[lane] = snap(dev, lane)
			}
			sr := dev.(SuspendRunW)
			for _, lane := range lanes {
				sr.ImportLane(lane, late)
			}
			imported := map[int]bool{}
			for _, lane := range lanes {
				imported[lane] = true
				m, rm := dev.MachW(), ref.MachW()
				if got, want := m.FFStateLane(lane), rm.FFStateLane(lane); !slices.Equal(got, want) {
					t.Errorf("lane %d: flip-flop state differs from the broadcast load", lane)
				}
				if got, want := m.InputStateLane(lane), rm.InputStateLane(lane); !slices.Equal(got, want) {
					t.Errorf("lane %d: primary inputs differ from the broadcast load", lane)
				}
				if tg.mem(dev, lane) != tg.mem(ref, lane) || dev.MemDigestLane(lane) != ref.MemDigestLane(lane) {
					t.Errorf("lane %d: memory image or digest differs from the broadcast load", lane)
				}
				if dev.HaltedMaskG(lane>>6)>>(uint(lane)&63)&1 != ref.HaltedMaskG(lane>>6)>>(uint(lane)&63)&1 {
					t.Errorf("lane %d: halted bit differs from the broadcast load", lane)
				}
				if dev.SignatureLane(lane) != ref.SignatureLane(lane) {
					t.Errorf("lane %d: signature differs from the broadcast load", lane)
				}
			}
			for lane := range before {
				if imported[lane] {
					continue
				}
				after := snap(dev, lane)
				if !slices.Equal(after.wires, before[lane].wires) || after.mem != before[lane].mem || after.digest != before[lane].digest {
					t.Fatalf("lane %d changed although lanes %v were imported", lane, lanes)
				}
			}

			// The imported lanes now run the golden run from the checkpoint's
			// cycle on: they halt with the golden signature.
			for i := g.HaltCycle * 2 / 3; i < g.HaltCycle; i++ {
				dev.Step()
			}
			for _, lane := range lanes {
				if dev.HaltedMaskG(lane>>6)>>(uint(lane)&63)&1 == 0 || dev.SignatureLane(lane) != g.Signature {
					t.Errorf("lane %d did not finish the golden run after the import", lane)
				}
			}

			// The scheduler reads a signature per halted lane and loads a lane
			// per point: neither may cost a heap image (alloc_mb).
			if n := testing.AllocsPerRun(10, func() { sr.ImportLane(63, late); dev.SignatureLane(63) }); n != 0 {
				t.Errorf("ImportLane + SignatureLane allocate %v times per call", n)
			}

			dev.(CompactRunW).CompactLanes([]uint16{1, 2, 3, 5, 8, 13, 21, 34, 55, 89})
			sr.ImportLane(5, late)
			donor := tg.wide()
			donor.LoadCheckpoint(early)
			snapshot := donor.(SuspendRunW).ExportLane(77)
			for _, state := range []interface{}{late, snapshot} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("ImportLane of a %T outside the active groups was accepted", state)
						}
					}()
					sr.ImportLane(64, state)
				}()
			}

			// A lane the compaction left dead carries an experiment again once
			// a snapshot is imported into it: the memory environment serves it
			// and it follows the scalar golden run cycle for cycle.
			dead := dev.MachW().LiveLanes()
			sr.ImportLane(dead, snapshot)
			if got := dev.MachW().LiveLanes(); got != dead+1 {
				t.Fatalf("%d live lanes after an import into dead lane %d", got, dead)
			}
			for cyc := 40; cyc < g.HaltCycle; cyc++ {
				if ff := dev.MachW().FirstDivergedFF(dead, g.Trace.Row(cyc), 0); ff >= 0 || dev.MemDigestLane(dead) != g.MemDigests[cyc] {
					t.Fatalf("cycle %d: revived lane %d left the golden run (flip-flop %d)", cyc, dead, ff)
				}
				dev.Step()
			}
			if dev.SignatureLane(dead) != g.Signature {
				t.Errorf("revived lane %d did not finish the golden run", dead)
			}
		})
	}
}
