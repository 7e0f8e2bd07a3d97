package hafi

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/synth"
)

// smallAVRProgram is a short self-checking workload: it computes a value,
// stores it, and emits a checksum on the port before halting.
const smallAVRProgram = `
    ldi r1, 5
    ldi r2, 0
loop:
    add r2, r1
    dec r1
    brne loop
    ldi r3, 16
    st (r3), r2
    out r2
    halt
`

func goldenAVR(t testing.TB) (*avr.Core, []uint16, *Golden, Run) {
	t.Helper()
	c := avr.NewCore()
	prog := avr.MustAssemble(smallAVRProgram)
	r := NewAVRRun(c, prog)
	g, err := RecordGolden(r, 10000)
	if err != nil {
		t.Fatal(err)
	}
	return c, prog, g, r
}

func TestRecordGolden(t *testing.T) {
	_, _, g, r := goldenAVR(t)
	if g.HaltCycle <= 0 {
		t.Fatal("no halt cycle")
	}
	if len(g.Checkpoints) != g.HaltCycle {
		t.Fatalf("checkpoints %d != halt cycle %d", len(g.Checkpoints), g.HaltCycle)
	}
	if g.Trace.NumCycles() != g.HaltCycle {
		t.Fatalf("trace %d cycles", g.Trace.NumCycles())
	}
	if !r.Halted() {
		t.Fatal("run not halted after golden recording")
	}
	if g.Signature == 0 {
		t.Fatal("empty signature")
	}
}

func TestRecordGoldenNonHaltingFails(t *testing.T) {
	c := avr.NewCore()
	r := NewAVRRun(c, avr.MustAssemble("loop: rjmp loop"))
	if _, err := RecordGolden(r, 100); err == nil {
		t.Fatal("expected error for non-halting workload")
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	c := avr.NewCore()
	prog := avr.MustAssemble(smallAVRProgram)
	r := NewAVRRun(c, prog)
	g, err := RecordGolden(r, 10000)
	if err != nil {
		t.Fatal(err)
	}
	// Restore to the middle, re-run to completion, expect the same result.
	mid := g.HaltCycle / 2
	r.Restore(g.Checkpoints[mid])
	for i := 0; i < 10000 && !r.Halted(); i++ {
		r.Step()
	}
	if !r.Halted() {
		t.Fatal("restored run did not halt")
	}
	if r.Signature() != g.Signature {
		t.Fatal("restored run diverged from golden result")
	}
}

func TestCampaignWithoutPruning(t *testing.T) {
	c, _, g, r := goldenAVR(t)
	ctl := NewController(r, g)
	points := SampledFaultList(c.NL, g.HaltCycle, 7)
	res, err := ctl.RunCampaign(CampaignConfig{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != len(points) || res.Executed != res.Total || res.Skipped != 0 {
		t.Fatalf("campaign accounting wrong: %+v", res)
	}
	if res.ByOutcome[OutcomeBenign] == 0 {
		t.Error("expected some benign outcomes")
	}
	if res.ByOutcome[OutcomeSDC]+res.ByOutcome[OutcomeHang] == 0 {
		t.Error("expected some effective faults (SDC or hang)")
	}
	sum := 0
	for _, n := range res.ByOutcome {
		sum += n
	}
	if sum != res.Executed {
		t.Errorf("outcomes %d != executed %d", sum, res.Executed)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	c, _, g, r := goldenAVR(t)
	ctl := NewController(r, g)
	points := SampledFaultList(c.NL, g.HaltCycle, 13)
	a, err := ctl.RunCampaign(CampaignConfig{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	bres, err := ctl.RunCampaign(CampaignConfig{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	if a.Executed != bres.Executed || a.ByOutcome[OutcomeSDC] != bres.ByOutcome[OutcomeSDC] ||
		a.ByOutcome[OutcomeBenign] != bres.ByOutcome[OutcomeBenign] {
		t.Fatalf("campaign not deterministic: %+v vs %+v", a, bres)
	}
}

// TestCampaignMATEPruningSound is the system-level soundness experiment:
// every injection skipped by a MATE must be benign when actually executed.
func TestCampaignMATEPruningSound(t *testing.T) {
	c, _, g, r := goldenAVR(t)
	set := core.Search(c.NL, c.NL.FFQWires(), core.DefaultSearchParams()).Set
	ctl := NewController(r, g)
	points := SampledFaultList(c.NL, g.HaltCycle, 5)
	res, err := ctl.RunCampaign(CampaignConfig{
		Points:          points,
		MATESet:         set,
		ValidateSkipped: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped == 0 {
		t.Fatal("MATEs pruned nothing — expected online pruning to fire")
	}
	if res.SkippedWrong != 0 {
		t.Fatalf("%d of %d skipped injections were NOT benign: MATE soundness violated",
			res.SkippedWrong, res.Skipped)
	}
	if res.Executed+res.Skipped != res.Total {
		t.Fatalf("accounting: %+v", res)
	}
	t.Logf("campaign: %d points, %d pruned (%.1f%%), outcomes %v",
		res.Total, res.Skipped, 100*res.PrunedFraction(), res.ByOutcome)
}

func TestCampaignMSP430PruningSound(t *testing.T) {
	c := msp430.NewCore()
	prog := msp430.MustAssemble(`
	    movi r1, 5
	    movi r2, 0
	loop:
	    add r1, r2
	    addi r1, -1
	    jne loop
	    movi r3, 16
	    st (r3), r2
	    out r2
	    halt
	`)
	r := NewMSP430Run(c, prog)
	g, err := RecordGolden(r, 10000)
	if err != nil {
		t.Fatal(err)
	}
	set := core.Search(c.NL, c.NL.FFQWires(), core.DefaultSearchParams()).Set
	ctl := NewController(r, g)
	points := SampledFaultList(c.NL, g.HaltCycle, 9)
	res, err := ctl.RunCampaign(CampaignConfig{
		Points: points, MATESet: set, ValidateSkipped: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped == 0 {
		t.Fatal("no pruning on MSP430")
	}
	if res.SkippedWrong != 0 {
		t.Fatalf("MATE soundness violated on MSP430: %d wrong skips", res.SkippedWrong)
	}
	t.Logf("msp430 campaign: %d points, %d pruned (%.1f%%), outcomes %v",
		res.Total, res.Skipped, 100*res.PrunedFraction(), res.ByOutcome)
}

func TestCampaignInjectionCycleBounds(t *testing.T) {
	_, _, g, r := goldenAVR(t)
	ctl := NewController(r, g)
	_, err := ctl.RunCampaign(CampaignConfig{
		Points: []FaultPoint{{FF: 0, Cycle: g.HaltCycle + 5}},
	})
	if err == nil {
		t.Fatal("expected error for out-of-range injection cycle")
	}
}

func TestFaultListHelpers(t *testing.T) {
	c := avr.NewCore()
	full := FullFaultList(c.NL, 10)
	if len(full) != 10*len(c.NL.FFs) {
		t.Fatalf("full list = %d", len(full))
	}
	sampled := SampledFaultList(c.NL, 10, 2)
	if len(sampled) != 5*len(c.NL.FFs) {
		t.Fatalf("sampled list = %d", len(sampled))
	}
	noRF := SampledFaultList(c.NL, 10, 2, avr.GroupRegFile)
	if len(noRF) >= len(sampled) {
		t.Fatal("group exclusion did not shrink the list")
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeBenign.String() != "benign" || OutcomeSDC.String() != "sdc" ||
		OutcomeHang.String() != "hang" || Outcome(9).String() == "" {
		t.Fatal("outcome strings wrong")
	}
}

// --- LUT cost model ---

func TestLUTsForMATE(t *testing.T) {
	mk := func(n int) *core.MATE {
		m := &core.MATE{Literals: make([]core.Literal, n)}
		for i := range m.Literals {
			m.Literals[i] = core.Literal{Wire: netlist.WireID(i)}
		}
		return m
	}
	cases := map[int]int{0: 1, 1: 1, 6: 1, 7: 2, 11: 2, 12: 3, 16: 3}
	for n, want := range cases {
		if got := LUTsForMATE(mk(n)); got != want {
			t.Errorf("LUTs(%d inputs) = %d, want %d", n, got, want)
		}
	}
	set := &core.MATESet{MATEs: []*core.MATE{mk(3), mk(8)}}
	if LUTCost(set) != 3 {
		t.Errorf("LUTCost = %d", LUTCost(set))
	}
}

func TestOverheadVsController(t *testing.T) {
	set := &core.MATESet{MATEs: []*core.MATE{
		{Literals: make([]core.Literal, 4)},
	}}
	if f := OverheadVsController(set, FIControllerLUTsLow); f != 1.0/1500 {
		t.Errorf("overhead = %v", f)
	}
	if OverheadVsController(set, 0) != 0 {
		t.Error("zero controller")
	}
}

// TestSection61Claim verifies the paper's §6.1 argument holds for our MATE
// sets: 50-100 selected MATEs cost a negligible fraction of even the
// smallest published FI controller.
func TestSection61Claim(t *testing.T) {
	c := avr.NewCore()
	res := core.Search(c.NL, c.NL.FFQWires(), core.DefaultSearchParams())
	top := res.Set.MATEs
	if len(top) > 100 {
		top = top[:100]
	}
	cost := LUTCost(&core.MATESet{MATEs: top})
	if cost > 200 {
		t.Errorf("100 MATEs cost %d LUTs — not 1-2 LUTs per MATE", cost)
	}
	if float64(cost)/FIControllerLUTsLow > 0.15 {
		t.Errorf("MATE overhead %.1f%% of the smallest FI controller — not negligible",
			100*float64(cost)/FIControllerLUTsLow)
	}
	if InstrumentationLUTs(len(c.NL.FFs)) != len(c.NL.FFs) {
		t.Error("instrumentation model")
	}
}

// TestMultiCycleUpsets exercises the Section 6.2 extension: upsets holding
// several cycles. A multi-cycle upset is pruned only when a MATE triggers
// in every held cycle, and validation must confirm every pruned point.
func TestMultiCycleUpsets(t *testing.T) {
	c, _, g, r := goldenAVR(t)
	set := core.Search(c.NL, c.NL.FFQWires(), core.DefaultSearchParams()).Set
	ctl := NewController(r, g)

	mk := func(duration int) []FaultPoint {
		var pts []FaultPoint
		for cyc := 0; cyc+duration < g.HaltCycle; cyc += 5 {
			for ff := range c.NL.FFs {
				pts = append(pts, FaultPoint{FF: ff, Cycle: cyc, Duration: duration})
			}
		}
		return pts
	}

	res1, err := ctl.RunCampaign(CampaignConfig{Points: mk(1), MATESet: set, ValidateSkipped: true})
	if err != nil {
		t.Fatal(err)
	}
	res3, err := ctl.RunCampaign(CampaignConfig{Points: mk(3), MATESet: set, ValidateSkipped: true})
	if err != nil {
		t.Fatal(err)
	}
	if res1.SkippedWrong != 0 || res3.SkippedWrong != 0 {
		t.Fatalf("multi-cycle pruning unsound: %d / %d wrong skips", res1.SkippedWrong, res3.SkippedWrong)
	}
	// Longer upsets are strictly harder to prove benign: on the CPU cores
	// the masking windows are one cycle wide, so 3-cycle upsets prune
	// (almost) nothing — TestMultiCycleUpsetsPersistentWindow covers the
	// positive case on a circuit with persistent windows.
	if res3.PrunedFraction() > res1.PrunedFraction() {
		t.Errorf("3-cycle upsets pruned more (%f) than 1-cycle (%f)",
			res3.PrunedFraction(), res1.PrunedFraction())
	}
	t.Logf("pruned: 1-cycle %.2f%%, 3-cycle %.2f%%",
		100*res1.PrunedFraction(), 100*res3.PrunedFraction())
}

// TestMultiCycleBatchedMatchesSequential: the batched engine must agree
// with the sequential one for multi-cycle upsets too.
func TestMultiCycleBatchedMatchesSequential(t *testing.T) {
	c, prog, g, r := goldenAVR(t)
	ctl := NewController(r, g)
	var pts []FaultPoint
	for cyc := 0; cyc+4 < g.HaltCycle; cyc += 11 {
		for ff := 0; ff < len(c.NL.FFs); ff += 3 {
			pts = append(pts, FaultPoint{FF: ff, Cycle: cyc, Duration: 2})
		}
	}
	seq, err := ctl.RunCampaign(CampaignConfig{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	run64, err := NewAVRRunW(c, prog, 64)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := ctl.RunCampaignBatchedPoolWithW(CampaignConfig{Points: pts}, []RunW{run64})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Outcome{OutcomeBenign, OutcomeSDC, OutcomeHang} {
		if seq.ByOutcome[o] != bat.ByOutcome[o] {
			t.Errorf("%s: sequential %d, batched %d", o, seq.ByOutcome[o], bat.ByOutcome[o])
		}
	}
}

// buildWindowCircuit creates a circuit with *persistent* masking windows:
// a private register rq is overwritten with fresh input data on every
// cycle of a long phase (en = phase bit), so a MATE (en=1) triggers for
// many consecutive cycles. A cycle counter raises `halt` after 32 cycles.
func buildWindowCircuit(t testing.TB) (*netlist.Netlist, *NetlistRun, netlist.WireID) {
	t.Helper()
	b := netlist.NewBuilder("window")
	c := synth.New(b)
	d := c.InputBus("d", 4)
	en := b.Input("en")

	// private data register: Q feeds only its own hold mux
	rq := c.RegisterPlaceholder("rq", 4, 0, "data")
	c.ConnectRegister(rq, d, en)

	// visible accumulator so faults elsewhere matter
	acc := c.RegisterPlaceholder("acc", 4, 0, "acc")
	sum := c.Adder(acc, d, b.Const(false))
	c.ConnectRegisterAlways(acc, sum.Sum)
	c.OutputBus(acc)

	// cycle counter + halt flag
	cnt := c.RegisterPlaceholder("cnt", 6, 0, "ctrl")
	c.ConnectRegisterAlways(cnt, c.Inc(cnt).Sum)
	haltNow := c.EqualConst(cnt, 32)
	hlt := c.RegisterPlaceholder("halt", 1, 0, "ctrl")
	c.ConnectRegisterAlways(hlt, synth.Bus{b.Gate(cell.OR2, hlt[0], haltNow)})
	b.MarkOutput(hlt[0])

	nl := b.MustNetlist()
	run := NewNetlistRun(nl, hlt[0], func(cycle int, m *sim.Machine) {
		m.WriteBus(d, uint64(cycle*3)&0xF)
		m.SetValue(en, cycle < 24) // en high for a 24-cycle window
	})
	return nl, run, rq[2]
}

// TestMultiCycleUpsetsPersistentWindow: on a circuit whose masking window
// spans many cycles, multi-cycle upsets ARE pruned, and validation
// confirms every one of them.
func TestMultiCycleUpsetsPersistentWindow(t *testing.T) {
	nl, run, target := buildWindowCircuit(t)
	g, err := RecordGolden(run, 1000)
	if err != nil {
		t.Fatal(err)
	}
	set := core.Search(nl, nl.FFQWires(), core.DefaultSearchParams()).Set
	ctl := NewController(run, g)

	ffIdx := nl.FFByQ(target)
	if ffIdx < 0 {
		t.Fatal("target FF not found")
	}
	var pts []FaultPoint
	for cyc := 0; cyc+4 < g.HaltCycle; cyc++ {
		pts = append(pts, FaultPoint{FF: ffIdx, Cycle: cyc, Duration: 4})
	}
	res, err := ctl.RunCampaign(CampaignConfig{Points: pts, MATESet: set, ValidateSkipped: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped == 0 {
		t.Fatal("expected 4-cycle upsets inside the persistent window to be pruned")
	}
	if res.SkippedWrong != 0 {
		t.Fatalf("%d pruned multi-cycle upsets were effective", res.SkippedWrong)
	}
	t.Logf("4-cycle upsets on %s: %d of %d pruned, all validated benign",
		nl.WireName(target), res.Skipped, res.Total)
}

// TestNetlistRunBasics covers the generic netlist Run adapter.
func TestNetlistRunBasics(t *testing.T) {
	_, run, _ := buildWindowCircuit(t)
	g, err := RecordGolden(run, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if g.HaltCycle == 0 {
		t.Fatal("did not halt")
	}
	// checkpoint round trip reproduces the golden signature
	run.Restore(g.Checkpoints[g.HaltCycle/2])
	for i := 0; i < 1000 && !run.Halted(); i++ {
		run.Step()
	}
	if run.Signature() != g.Signature {
		t.Fatal("restored run diverged")
	}
}
