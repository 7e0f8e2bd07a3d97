package hafi

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/synth"
)

// buildConvergenceCircuit synthesises the smallest circuit whose
// convergence behaviour is fully controllable from the test:
//
//   - `a` is a self-healing flip-flop (D = const 0): a flip survives
//     exactly one cycle, then the state re-converges with the golden run.
//   - `b` is a sticky trap (D = b | (a & sel)) where sel pulses exactly
//     when the cycle counter equals selAt: a flip of `a` changes the final
//     result if and only if `a` is still high on cycle selAt.
//   - a 6-bit counter raises the sticky halt flag after cycle 40.
//
// Golden behaviour: a=0 and b=0 forever, halt at the start of cycle 41.
func buildConvergenceCircuit(t testing.TB, selAt uint64) (*netlist.Netlist, *NetlistRun, int) {
	t.Helper()
	b := netlist.NewBuilder("conv")
	c := synth.New(b)

	cnt := c.RegisterPlaceholder("cnt", 6, 0, "ctrl")
	c.ConnectRegisterAlways(cnt, c.Inc(cnt).Sum)
	sel := c.EqualConst(cnt, selAt)

	aq := b.FF("a", b.Const(false), false, "tgt")
	bq := c.RegisterPlaceholder("b", 1, 0, "trap")
	c.ConnectRegisterAlways(bq, synth.Bus{b.Gate(cell.OR2, bq[0], b.Gate(cell.AND2, aq, sel))})
	b.MarkOutput(bq[0])

	haltNow := c.EqualConst(cnt, 40)
	hlt := c.RegisterPlaceholder("halt", 1, 0, "ctrl")
	c.ConnectRegisterAlways(hlt, synth.Bus{b.Gate(cell.OR2, hlt[0], haltNow)})
	b.MarkOutput(hlt[0])

	nl := b.MustNetlist()
	run := NewNetlistRun(nl, hlt[0], nil)
	ffA := nl.FFByQ(aq)
	if ffA < 0 {
		t.Fatal("target FF not found")
	}
	return nl, run, ffA
}

func goldenConvergence(t testing.TB, selAt uint64) (*Controller, *NetlistRun, int, *Golden) {
	t.Helper()
	_, run, ffA := buildConvergenceCircuit(t, selAt)
	g, err := RecordGolden(run, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return NewController(run, g), run, ffA, g
}

// TestConvergenceEarlyExitBenign: a transient flip of the self-healing FF
// re-converges one cycle later, so the early-exit must retire it benign
// with the exact number of skipped cycles; with the exit disabled the same
// experiment runs to halt (same verdict, zero credit).
func TestConvergenceEarlyExitBenign(t *testing.T) {
	ctl, run, ffA, g := goldenConvergence(t, 10)
	timeout := 2 * g.HaltCycle

	p := FaultPoint{FF: ffA, Cycle: 5}
	out, saved := ctl.execute(run, p, timeout, true)
	if out != OutcomeBenign {
		t.Fatalf("transient flip: outcome %s, want benign", out)
	}
	if want := g.HaltCycle - 6; saved != want {
		t.Fatalf("transient flip: saved %d cycles, want %d (healed at start of cycle 6)", saved, want)
	}

	out, saved = ctl.execute(run, p, timeout, false)
	if out != OutcomeBenign || saved != 0 {
		t.Fatalf("full run: outcome %s saved %d, want benign with no credit", out, saved)
	}

	// The same flip landing on the sel pulse sets the trap: never benign,
	// never early-exited (b stays diverged from golden forever).
	out, saved = ctl.execute(run, FaultPoint{FF: ffA, Cycle: 10}, timeout, true)
	if out != OutcomeSDC || saved != 0 {
		t.Fatalf("flip on pulse cycle: outcome %s saved %d, want SDC with no credit", out, saved)
	}
}

// TestConvergenceHoldWindowNoEarlyExit: a multi-cycle upset whose hold
// window covers the sel pulse. Between re-flips the FF state transiently
// equals golden (a's D is const 0), so an implementation that checks
// convergence before the re-flip — or anywhere inside the hold window —
// would wrongly retire the experiment benign. The pulse at cycle 10 lands
// inside the [8,12) window and springs the trap: the verdict must be SDC.
func TestConvergenceHoldWindowNoEarlyExit(t *testing.T) {
	ctl, run, ffA, g := goldenConvergence(t, 10)
	timeout := 2 * g.HaltCycle

	out, saved := ctl.execute(run, FaultPoint{FF: ffA, Cycle: 8, Duration: 4}, timeout, true)
	if out != OutcomeSDC {
		t.Fatalf("held upset over pulse: outcome %s, want SDC (early-exit fired inside the hold window?)", out)
	}
	if saved != 0 {
		t.Fatalf("held upset over pulse: saved %d, want 0", saved)
	}

	// Control: the identical window with the pulse moved outside it is
	// harmless, and the exit fires on the first cycle AFTER the hold ends.
	ctl2, run2, ffA2, g2 := goldenConvergence(t, 20)
	out, saved = ctl2.execute(run2, FaultPoint{FF: ffA2, Cycle: 8, Duration: 4}, timeout, true)
	if out != OutcomeBenign {
		t.Fatalf("held upset, pulse outside window: outcome %s, want benign", out)
	}
	if want := g2.HaltCycle - 12; saved != want {
		t.Fatalf("held upset, pulse outside window: saved %d, want %d (converged at hold end)", saved, want)
	}
}

// TestConvergenceHaltBoundary probes the end of the golden reference: a
// flip on the final pre-halt cycle has no post-hold reference row left, so
// it must classify via the halt signature (no credit); a flip one cycle
// earlier converges on the very last recorded cycle and saves exactly 1.
func TestConvergenceHaltBoundary(t *testing.T) {
	ctl, run, ffA, g := goldenConvergence(t, 10)
	timeout := 2 * g.HaltCycle

	out, saved := ctl.execute(run, FaultPoint{FF: ffA, Cycle: g.HaltCycle - 1}, timeout, true)
	if out != OutcomeBenign || saved != 0 {
		t.Fatalf("flip on last cycle: outcome %s saved %d, want benign via halt signature with no credit", out, saved)
	}

	out, saved = ctl.execute(run, FaultPoint{FF: ffA, Cycle: g.HaltCycle - 2}, timeout, true)
	if out != OutcomeBenign || saved != 1 {
		t.Fatalf("flip on second-to-last cycle: outcome %s saved %d, want benign with exactly 1 cycle saved", out, saved)
	}
}

// memDivergedRun wraps a NetlistRun and reports a diverged memory digest
// from the flip cycle on, emulating a fault whose architectural FF state
// re-converges while its external-memory write history does not.
type memDivergedRun struct {
	*NetlistRun
	divergeFrom int
}

func (r *memDivergedRun) MemDigest() uint64 {
	if r.Machine().Cycle > r.divergeFrom {
		return ^sim.WriteDigestSeed
	}
	return r.NetlistRun.MemDigest()
}

// TestConvergenceMemoryDivergenceBlocksExit: FF convergence alone must not
// retire an experiment — if the memory write digest differs from golden,
// the run has to execute to completion even though every flip-flop already
// matches the reference.
func TestConvergenceMemoryDivergenceBlocksExit(t *testing.T) {
	ctl, run, ffA, g := goldenConvergence(t, 10)
	timeout := 2 * g.HaltCycle
	p := FaultPoint{FF: ffA, Cycle: 5}

	// Sanity: with a clean digest this exact point early-exits.
	if _, saved := ctl.execute(run, p, timeout, true); saved == 0 {
		t.Fatal("clean-digest control did not early-exit; memory test would prove nothing")
	}

	diverged := &memDivergedRun{NetlistRun: run, divergeFrom: p.Cycle}
	out, saved := ctl.execute(diverged, p, timeout, true)
	if out != OutcomeBenign {
		t.Fatalf("memory-diverged run: outcome %s, want benign (netlist signature ignores memory)", out)
	}
	if saved != 0 {
		t.Fatalf("memory-diverged run retired %d cycles early despite digest mismatch", saved)
	}
}

// TestConvergenceCampaignAccounting: at the campaign level, the early-exit
// changes Converged/CyclesSaved and nothing else — the full fault space of
// the convergence circuit classifies identically with the exit disabled.
func TestConvergenceCampaignAccounting(t *testing.T) {
	nl, run, _ := buildConvergenceCircuit(t, 10)
	g, err := RecordGolden(run, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(run, g)
	points := FullFaultList(nl, g.HaltCycle)

	early, err := ctl.RunCampaign(CampaignConfig{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	full, err := ctl.RunCampaign(CampaignConfig{Points: points, DisableEarlyExit: true})
	if err != nil {
		t.Fatal(err)
	}
	if early.Converged == 0 || early.CyclesSaved == 0 {
		t.Fatal("self-healing circuit produced no convergence credit")
	}
	if full.Converged != 0 || full.CyclesSaved != 0 {
		t.Fatalf("DisableEarlyExit run reports credit: %d/%d", full.Converged, full.CyclesSaved)
	}
	if early.Total != full.Total || early.Executed != full.Executed {
		t.Fatalf("accounting differs: early %+v, full %+v", early, full)
	}
	for _, o := range []Outcome{OutcomeBenign, OutcomeSDC, OutcomeHang, OutcomeHarnessError} {
		if early.ByOutcome[o] != full.ByOutcome[o] {
			t.Errorf("%s: early-exit %d, full run %d", o, early.ByOutcome[o], full.ByOutcome[o])
		}
	}
}

// TestBatchedHoldWindowConvergence: multi-cycle upsets on the AVR model —
// the batched engine's per-lane hold-window gating and convergence
// retirement must reproduce the scalar engine's outcomes and credit
// exactly.
func TestBatchedHoldWindowConvergence(t *testing.T) {
	c, prog, g, r := goldenAVR(t)
	ctl := NewController(r, g)
	var points []FaultPoint
	for _, p := range SampledFaultList(c.NL, g.HaltCycle, 7) {
		if p.Cycle+5 < g.HaltCycle {
			points = append(points, FaultPoint{FF: p.FF, Cycle: p.Cycle, Duration: 5})
		}
	}
	if len(points) == 0 {
		t.Fatal("empty fault list")
	}

	seq, err := ctl.RunCampaign(CampaignConfig{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	run64, err := NewAVRRunW(c, prog, 64)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := ctl.RunCampaignBatchedPoolWithW(CampaignConfig{Points: points}, []RunW{run64})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Outcome{OutcomeBenign, OutcomeSDC, OutcomeHang, OutcomeHarnessError} {
		if seq.ByOutcome[o] != bat.ByOutcome[o] {
			t.Errorf("%s: sequential %d, batched %d", o, seq.ByOutcome[o], bat.ByOutcome[o])
		}
	}
	if seq.Converged != bat.Converged || seq.CyclesSaved != bat.CyclesSaved {
		t.Errorf("convergence credit: sequential %d/%d, batched %d/%d",
			seq.Converged, seq.CyclesSaved, bat.Converged, bat.CyclesSaved)
	}
}
