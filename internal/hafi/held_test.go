package hafi

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
	"repro/internal/journal"
	"repro/internal/netlist"
)

// TestHeldRuleSeesTheEnvironment checks what the held rule's exactness
// rests on for every core of the target table: each wire the memory
// environment or a verdict reads — fetch address, data address, write
// strobe and data, output port, halt flag — is a primary output. The
// inter-cycle analysis counts a change of a primary output as an escape; a
// wire it does not watch, even the flipped flip-flop's own Q, would let a
// held lane's memory or halt differ from golden unseen.
func TestHeldRuleSeesTheEnvironment(t *testing.T) {
	a, m := avr.NewCore(), msp430.NewCore()
	cores := map[string]struct {
		nl    *netlist.Netlist
		wires [][]netlist.WireID
	}{
		"avr":    {a.NL, [][]netlist.WireID{a.IMemAddr, a.DMemAddr, a.DMemWData, {a.DMemWE}, a.Port, {a.Halted}}},
		"msp430": {m.NL, [][]netlist.WireID{m.IMemAddr, m.DMemAddr, m.DMemWData, {m.DMemWE}, m.Port, {m.Halted}}},
	}
	for name := range targets {
		c, ok := cores[name]
		if !ok {
			t.Errorf("target core %s: its environment wires are not checked here", name)
			continue
		}
		for _, bus := range c.wires {
			for _, w := range bus {
				if !c.nl.IsPrimaryOutput(w) {
					t.Errorf("%s: %s is read by the environment but is no primary output", name, c.nl.WireName(w))
				}
			}
		}
	}
}

// TestHeldRetirement runs AVR fib under SEU and MBU on the wide engine with
// the held rule and holds it against the same campaign without early exits
// (journal bytes) and against the sequential oracle (outcomes, convergence
// credit). The fault list is a coarse sample, in which upsets in the nine
// registers fib never touches are held from the start, plus, for every
// flip-flop whose held suffix starts inside the run, the upset two cycles
// before that start: a lane that holds the flip one cycle and reaches the
// last cycle that kills it or lets it escape. A table that starts a suffix
// one cycle early retires those lanes there, with f's halt verdict and no
// convergence credit, where the oracle sees them converge or fail; that
// mutation fails the Converged/CyclesSaved or outcome comparison.
func TestHeldRetirement(t *testing.T) {
	tg, err := NewTarget("avr", "fib")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := RecordGolden(tg.NewRun(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(tg.NewRun(), golden)
	held := ctl.heldFaults(nil)
	for _, tc := range []struct {
		name string
		spec ModelSpec
	}{
		{"seu", ModelSpec{Model: ModelSEU}},
		{"mbu2", ModelSpec{Model: ModelMBU, Span: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var points []FaultPoint
			for i, p := range ModelFaultList(tg.NL, golden.HaltCycle, 2500, tc.spec) {
				if i%10 == 0 {
					points = append(points, p)
				}
			}
			edges := 0
			for f, from := range held.from {
				if from >= 2 && from != math.MaxInt32 {
					p := FaultPoint{FF: f, Cycle: int(from) - 2}
					if tc.spec.Model == ModelMBU {
						if f+1 >= len(tg.NL.FFs) || tg.NL.FFs[f+1].Group != tg.NL.FFs[f].Group {
							continue // a burst stays inside one group
						}
						p.Model, p.Span = ModelMBU, 2
					}
					points = append(points, p)
					edges++
				}
			}
			if edges == 0 {
				t.Fatal("no flip-flop has a held suffix that starts inside the run")
			}

			seq, err := ctl.RunCampaign(CampaignConfig{Points: points})
			if err != nil {
				t.Fatal(err)
			}
			wide := func(early bool) (*CampaignResult, []byte) {
				t.Helper()
				path := filepath.Join(t.TempDir(), "j")
				jw, err := journal.Create(path, ctl.JournalHeader(points))
				if err != nil {
					t.Fatal(err)
				}
				runs, err := tg.Pool(DefaultCampaignLanes, 2, len(points))
				if err != nil {
					t.Fatal(err)
				}
				res, err := ctl.RunCampaignBatchedPoolWithW(CampaignConfig{Points: points, Journal: jw, DisableEarlyExit: !early}, runs)
				if err == nil {
					err = jw.Close()
				}
				if err != nil {
					t.Fatal(err)
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return res, raw
			}
			res, raw := wide(true)
			full, fullRaw := wide(false)

			if res.Held == 0 {
				t.Fatal("the held rule retired no experiment")
			}
			if full.Held != 0 || full.Converged != 0 {
				t.Fatalf("DisableEarlyExit still retired early: held %d, converged %d", full.Held, full.Converged)
			}
			if !bytes.Equal(raw, fullRaw) {
				t.Fatal("journal differs from the campaign without early exits")
			}
			for _, o := range []Outcome{OutcomeBenign, OutcomeSDC, OutcomeHang, OutcomeHarnessError} {
				if res.ByOutcome[o] != seq.ByOutcome[o] {
					t.Errorf("%s: wide %d, sequential %d", o, res.ByOutcome[o], seq.ByOutcome[o])
				}
			}
			if res.Converged != seq.Converged || res.CyclesSaved != seq.CyclesSaved {
				t.Errorf("convergence credit: wide %d/%d, sequential %d/%d", res.Converged, res.CyclesSaved, seq.Converged, seq.CyclesSaved)
			}
			t.Logf("%d points (%d at a suffix edge): held %d, converged %d", len(points), edges, res.Held, res.Converged)
		})
	}
}
