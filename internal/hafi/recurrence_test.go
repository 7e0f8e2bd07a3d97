package hafi

import (
	"path/filepath"
	"testing"

	"repro/internal/journal"
)

// TestHangsShowNoRecurrence measures the "hangs proved by recurrence" rule
// before anyone builds it: an experiment whose full state (flip-flops and
// data memory) repeats is provably a hang, so a campaign could call it at
// the repeat instead of at its deadline. Every hang of AVR fib at stride
// 2000 is re-run on the scalar engine under Brent's cycle detection up to
// the 2 x halt timeout. None repeats a state: the hangs run off into
// ever-changing state (counters, memory scribbles), not into short loops,
// so the rule would retire nothing and is not built.
func TestHangsShowNoRecurrence(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs every hang to its deadline on the scalar engine")
	}
	tg, err := NewTarget("avr", "fib")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := RecordGolden(tg.NewRun(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(tg.NewRun(), golden)
	points := SampledFaultList(tg.NL, golden.HaltCycle, 2000)
	path := filepath.Join(t.TempDir(), "j")
	jw, err := journal.Create(path, ctl.JournalHeader(points))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := tg.Pool(DefaultCampaignLanes, 2, len(points))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.RunCampaignBatchedPoolWithW(CampaignConfig{Points: points, Journal: jw}, runs); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := journal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}

	timeout := 2 * golden.HaltCycle
	run := tg.NewRun().(*scalarRun[uint8])
	type state struct {
		ffs  []bool
		dmem [ramCells]uint8
	}
	var tortoise state
	capture := func(s *state) {
		s.ffs = append(s.ffs[:0], run.m.FFState()...)
		s.dmem = *run.dmem
	}
	same := func(s *state) bool {
		if *run.dmem != s.dmem {
			return false
		}
		for i, ff := range tg.NL.FFs {
			if run.m.Value(ff.Q) != s.ffs[i] {
				return false
			}
		}
		return true
	}
	hangs, repeats := 0, 0
	for i, p := range points {
		if Outcome(rec.ByIndex[uint64(i)].Outcome) != OutcomeHang {
			continue
		}
		hangs++
		run.Restore(golden.Checkpoints[p.Cycle])
		run.m.FlipFF(p.FF)
		// Brent: the tortoise jumps to the hare at every power of two steps.
		capture(&tortoise)
		power, lam := 1, 0
		for cyc := p.Cycle; cyc < timeout && !run.Halted(); {
			run.Step()
			cyc++
			lam++
			if same(&tortoise) {
				repeats++
				t.Logf("ff %d cycle %d: state repeats with period %d", p.FF, p.Cycle, lam)
				break
			}
			if lam == power {
				capture(&tortoise)
				power, lam = 2*power, 0
			}
		}
		if run.Halted() {
			t.Fatalf("ff %d cycle %d: journaled as a hang, halts before the timeout", p.FF, p.Cycle)
		}
	}
	if hangs == 0 {
		t.Fatal("no hang to measure")
	}
	t.Logf("%d points, %d hangs, %d with a repeated state before the %d-cycle timeout", len(points), hangs, repeats, timeout)
	if repeats != 0 {
		t.Errorf("%d of %d hangs repeat a state: recurrence would retire them early; revisit the rule", repeats, hangs)
	}
}
