package hafi

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
	"repro/internal/progs"
	"repro/internal/sim"
)

// TestTargetTable pins what every front end relies on when it resolves a
// (cpu, program) pair: the table names the built-in program, Target.Golden
// (the wide recorder every CLI uses) equals the scalar RecordGolden on
// halt cycle, signature, memory digests and every trace row, and the trace
// prune and tracesim record from NewRun is the core System's own trace.
// -short keeps one pair per core.
func TestTargetTable(t *testing.T) {
	systems := map[string]func(prog []uint16, cycles int) *sim.Trace{
		"avr":    func(p []uint16, n int) *sim.Trace { return avr.NewSystem(avr.NewCore(), p).Record(n) },
		"msp430": func(p []uint16, n int) *sim.Trace { return msp430.NewSystem(msp430.NewCore(), p).Record(n) },
	}
	pairs := []struct {
		cpu, prog string
		want      func() []uint16
		short     bool
	}{
		{"avr", "fib", progs.AVRFib, true},
		{"avr", "conv", progs.AVRConv, false},
		{"avr", "sort", progs.AVRSort, false},
		{"msp430", "fib", progs.MSP430Fib, false},
		{"msp430", "conv", progs.MSP430Conv, true},
		{"msp430", "sort", progs.MSP430Sort, false},
	}
	const traceCycles = 2000
	for _, p := range pairs {
		if testing.Short() && !p.short {
			continue
		}
		t.Run(p.cpu+"/"+p.prog, func(t *testing.T) {
			tg, err := NewTarget(p.cpu, p.prog)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(tg.Prog, p.want()) {
				t.Fatal("program differs from the built-in one")
			}
			want, err := RecordGolden(tg.NewRun(), 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tg.Golden()
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, want, got, func(int) {})

			r := tg.NewRun()
			tr := sim.Record(r.Machine(), r.Env(), traceCycles)
			ref := systems[p.cpu](p.want(), traceCycles)
			if tr.NumWires != ref.NumWires || tr.NumCycles() != ref.NumCycles() {
				t.Fatalf("trace shape %d×%d, System's %d×%d", tr.NumCycles(), tr.NumWires, ref.NumCycles(), ref.NumWires)
			}
			for cyc := 0; cyc < ref.NumCycles(); cyc++ {
				if !slices.Equal(tr.Row(cyc), ref.Row(cyc)) {
					t.Fatalf("cycle %d: trace row differs from the System's", cyc)
				}
			}
		})
	}
}

// TestTargetUnknownNames: an unknown cpu or program is an error that names
// the valid set, so every CLI's usage line lists it.
func TestTargetUnknownNames(t *testing.T) {
	for _, tc := range []struct {
		cpu, prog, want string
	}{
		{"bogus", "fib", `unknown cpu "bogus" (want avr or msp430)`},
		{"avr", "bogus", `unknown workload "bogus" (want conv, fib or sort)`},
		{"msp430", "", `unknown workload "" (want conv, fib or sort)`},
	} {
		if _, err := NewTarget(tc.cpu, tc.prog); err == nil || err.Error() != tc.want {
			t.Errorf("NewTarget(%q, %q) = %v, want %q", tc.cpu, tc.prog, err, tc.want)
		}
	}
	if _, err := AssembleTarget("bogus", ""); err == nil || !strings.Contains(err.Error(), "want avr or msp430") {
		t.Errorf("AssembleTarget(bogus) = %v, want the valid cpus named", err)
	}
	if _, err := AssembleTarget("avr", "frobnicate r1"); err == nil {
		t.Error("AssembleTarget accepted a bad source")
	}
}
