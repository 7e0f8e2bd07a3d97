package hafi

import (
	"testing"

	"repro/internal/sim"
)

// TestDeviceProgramPinned pins the device program both cores' campaign
// devices run (sim.MachineW.SetEnvWrites, declared through
// sim.NewLaneMemory): the flip-flops folded into the commit and their
// enable groups, the gates Settle evaluates and of those the environment's
// cone, and no gate on the fallback kernel. A silent fallback to the whole
// netlist — an environment that no longer declares itself, a fold rule that
// stops matching — moves a figure here; internal/sim's
// TestEmptyConeStaysSplit catches an empty cone taken for no split.
func TestDeviceProgramPinned(t *testing.T) {
	for _, c := range []struct {
		cpu, prog string
		gates     int
		want      sim.ProgramShape
	}{
		{"avr", "fib", 1074, sim.ProgramShape{Ops: 771, ConeOps: 16, FoldedFFs: 202, EnableGroups: 22}},
		{"msp430", "conv", 1502, sim.ProgramShape{Ops: 1047, ConeOps: 0, FoldedFFs: 331, EnableGroups: 21}},
	} {
		t.Run(c.cpu, func(t *testing.T) {
			tg, err := NewTarget(c.cpu, c.prog)
			if err != nil {
				t.Fatal(err)
			}
			if len(tg.NL.Gates) != c.gates {
				t.Fatalf("the %s netlist has %d gates, want %d", c.cpu, len(tg.NL.Gates), c.gates)
			}
			for _, lanes := range []int{64, 256} {
				r, err := tg.NewRunW(lanes)
				if err != nil {
					t.Fatal(err)
				}
				m := r.MachW()
				if got := m.Shape(); got != c.want {
					t.Errorf("%d lanes: device program %+v, want %+v", lanes, got, c.want)
				}
				if n := m.FallbackOps(); n != 0 {
					t.Errorf("%d lanes: %d ops on the fallback kernel", lanes, n)
				}
			}
		})
	}
}
