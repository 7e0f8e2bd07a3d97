package hafi

import (
	"sort"
	"testing"

	"repro/internal/netlist/nltest"
)

// TestEnvironmentsWriteInputsOnly: Settle's final pass re-evaluates only
// the gates downstream of a primary input, which is exact only while an
// environment writes primary inputs alone (sim.Env). Every program of the
// target table runs to its halt, and a NetlistRun through its window, with
// each environment call checked.
func TestEnvironmentsWriteInputsOnly(t *testing.T) {
	runs := map[string]Run{}
	for cpu, c := range targets {
		for prog := range c.progs {
			tg, err := NewTarget(cpu, prog)
			if err != nil {
				t.Fatal(err)
			}
			runs[cpu+"-"+prog] = tg.NewRun()
		}
	}
	_, runs["netlist-window"], _ = buildWindowCircuit(t)
	names := make([]string, 0, len(runs))
	for n := range runs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			r := runs[name]
			m, env := r.Machine(), nltest.InputsOnly(t, r.Env())
			for !r.Halted() {
				if m.Cycle == 1<<16 {
					t.Fatal("no halt")
				}
				m.Settle(env)
				m.CommitFFs()
			}
		})
	}
}
