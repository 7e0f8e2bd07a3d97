package nltest

import (
	"testing"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// InputsOnly wraps env to check the contract of sim.Env on every call: the
// environment writes primary inputs and nothing else. A wire outside the
// netlist's inputs whose value SetInputs changed fails tb; a write that
// leaves a wire's value as it was cannot be seen.
func InputsOnly(tb testing.TB, env sim.Env) sim.Env {
	var nl *netlist.Netlist
	var isInput, before []bool
	return sim.EnvFunc(func(m *sim.Machine) {
		if m.NL != nl {
			nl, isInput, before = m.NL, make([]bool, m.NL.NumWires()), make([]bool, m.NL.NumWires())
			for _, w := range nl.Inputs {
				isInput[w] = true
			}
		}
		copy(before, m.Values())
		env.SetInputs(m)
		for w, v := range m.Values() {
			if v != before[w] && !isInput[w] {
				tb.Fatalf("cycle %d: the environment wrote wire %s, which is not a primary input", m.Cycle, nl.WireName(netlist.WireID(w)))
			}
		}
	})
}
