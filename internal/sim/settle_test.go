package sim_test

import (
	"math/rand"
	"testing"

	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
	"repro/internal/netlist"
	"repro/internal/netlist/nltest"
	"repro/internal/progs"
	"repro/internal/sim"
)

// ttPass evaluates every gate once in topological order from its truth
// table: the reference pass, which shares nothing with the machine's
// evaluation program.
func ttPass(nl *netlist.Netlist, v []bool) {
	for _, gi := range nl.EvalOrder() {
		g := &nl.Gates[gi]
		var in uint32
		for p, w := range g.Inputs {
			if v[w] {
				in |= 1 << p
			}
		}
		v[g.Output] = g.Cell.TruthTable()>>in&1 == 1
	}
}

// checkSettle steps m with Settle and ref with the reference scheme — two
// full truth-table passes around the environment — in lock step for cycles
// cycles, and fails at the first wire that differs after a settle. env and
// refEnv are the same environment over each machine's own state; env is
// checked to write primary inputs only.
func checkSettle(t *testing.T, m, ref *sim.Machine, env, refEnv sim.Env, cycles int) {
	t.Helper()
	env = nltest.InputsOnly(t, env)
	for c := 0; c < cycles; c++ {
		m.Settle(env)
		v := ref.Values()
		ttPass(ref.NL, v)
		refEnv.SetInputs(ref)
		ttPass(ref.NL, v)
		for w, want := range v {
			if m.Value(netlist.WireID(w)) != want {
				t.Fatalf("cycle %d: wire %s is %v after Settle, %v after two full passes", c, m.NL.WireName(netlist.WireID(w)), !want, want)
			}
		}
		m.CommitFFs()
		ref.CommitFFs()
	}
}

// TestSettleMatchesTwoFullPasses: Settle's second pass re-evaluates only
// the gates downstream of a primary input. After every settle each wire
// must equal what two full passes around the same environment give, on
// random gate soups (some with shift-register flip-flops) and on both
// cores running a program.
func TestSettleMatchesTwoFullPasses(t *testing.T) {
	t.Run("gate-soup", func(t *testing.T) {
		for seed := int64(0); seed < 300; seed++ {
			rng := rand.New(rand.NewSource(seed))
			nl := nltest.GateSoup(rng)
			salt := rng.Uint64() | 1
			// The environment reads flip-flop outputs (settled before it runs)
			// and the cycle, and drives every primary input from them.
			drive := sim.EnvFunc(func(m *sim.Machine) {
				h := uint64(m.Cycle+1) * salt
				for _, ff := range nl.FFs {
					h *= 0x9e3779b97f4a7c15
					if m.Value(ff.Q) {
						h ^= 0xdeadbeef
					}
				}
				for i, w := range nl.Inputs {
					m.SetValue(w, (h>>(17+i))&1 == 1)
				}
			})
			checkSettle(t, sim.New(nl), sim.New(nl), drive, drive, 64)
		}
	})
	t.Run("avr-fib", func(t *testing.T) {
		c := avr.NewCore()
		s, ref := avr.NewSystem(c, progs.AVRFib()), avr.NewSystem(c, progs.AVRFib())
		checkSettle(t, s.M, ref.M, s.Env(), ref.Env(), 2000)
		if s.DMem != ref.DMem || s.WriteDigest != ref.WriteDigest {
			t.Fatal("data memory differs from the reference run's")
		}
	})
	t.Run("msp430-conv", func(t *testing.T) {
		c := msp430.NewCore()
		s, ref := msp430.NewSystem(c, progs.MSP430Conv()), msp430.NewSystem(c, progs.MSP430Conv())
		checkSettle(t, s.M, ref.M, s.Env(), ref.Env(), 2000)
		if s.DMem != ref.DMem || s.WriteDigest != ref.WriteDigest {
			t.Fatal("data memory differs from the reference run's")
		}
	})
}
