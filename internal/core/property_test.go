package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/netlist"
	"repro/internal/netlist/nltest"
	"repro/internal/sim"
	"repro/internal/synth"
)

// TestMATESoundnessRandomNetlists is the property-based soundness check:
// generate random small sequential netlists, run the full MATE search over
// their flip-flops, and verify every claim by exhaustive gate-level
// injection — for each (wire, cycle) point some triggered MATE declares
// benign, flip the flip-flop in the reconstructed cycle state and re-settle
// the whole machine; no flip-flop D input and no primary output may change.
// The verifier shares no code with the search or the Oracle (it evaluates
// the full netlist, not the fault cone), so an unsound MATE cannot hide
// behind a bug common to both sides.
//
// Seeds are fixed: the test is deterministic under plain `go test` and
// `-race`.
func TestMATESoundnessRandomNetlists(t *testing.T) {
	const cycles = 24
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var nl *netlist.Netlist
			if seed%2 == 0 {
				nl = nltest.GateSoup(rng)
			} else {
				nl = randomSynthNetlist(t, rng)
			}

			m := sim.New(nl)
			env := sim.EnvFunc(func(m *sim.Machine) {
				for _, in := range nl.Inputs {
					m.SetValue(in, rng.Intn(2) == 1)
				}
			})
			tr := sim.Record(m, env, cycles)

			params := DefaultSearchParams()
			params.Workers = 2
			res := Search(nl, nl.FFQWires(), params)

			verifier := newInjectionVerifier(nl)
			points := 0
			for _, mate := range res.Set.MATEs {
				for c := 0; c < tr.NumCycles(); c++ {
					if !mate.EvalTrace(tr, c) {
						continue
					}
					for _, q := range mate.Masks {
						points++
						if !verifier.masked(t, tr, c, q) {
							t.Fatalf("seed %d: MATE %s claims wire %s benign at cycle %d, but gate-level injection propagates",
								seed, mate.String(nl), nl.WireName(q), c)
						}
					}
				}
			}
			if testing.Verbose() {
				t.Logf("seed %d: %d wires, %d gates, %d FFs, %d MATEs, %d claimed-benign points verified",
					seed, nl.NumWires(), len(nl.Gates), len(nl.FFs), res.Set.Size(), points)
			}
		})
	}
}

// injectionVerifier re-simulates one cycle of the full machine with and
// without the upset.
type injectionVerifier struct {
	nl      *netlist.Netlist
	m       *sim.Machine
	ffByQ   map[netlist.WireID]int
	ffState []bool
	inState []bool
}

func newInjectionVerifier(nl *netlist.Netlist) *injectionVerifier {
	v := &injectionVerifier{
		nl:      nl,
		m:       sim.New(nl),
		ffByQ:   map[netlist.WireID]int{},
		ffState: make([]bool, len(nl.FFs)),
		inState: make([]bool, len(nl.Inputs)),
	}
	for i := range nl.FFs {
		v.ffByQ[nl.FFs[i].Q] = i
	}
	return v
}

// masked reconstructs the settled machine state of the given trace cycle,
// flips the flip-flop driving q, re-evaluates the whole combinational
// netlist and reports whether every flip-flop D input and primary output
// still carries its fault-free value — the exact single-cycle masking
// criterion the MATE claims.
func (v *injectionVerifier) masked(t *testing.T, tr *sim.Trace, cycle int, q netlist.WireID) bool {
	t.Helper()
	ff, ok := v.ffByQ[q]
	if !ok {
		t.Fatalf("MATE masks wire %s which is not a flip-flop output", v.nl.WireName(q))
	}
	row := tr.RowValues(cycle)
	for i := range v.nl.FFs {
		v.ffState[i] = row[v.nl.FFs[i].Q]
	}
	for i, w := range v.nl.Inputs {
		v.inState[i] = row[w]
	}

	// Fault-free reconstruction must reproduce the recorded row exactly;
	// anything else means the verifier state model is wrong and the masking
	// verdict below would be meaningless.
	v.m.SetFFState(v.ffState)
	v.m.SetInputState(v.inState)
	v.m.EvalComb()
	vals := v.m.Values()
	for w := 0; w < v.nl.NumWires(); w++ {
		if vals[w] != row[w] {
			t.Fatalf("cycle %d reconstruction mismatch on wire %s", cycle, v.nl.WireName(netlist.WireID(w)))
		}
	}

	v.m.FlipFF(ff)
	v.m.EvalComb()
	for i := range v.nl.FFs {
		d := v.nl.FFs[i].D
		if vals[d] != row[d] {
			return false
		}
	}
	for _, o := range v.nl.Outputs {
		if vals[o] != row[o] {
			return false
		}
	}
	return true
}

// randomSynthNetlist builds a small datapath from internal/synth primitives:
// random bus operations (logic, adder, mux, comparator) feeding registers,
// exercising the multi-input cells the gate soup rarely composes.
func randomSynthNetlist(t *testing.T, rng *rand.Rand) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("prop-synth")
	c := synth.New(b)
	width := 2 + rng.Intn(3)
	a := c.InputBus("a", width)
	d := c.InputBus("b", width)
	state := c.RegisterPlaceholder("acc", width, uint64(rng.Intn(1<<width)), "")

	buses := []synth.Bus{a, d, state}
	nOps := 3 + rng.Intn(5)
	for i := 0; i < nOps; i++ {
		x := buses[rng.Intn(len(buses))]
		y := buses[rng.Intn(len(buses))]
		var out synth.Bus
		switch rng.Intn(6) {
		case 0:
			out = c.And(x, y)
		case 1:
			out = c.Or(x, y)
		case 2:
			out = c.Xor(x, y)
		case 3:
			out = c.Not(x)
		case 4:
			out = c.Adder(x, y, c.B.Const(false)).Sum
		case 5:
			out = c.Mux2(c.Equal(x, y), x, y)
		}
		buses = append(buses, out)
	}
	next := buses[len(buses)-1]
	c.ConnectRegisterAlways(state, next)
	c.OutputBus(buses[rng.Intn(len(buses))])
	return b.MustNetlist()
}
