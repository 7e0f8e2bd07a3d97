package intercycle

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
	"repro/internal/netlist"
	"repro/internal/netlist/nltest"
	"repro/internal/progs"
	"repro/internal/sim"
)

// containment is the per-cycle fate of a held fault.
type containment uint8

const (
	containEscapes containment = iota // some sink beyond the own D changed
	containHolds                      // confined: own D re-captures the flip
	containKilled                     // own D carries the golden value
)

// containAt is the scalar reference of the containment kernel: flip q in
// the golden state of cycle cyc, re-evaluate the cone gate by gate, compare
// sinks.
func containAt(nl *netlist.Netlist, cone *core.Cone, tr *sim.Trace, cyc int, q, ownD netlist.WireID, scratch, values []bool) containment {
	row := tr.Row(cyc)
	for i := range values {
		values[i] = row[i/64]>>(uint(i)%64)&1 == 1
	}
	copy(scratch, values)
	scratch[q] = !values[q]

	gates := nl.Gates
	for _, gi := range cone.Gates {
		g := &gates[gi]
		var in uint32
		for p, w := range g.Inputs {
			if scratch[w] {
				in |= 1 << uint(p)
			}
		}
		scratch[g.Output] = g.Cell.Eval(in)
	}
	for _, s := range cone.Sinks {
		if s == ownD {
			continue
		}
		if scratch[s] != values[s] {
			return containEscapes
		}
	}
	// A D wire other flip-flops capture too escapes when it changes.
	if len(nl.FFsOfD(ownD)) > 1 && scratch[ownD] != values[ownD] {
		return containEscapes
	}
	if scratch[ownD] == values[ownD] {
		return containKilled
	}
	// At cyc+1 the machine is exactly "golden with this flip-flop flipped"
	// again, the induction premise for the next cycle.
	return containHolds
}

// referenceVerdicts folds containAt backwards over the trace: a killed
// cycle makes every preceding hold chain benign.
func referenceVerdicts(nl *netlist.Netlist, tr *sim.Trace, q netlist.WireID) []Verdict {
	cone := core.ComputeCone(nl, q)
	ownD := nl.FFs[nl.FFByQ(q)].D
	scratch := make([]bool, nl.NumWires())
	values := make([]bool, nl.NumWires())
	verdicts := make([]Verdict, tr.NumCycles())
	state := VerdictOpenEnd
	for cyc := tr.NumCycles() - 1; cyc >= 0; cyc-- {
		switch containAt(nl, cone, tr, cyc, q, ownD, scratch, values) {
		case containEscapes:
			state = VerdictUnknown
		case containKilled:
			state = VerdictBenign
		}
		verdicts[cyc] = state
	}
	return verdicts
}

// checkAgainstReference holds Analyze against the scalar fold for every
// strideth fault wire and every cycle, and OpenFrom against the open-end
// suffix of Analyze for every fault wire.
func checkAgainstReference(t *testing.T, nl *netlist.Netlist, tr *sim.Trace, wires []netlist.WireID, stride int) {
	t.Helper()
	res, err := Analyze(nl, tr, wires)
	if err != nil {
		t.Fatal(err)
	}
	from, err := OpenFrom(nl, tr, wires)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range wires {
		got := res.PerWire[i]
		if i%stride == 0 {
			for cyc, want := range referenceVerdicts(nl, tr, q) {
				if got[cyc] != want {
					t.Fatalf("%s: wire %s cycle %d: kernel %v, scalar reference %v", nl.Name, nl.WireName(q), cyc, got[cyc], want)
				}
			}
		}
		suffix := len(got)
		for suffix > 0 && got[suffix-1] == VerdictOpenEnd {
			suffix--
		}
		if from[i] != suffix {
			t.Fatalf("%s: wire %s: OpenFrom %d, Analyze's open-end suffix starts at %d", nl.Name, nl.WireName(q), from[i], suffix)
		}
	}
}

// TestKernelMatchesScalarReferenceRandom: on seeded gate soups (shared D
// wires, D wires that are primary outputs, flip-flops feeding flip-flops)
// over traces that end inside a block and span several, the word kernel
// and the scalar fold agree on every (flip-flop, cycle).
func TestKernelMatchesScalarReferenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nl := nltest.GateSoup(rng)
		m := sim.New(nl)
		// Slow inputs give held stretches as well as escapes.
		hold := 1 + rng.Intn(40)
		env := sim.EnvFunc(func(m *sim.Machine) {
			if m.Cycle%hold == 0 {
				for _, in := range nl.Inputs {
					m.SetValue(in, rng.Intn(2) == 1)
				}
			}
		})
		tr := sim.Record(m, env, 1+rng.Intn(300))
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkAgainstReference(t, nl, tr, nl.FFQWires(), 1)
		})
	}
}

// TestKernelMatchesScalarReferenceCores: the same on both cores' traces,
// every seventh flip-flop against the scalar fold, every flip-flop for
// OpenFrom.
func TestKernelMatchesScalarReferenceCores(t *testing.T) {
	a := avr.NewCore()
	checkAgainstReference(t, a.NL, avr.NewSystem(a, progs.AVRFib()).Record(700), a.NL.FFQWires(), 7)
	m := msp430.NewCore()
	checkAgainstReference(t, m.NL, msp430.NewSystem(m, progs.MSP430Conv()).Record(700), m.NL.FFQWires(), 7)
}

func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a, orig [64]uint64
	for i := range a {
		a[i] = rng.Uint64()
	}
	orig = a
	transpose64(&a)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			if a[j]>>uint(i)&1 != orig[i]>>uint(j)&1 {
				t.Fatalf("bit %d of row %d did not become bit %d of row %d", j, i, i, j)
			}
		}
	}
}
