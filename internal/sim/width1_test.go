package sim

import (
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// TestWidth1MatchesScalarRandom: a W=1 machine with all lanes driven by
// the same inputs must agree with the scalar machine on every wire, every
// cycle, for random circuits and stimuli. Additionally, lanes driven with
// per-lane inputs must each match their own scalar reference.
func TestWidth1MatchesScalarRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		nl := randomSyncCircuit(rng)
		scalar := New(nl)
		wide, err := NewMachineW(nl, 1)
		if err != nil {
			t.Fatal(err)
		}
		for cyc := 0; cyc < 32; cyc++ {
			ins := make([]bool, len(nl.Inputs))
			for i := range ins {
				ins[i] = rng.Intn(2) == 0
			}
			scalar.SetInputState(ins)
			scalar.EvalComb()
			wide.LoadInputs(ins)
			wide.EvalComb()
			for w := 0; w < nl.NumWires(); w++ {
				want := scalar.Value(netlist.WireID(w))
				lanes := wide.LaneWord(netlist.WireID(w), 0)
				if want && lanes != ^uint64(0) || !want && lanes != 0 {
					t.Fatalf("trial %d cycle %d wire %s: scalar %v lanes %016x",
						trial, cyc, nl.WireName(netlist.WireID(w)), want, lanes)
				}
			}
			scalar.CommitFFs()
			wide.CommitFFs()
		}
	}
}

// TestWidth1LaneIsolation: flipping a flip-flop in lane 5 must change
// lane 5 only; all other lanes keep tracking the scalar reference.
func TestWidth1LaneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	nl := randomSyncCircuit(rng)
	if len(nl.FFs) == 0 {
		t.Fatal("need FFs")
	}
	scalar := New(nl)
	faulty := New(nl)
	wide, err := NewMachineW(nl, 1)
	if err != nil {
		t.Fatal(err)
	}

	ins := make([]bool, len(nl.Inputs))
	for i := range ins {
		ins[i] = rng.Intn(2) == 0
	}
	scalar.SetInputState(ins)
	faulty.SetInputState(ins)
	wide.LoadInputs(ins)

	// warm up 3 cycles
	for i := 0; i < 3; i++ {
		scalar.Step(NopEnv)
		faulty.Step(NopEnv)
		wide.Step(nil)
	}
	// inject into lane 5 and the scalar "faulty" reference
	ff := rng.Intn(len(nl.FFs))
	faulty.FlipFF(ff)
	wide.FlipLane(ff, 5)

	for cyc := 0; cyc < 16; cyc++ {
		scalar.Settle(NopEnv)
		faulty.Settle(NopEnv)
		wide.Settle(nil)
		for w := 0; w < nl.NumWires(); w++ {
			lanes := wide.LaneWord(netlist.WireID(w), 0)
			for l := 0; l < 64; l++ {
				got := lanes>>uint(l)&1 == 1
				var want bool
				if l == 5 {
					want = faulty.Value(netlist.WireID(w))
				} else {
					want = scalar.Value(netlist.WireID(w))
				}
				if got != want {
					t.Fatalf("cycle %d wire %d lane %d: got %v want %v", cyc, w, l, got, want)
				}
			}
		}
		scalar.CommitFFs()
		faulty.CommitFFs()
		wide.CommitFFs()
	}
}

func TestWidth1Helpers(t *testing.T) {
	b := netlist.NewBuilder("helpers")
	in := b.Input("in")
	q := b.FF("q", in, true, "")
	out := b.Gate(cell.INV, q)
	b.MarkOutput(out)
	nl := b.MustNetlist()
	m, err := NewMachineW(nl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.LaneWord(q, 0) != ^uint64(0) {
		t.Fatal("init not broadcast")
	}
	m.Broadcast(in, true)
	if m.LaneWord(in, 0) != ^uint64(0) {
		t.Fatal("broadcast failed")
	}
	m.SetLaneWord(in, 0, 0xF0F0)
	m.EvalComb()
	bus := []netlist.WireID{in, q}
	if got := m.ReadBusLane(bus, 4); got != 0b11 {
		t.Fatalf("lane 4 bus = %b", got)
	}
	if got := m.ReadBusLane(bus, 0); got != 0b10 {
		t.Fatalf("lane 0 bus = %b", got)
	}
	m.Reset()
	if m.Cycle != 0 || m.LaneWord(in, 0) != 0 {
		t.Fatal("reset failed")
	}
}

// TestWidth1GenericFallback checks every library cell against its truth
// table (cell.Eval — an oracle that shares no code with the kernels) at
// every width with an unrolled kernel and every active-group count, three
// ways: through the kernel that serves the cell's kind — its own case for
// the nine kernelKinds, the evalProgramN span for the rest — and through a
// twin op of unknown kind, which only the truth-table expansion can serve.
func TestWidth1GenericFallback(t *testing.T) {
	for w := 1; w <= 4; w++ {
		for ag := 1; ag <= w; ag++ {
			for _, c := range cell.All() {
				n := c.NumInputs()
				b := netlist.NewBuilder("gen")
				ins := make([]netlist.WireID, n)
				for i := range ins {
					ins[i] = b.Input("")
				}
				twinOut := b.Input("") // driven by the unknown-kind twin
				out := b.Gate(c.Kind, ins...)
				b.MarkOutput(out)
				m, err := NewMachineW(b.MustNetlist(), w)
				if err != nil {
					t.Fatal(err)
				}
				twin := m.main.ops[0]
				twin.kind, twin.out = unknownKind, int32(twinOut)*int32(w)
				m.main = m.newProgram(append(m.main.ops, twin))
				onFallback := 2 // the cell and its twin
				if kernelKinds>>c.Kind&1 == 1 {
					onFallback = 1
				}
				if got := m.FallbackOps(); got != onFallback {
					t.Fatalf("%s: %d ops on the fallback, want %d", c.Name, got, onFallback)
				}
				// Lane l of group g sees input pattern l+5g (mod 2^n), so
				// a kernel that mixes groups up is caught.
				pattern := func(g, l int) uint32 { return uint32(l+5*g) & (1<<uint(n) - 1) }
				for g := 0; g < w; g++ {
					for p := 0; p < n; p++ {
						var plane uint64
						for l := 0; l < 64; l++ {
							plane |= uint64(pattern(g, l)>>uint(p)&1) << uint(l)
						}
						m.SetLaneWord(ins[p], g, plane)
					}
					m.SetLaneWord(out, g, 0x5555_5555_5555_5555)
					m.SetLaneWord(twinOut, g, 0x5555_5555_5555_5555)
				}
				m.main.eval(ag)
				for g := 0; g < w; g++ {
					var want uint64 = 0x5555_5555_5555_5555 // groups >= ag stay untouched
					if g < ag {
						want = 0
						for l := 0; l < 64; l++ {
							if c.Eval(pattern(g, l)) {
								want |= 1 << uint(l)
							}
						}
					}
					if got := m.LaneWord(out, g); got != want {
						t.Errorf("W=%d ag=%d %s group %d: kernel %016x, truth table %016x", w, ag, c.Name, g, got, want)
					}
					if got := m.LaneWord(twinOut, g); got != want {
						t.Errorf("W=%d ag=%d %s group %d: truth-table op %016x, truth table %016x", w, ag, c.Name, g, got, want)
					}
				}
			}
		}
	}
}

// unknownKind is a cell kind neither a kernel nor cell.Kind.EvalWords has a case for.
const unknownKind = cell.Kind(255)

// randomSyncCircuit builds a random synchronous circuit (shared with the
// scalar tests' style).
func randomSyncCircuit(rng *rand.Rand) *netlist.Netlist {
	b := netlist.NewBuilder("rand64")
	var pool []netlist.WireID
	for i := 0; i < 5; i++ {
		pool = append(pool, b.Input(""))
	}
	var qs []netlist.WireID
	for i := 0; i < 6; i++ {
		q := b.FFPlaceholder("", rng.Intn(2) == 0, "ff")
		pool = append(pool, q)
		qs = append(qs, q)
	}
	kinds := []cell.Kind{
		cell.BUF, cell.INV, cell.AND2, cell.NAND2, cell.OR2, cell.NOR2,
		cell.XOR2, cell.XNOR2, cell.MUX2, cell.AOI21, cell.OAI21, cell.MAJ3,
		cell.AND3, cell.OR4, cell.AOI22, cell.OAI22, cell.NAND4, cell.NOR3,
	}
	for i := 0; i < 60; i++ {
		k := kinds[rng.Intn(len(kinds))]
		c := cell.Lookup(k)
		inputs := make([]netlist.WireID, c.NumInputs())
		for p := range inputs {
			inputs[p] = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, b.Gate(k, inputs...))
	}
	for _, q := range qs {
		b.SetFFD(q, pool[rng.Intn(len(pool))])
	}
	b.MarkOutput(pool[len(pool)-1])
	return b.MustNetlist()
}
