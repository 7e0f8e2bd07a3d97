package sim

import (
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// allKindsMachine builds a width-w machine whose program holds one gate of
// every library cell plus one op of a kind outside the library, so
// every case of the unrolled kernels, the fallback span in each of them and
// the truth-table expansion under it all run.
func allKindsMachine(t *testing.T, w int, rng *rand.Rand) *MachineW {
	t.Helper()
	b := netlist.NewBuilder("kinds")
	var ins [4]netlist.WireID
	for i := range ins {
		ins[i] = b.Input("")
	}
	spare := b.Input("") // driven by the hand-made op below
	for _, c := range cell.All() {
		b.MarkOutput(b.Gate(c.Kind, ins[:c.NumInputs()]...))
	}
	m, err := NewMachineW(b.MustNetlist(), w)
	if err != nil {
		t.Fatal(err)
	}
	o := op64{kind: unknownKind, tt: rng.Uint32() & 0xFFFF, out: int32(spare) * int32(w), numPins: 4}
	for p := range o.in {
		o.in[p] = int32(ins[p]) * int32(w)
	}
	m.main = m.newProgram(append(m.main.ops, o))
	return m
}

// TestResolvedKernelsMatchGeneric pins the unrolled kernels to evalProgramN
// for every width they serve, every active-group count and every cell kind.
// For the kinds outside kernelKinds both sides are evalProgramN — what this
// checks there is that the span handed over is the right one; the
// independent oracle for those kinds is TestWidth1GenericFallback.
func TestResolvedKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, w := range []int{1, 2, 3, 4} {
		m := allKindsMachine(t, w, rng)
		kinds := map[cell.Kind]bool{}
		for _, r := range m.main.runs {
			kinds[r.kind] = true
		}
		if len(kinds) != len(cell.All())+1 {
			t.Fatalf("W=%d: program covers %d kinds, want %d", w, len(kinds), len(cell.All())+1)
		}
		if got, want := m.FallbackOps(), len(kinds)-9; got != want {
			t.Fatalf("W=%d: %d ops on the fallback, want %d (every kind but the nine of kernelKinds)", w, got, want)
		}
		for ag := 1; ag <= w; ag++ {
			for i := range m.values {
				m.values[i] = rng.Uint64()
			}
			want := append([]uint64(nil), m.values...)
			evalProgramN(m.main.ops, want, ag)
			m.main.eval(ag)
			for i, v := range m.values {
				if v != want[i] {
					t.Fatalf("W=%d ag=%d: wire %d group %d = %016x, generic kernel %016x", w, ag, i/w, i%w, v, want[i])
				}
			}
		}
	}
}

// laneBits reads the given wires in one lane of a wide machine.
func laneBits(m *MachineW, wires []netlist.WireID, lane int) []bool {
	out := make([]bool, len(wires))
	for i, w := range wires {
		out[i] = m.LaneWord(w, lane>>6)>>(uint(lane)&63)&1 == 1
	}
	return out
}

// TestLastWireView steps machines of every width whose highest wire id is
// a gate output, or a flip-flop Q, against the scalar oracle: the last
// wire's four-word view reaches past the wire array at every W below 4 and
// must land in the padding.
func TestLastWireView(t *testing.T) {
	for _, lastIsQ := range []bool{false, true} {
		b := netlist.NewBuilder("last")
		a, c := b.Input(""), b.Input("")
		x := b.Gate(cell.XOR2, a, c)
		var last netlist.WireID
		if lastIsQ {
			last = b.FF("", x, true, "ff")
		} else {
			q := b.FF("", x, false, "ff")
			last = b.Gate(cell.NAND2, q, a)
		}
		b.MarkOutput(last)
		nl := b.MustNetlist()
		if int(last) != nl.NumWires()-1 {
			t.Fatalf("wire %d is not the highest of %d", last, nl.NumWires())
		}
		for w := 1; w <= 5; w++ {
			m, err := NewMachineW(nl, w)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(w)))
			lanes := []int{0, 63, 64*w - 1, rng.Intn(64 * w)}
			refs := make([]*Machine, len(lanes))
			for i := range refs {
				refs[i] = New(nl)
			}
			for cyc := 0; cyc < 6; cyc++ {
				for _, in := range nl.Inputs {
					for g := 0; g < w; g++ {
						m.SetLaneWord(in, g, rng.Uint64())
					}
				}
				m.Settle(nil)
				for i, l := range lanes {
					refs[i].SetInputState(laneBits(m, nl.Inputs, l))
					refs[i].Settle(NopEnv)
					for wid, want := range refs[i].Values() {
						if got := laneBits(m, []netlist.WireID{netlist.WireID(wid)}, l)[0]; got != want {
							t.Fatalf("lastIsQ=%v W=%d cycle %d lane %d wire %d: %v, scalar %v", lastIsQ, w, cyc, l, wid, got, want)
						}
					}
					refs[i].CommitFFs()
				}
				m.CommitFFs()
			}
		}
	}
}

// TestDirectCommitMatchesStaged runs random circuits that qualify for the
// one-pass commit beside a twin forced onto the staged path, at every
// width and active-group count.
func TestDirectCommitMatchesStaged(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	direct := 0
	for trial := 0; trial < 24; trial++ {
		nl := randomSyncCircuit(rng)
		for w := 1; w <= 5; w++ {
			m, err := NewMachineW(nl, w)
			if err != nil {
				t.Fatal(err)
			}
			if m.ffNext != nil {
				continue // some D is a Q: covered by TestShiftRegisterCommitsStaged
			}
			direct++
			staged, _ := NewMachineW(nl, w)
			staged.holds, staged.ffNext = nil, make([]uint64, len(nl.FFs)*w)
			for ag := w; ag >= 1; ag-- {
				if ag < w {
					src := firstLanes(64*ag - rng.Intn(64))
					m.CompactLanes(src)
					staged.CompactLanes(src)
				}
				for cyc := 0; cyc < 4; cyc++ {
					for _, in := range nl.Inputs {
						for g := 0; g < ag; g++ {
							v := rng.Uint64()
							m.SetLaneWord(in, g, v)
							staged.SetLaneWord(in, g, v)
						}
					}
					m.Step(nil)
					staged.Step(nil)
					for i := range nl.FFs {
						for g := 0; g < ag; g++ {
							q := nl.FFs[i].Q
							if got, want := m.LaneWord(q, g), staged.LaneWord(q, g); got != want {
								t.Fatalf("trial %d W=%d ag=%d cycle %d FF %d group %d: direct %016x, staged %016x", trial, w, ag, cyc, i, g, got, want)
							}
						}
					}
				}
			}
			if m.Cycle != staged.Cycle {
				t.Fatalf("cycle counters diverged: %d vs %d", m.Cycle, staged.Cycle)
			}
		}
	}
	if direct == 0 {
		t.Fatal("no random circuit took the direct commit")
	}
}

// TestShiftRegisterCommitsStaged: a flip-flop fed by another's Q must see
// the pre-clock value, so the netlist has to take the staged path — and
// shift one stage per cycle, which an in-place D->Q pass would not.
func TestShiftRegisterCommitsStaged(t *testing.T) {
	b := netlist.NewBuilder("shift")
	in := b.Input("")
	q0 := b.FF("", in, false, "sr")
	q1 := b.FF("", q0, false, "sr")
	q2 := b.FF("", q1, false, "sr")
	b.MarkOutput(q2)
	nl := b.MustNetlist()
	for w := 1; w <= 5; w++ {
		m, err := NewMachineW(nl, w)
		if err != nil {
			t.Fatal(err)
		}
		if m.ffNext == nil {
			t.Fatalf("W=%d: shift register took the direct commit", w)
		}
		rng := rand.New(rand.NewSource(int64(w)))
		var hist [3][]uint64 // hist[k] = input words k+1 cycles ago
		for cyc := 0; cyc < 8; cyc++ {
			cur := make([]uint64, w)
			for g := range cur {
				cur[g] = rng.Uint64()
				m.SetLaneWord(in, g, cur[g])
			}
			m.Step(nil)
			hist[2], hist[1], hist[0] = hist[1], hist[0], cur
			for k, q := range []netlist.WireID{q0, q1, q2} {
				for g := 0; g < w && hist[k] != nil; g++ {
					if got := m.LaneWord(q, g); got != hist[k][g] {
						t.Fatalf("W=%d cycle %d stage %d group %d: %016x, want %016x", w, cyc, k, g, got, hist[k][g])
					}
				}
			}
		}
	}
}

// TestSetEnvWritesRebuildsResolvedCone: a second SetEnvWrites must split
// the whole netlist again, the resolved env cone along with the index one;
// Settle through the split then equals Settle with the full second pass.
func TestSetEnvWritesRebuildsResolvedCone(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	nl := randomSyncCircuit(rng)
	for _, w := range []int{1, 2, 3, 4} {
		m, _ := NewMachineW(nl, w)
		full, _ := NewMachineW(nl, w)
		if err := m.SetEnvWrites(nil, nl.Inputs[:1]); err != nil {
			t.Fatal(err)
		}
		first := m.Shape().ConeOps
		if err := m.SetEnvWrites(nil, nl.Inputs[1:3], nl.Inputs[4:]); err != nil {
			t.Fatal(err)
		}
		if n := len(m.main.ops) + len(m.env.ops); n != len(m.ops) {
			t.Fatalf("W=%d: the split holds %d gates, the netlist %d", w, n, len(m.ops))
		}
		if len(m.env.rops) != len(m.env.ops) || m.Shape().ConeOps == 0 {
			t.Fatalf("W=%d: resolved cone has %d ops, index cone %d", w, len(m.env.rops), len(m.env.ops))
		}
		for i := range m.env.ops {
			if m.env.rops[i].out != m.view(m.env.ops[i].out) {
				t.Fatalf("W=%d: resolved env op %d does not view its index twin's output", w, i)
			}
		}
		t.Logf("W=%d: cone %d ops after first declaration, %d after second", w, first, m.Shape().ConeOps)
		written := append(append([]netlist.WireID(nil), nl.Inputs[1:3]...), nl.Inputs[4:]...)
		for cyc := 0; cyc < 6; cyc++ {
			var words []uint64
			for range written {
				for g := 0; g < w; g++ {
					words = append(words, rng.Uint64())
				}
			}
			env := EnvWFunc(func(mm *MachineW) {
				for i, wire := range written {
					for g := 0; g < w; g++ {
						mm.SetLaneWord(wire, g, words[i*w+g])
					}
				}
			})
			for _, in := range nl.Inputs {
				for g := 0; g < w; g++ {
					v := rng.Uint64()
					m.SetLaneWord(in, g, v)
					full.SetLaneWord(in, g, v)
				}
			}
			m.Step(env)
			full.Step(env)
			for i, v := range m.values {
				if v != full.values[i] {
					t.Fatalf("W=%d cycle %d wire %d group %d: cone settle %016x, full settle %016x", w, cyc, i/w, i%w, v, full.values[i])
				}
			}
		}
	}
}
