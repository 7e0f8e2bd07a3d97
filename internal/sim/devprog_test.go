package sim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// plantedCircuit is a random synchronous netlist seeded with everything the
// device program compiles away or must not: hold muxes of both polarities
// on shared enables, an enabled shift chain (x is another folded
// flip-flop's Q), hold muxes whose D has a second reader (a gate, an
// output, a second flip-flop), constants and duplicates, and outputs on
// gates that are redundant. reads and writes are a random environment for
// SetEnvWrites: writes are primary inputs, reads lie outside their cone.
type plantedCircuit struct {
	nl            *netlist.Netlist
	reads, writes []netlist.WireID
	// exact lists the wires that stay exact after Settle by the rule of
	// the device program, restated here from the structure alone: every Q,
	// output, read and write, the x and en of every foldable flip-flop and
	// the D of every other one (see foldable).
	exact []netlist.WireID
}

func newPlantedCircuit(rng *rand.Rand) plantedCircuit {
	b := netlist.NewBuilder("planted")
	var pc plantedCircuit
	var pool, qs []netlist.WireID
	for i := 0; i < 3+rng.Intn(3); i++ {
		pool = append(pool, b.Input(""))
	}
	nw := 1 + rng.Intn(3)
	for i := 0; i < nw; i++ {
		pc.writes = append(pc.writes, b.Input(""))
	}
	for i := 0; i < 5+rng.Intn(10); i++ {
		qs = append(qs, b.FFPlaceholder("", rng.Intn(2) == 0, "ff"))
	}
	pool = append(pool, qs...)
	ties := []netlist.WireID{b.Gate(cell.TIE0), b.Gate(cell.TIE1)}
	if rng.Intn(2) == 0 {
		ties = append(ties, b.Gate(cell.Kind(rng.Intn(2)))) // a duplicate constant
	}
	pool = append(pool, ties...)
	kinds := []cell.Kind{cell.INV, cell.AND2, cell.OR2, cell.XOR2, cell.XNOR2, cell.MUX2, cell.MAJ3, cell.AND2, cell.MUX2, cell.NAND2}
	type gate struct {
		k  cell.Kind
		in []netlist.WireID
	}
	var made []gate
	pick := func() netlist.WireID {
		switch rng.Intn(8) {
		case 0:
			return ties[rng.Intn(len(ties))]
		default:
			return pool[rng.Intn(len(pool))]
		}
	}
	addGates := func(n int) {
		for i := 0; i < n; i++ {
			var g gate
			switch r := rng.Intn(10); {
			case r == 0 && len(made) > 0: // a structural duplicate, operands maybe swapped
				g = made[rng.Intn(len(made))]
				g.in = append([]netlist.WireID(nil), g.in...)
				if len(g.in) >= 2 && g.k != cell.MUX2 && rng.Intn(2) == 0 {
					g.in[0], g.in[1] = g.in[1], g.in[0]
				}
			default:
				g.k = kinds[rng.Intn(len(kinds))]
				for p := 0; p < cell.Lookup(g.k).NumInputs(); p++ {
					g.in = append(g.in, pick())
				}
				if r == 1 && len(g.in) >= 2 { // equal operands
					g.in[1] = g.in[0]
				}
			}
			made = append(made, g)
			out := b.Gate(g.k, g.in...)
			pool = append(pool, out)
			if rng.Intn(12) == 0 {
				b.MarkOutput(out)
			}
		}
	}
	addGates(15 + rng.Intn(20))
	// Only gates built so far are read: none depends on a written wire.
	for i := 0; i < 1+rng.Intn(3); i++ {
		pc.reads = append(pc.reads, pool[rng.Intn(len(pool))])
	}
	pool = append(pool, pc.writes...)
	addGates(10 + rng.Intn(20))
	enables := []netlist.WireID{pick(), pick(), pick()}
	var holdD []netlist.WireID
	for i, q := range qs {
		var d netlist.WireID
		switch r := rng.Intn(10); {
		case r < 6: // a hold mux
			x := pick()
			if r == 0 && i > 0 {
				x = qs[i-1] // an enabled shift chain
			}
			en := enables[rng.Intn(len(enables))]
			if rng.Intn(2) == 0 {
				d = b.Gate(cell.MUX2, q, x, en)
			} else {
				d = b.Gate(cell.MUX2, x, q, en)
			}
			holdD = append(holdD, d)
		case r == 6 && len(holdD) > 0: // a second flip-flop on a hold mux's D
			d = holdD[rng.Intn(len(holdD))]
		default: // mostly not a Q: a Q on a D makes the netlist commit staged
			d = pool[rng.Intn(len(pool))]
			for rng.Intn(5) != 0 && slices.Contains(qs, d) {
				d = pool[rng.Intn(len(pool))]
			}
		}
		b.SetFFD(q, d)
	}
	// Second readers of some hold muxes' D: a gate and an output.
	if len(holdD) > 0 {
		pool = append(pool, holdD[rng.Intn(len(holdD))])
		b.MarkOutput(holdD[rng.Intn(len(holdD))])
	}
	addGates(5 + rng.Intn(5))
	pc.nl = b.MustNetlist()

	seen := map[netlist.WireID]bool{}
	add := func(ws ...netlist.WireID) {
		for _, w := range ws {
			if !seen[w] {
				seen[w] = true
				pc.exact = append(pc.exact, w)
			}
		}
	}
	add(pc.nl.Outputs...)
	add(pc.reads...)
	add(pc.writes...)
	for _, ff := range pc.nl.FFs {
		add(ff.Q)
		if x, en, ok := pc.foldable(ff); ok {
			add(x, en)
		} else {
			add(ff.D)
		}
	}
	return pc
}

// foldable restates the fold rule at the width the test runs (<= 4): the D
// of ff is a MUX2 with ff's Q on pin A or B, nothing else reads that D (no
// gate, output, environment port or second flip-flop), x and en are no
// flip-flop's Q, and no D in the netlist is a Q.
func (pc plantedCircuit) foldable(ff netlist.FF) (x, en netlist.WireID, ok bool) {
	nl := pc.nl
	readers := map[netlist.WireID]int{}
	isQ := map[netlist.WireID]bool{}
	for _, f := range nl.FFs {
		readers[f.D]++
		isQ[f.Q] = true
	}
	for _, g := range nl.Gates {
		for _, in := range g.Inputs {
			readers[in]++
		}
	}
	for _, ws := range [][]netlist.WireID{nl.Outputs, pc.reads, pc.writes} {
		for _, w := range ws {
			readers[w]++
		}
	}
	for _, f := range nl.FFs {
		if isQ[f.D] {
			return 0, 0, false
		}
	}
	for _, g := range nl.Gates {
		if g.Output != ff.D || g.Cell.Kind != cell.MUX2 || readers[ff.D] != 1 {
			continue
		}
		switch a, b := g.Inputs[0], g.Inputs[1]; {
		case a == ff.Q:
			x = b
		case b == ff.Q:
			x = a
		default:
			return 0, 0, false
		}
		en = g.Inputs[2]
		return x, en, !isQ[x] && !isQ[en]
	}
	return 0, 0, false
}

// envFor is a lane-wise environment over a planted circuit: each written
// wire gets a mix of the read wires and a per-cycle word.
func (pc plantedCircuit) envFor(cycle *int, salt []uint64) EnvWFunc {
	return func(m *MachineW) {
		for j, w := range pc.writes {
			for g := 0; g < m.ag; g++ {
				v := salt[(*cycle*len(pc.writes)+j)%len(salt)] >> g
				for k, r := range pc.reads {
					x := m.LaneWord(r, g)
					if (j+k)%2 == 0 {
						v ^= x
					} else {
						v &= x | salt[k%len(salt)]
					}
				}
				m.SetLaneWord(w, g, v)
			}
		}
	}
}

// checkDeviceProgram runs a machine on the device program of pc and an
// unsplit oracle of the same width side by side — random upsets, lane
// compaction down to one group and back — and fails at the first exact
// wire after a Settle, Q after a commit, or ExportLane snapshot that
// differs. It returns the device program's shape.
func checkDeviceProgram(t *testing.T, pc plantedCircuit, w int, rng *rand.Rand) ProgramShape {
	t.Helper()
	m, err := NewMachineW(pc.nl, w)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := NewMachineW(pc.nl, w)
	if err := m.SetEnvWrites(pc.reads, pc.writes); err != nil {
		t.Fatalf("W=%d: %v", w, err)
	}
	if !m.split || ref.split {
		t.Fatalf("W=%d: device split %v, oracle split %v", w, m.split, ref.split)
	}
	salt := make([]uint64, 17)
	for i := range salt {
		salt[i] = rng.Uint64()
	}
	cycle := 0
	env, refEnv := pc.envFor(&cycle, salt), pc.envFor(&cycle, salt)
	dev, want := make([]uint64, m.LaneWireWords()), make([]uint64, m.LaneWireWords())
	for ; cycle < 40; cycle++ {
		switch r := rng.Intn(10); {
		case r == 0: // compact to a random lane subset
			var src []uint16
			for l := 0; l < m.ActiveLanes(); l++ {
				if rng.Intn(3) == 0 {
					src = append(src, uint16(l))
				}
			}
			if len(src) > 0 {
				m.CompactLanes(src)
				ref.CompactLanes(src)
			}
		case r == 1: // back to the full width
			st := make([]bool, len(pc.nl.FFs))
			for i := range st {
				st[i] = rng.Intn(2) == 0
			}
			m.LoadState(st)
			ref.LoadState(st)
		}
		for i := 0; i < rng.Intn(6); i++ {
			ff, lane := rng.Intn(len(pc.nl.FFs)), rng.Intn(m.ActiveLanes())
			m.FlipLane(ff, lane)
			ref.FlipLane(ff, lane)
		}
		for _, in := range pc.nl.Inputs {
			for g := 0; g < m.ag; g++ {
				v := rng.Uint64()
				m.SetLaneWord(in, g, v)
				ref.SetLaneWord(in, g, v)
			}
		}
		m.Settle(env)
		ref.Settle(refEnv)
		for _, x := range pc.exact {
			for g := 0; g < m.ag; g++ {
				if got, want := m.LaneWord(x, g), ref.LaneWord(x, g); got != want {
					t.Fatalf("W=%d ag=%d cycle %d: exact wire %s group %d is %016x after Settle, oracle %016x",
						w, m.ag, cycle, pc.nl.WireName(x), g, got, want)
				}
			}
		}
		if cycle%4 == 3 {
			lane := rng.Intn(m.ActiveLanes())
			m.ExportLane(lane, dev)
			ref.ExportLane(lane, want)
			for i := range dev {
				if dev[i] != want[i] {
					t.Fatalf("W=%d cycle %d: ExportLane(%d) word %d is %016x, oracle %016x", w, cycle, lane, i, dev[i], want[i])
				}
			}
		}
		m.CommitFFs()
		ref.CommitFFs()
		for i, ff := range pc.nl.FFs {
			for g := 0; g < m.ag; g++ {
				if got, want := m.LaneWord(ff.Q, g), ref.LaneWord(ff.Q, g); got != want {
					t.Fatalf("W=%d ag=%d cycle %d: flip-flop %d group %d is %016x after the commit, oracle %016x",
						w, m.ag, cycle, i, g, got, want)
				}
			}
		}
	}
	return m.Shape()
}

// TestDeviceProgramExact: on planted random netlists at every width up to
// four, the device program keeps every exact wire, every flip-flop and
// every ExportLane snapshot equal to an unsplit machine's, and the planted
// material is really compiled away somewhere (hold muxes folded, enable
// groups shared, redundant gates dropped).
func TestDeviceProgramExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var folded, shared, dropped int
	for i := 0; i < 60; i++ {
		pc := newPlantedCircuit(rng)
		for w := 1; w <= 4; w++ {
			s := checkDeviceProgram(t, pc, w, rng)
			folded += s.FoldedFFs
			shared += s.FoldedFFs - s.EnableGroups
			dropped += len(pc.nl.Gates) - s.FoldedFFs - s.Ops
		}
	}
	t.Logf("%d flip-flops folded (%d onto a shared enable), %d redundant gates dropped", folded, shared, dropped)
	if folded == 0 || shared == 0 || dropped == 0 {
		t.Fatalf("the planted material was not compiled away: %d folded, %d shared, %d dropped", folded, shared, dropped)
	}
}

// FuzzDeviceProgram fuzzes the same oracle over the planted netlist's seed
// and the machine width.
func FuzzDeviceProgram(f *testing.F) {
	for _, seed := range []int64{1, 42, 1 << 40} {
		f.Add(seed, uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, wRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkDeviceProgram(t, newPlantedCircuit(rng), int(wRaw)%4+1, rng)
	})
}

// TestEmptyConeStaysSplit: an environment whose written wires feed only
// folded hold muxes leaves an empty cone, and the machine is still split —
// Settle evaluates the program once, before the environment (an input the
// environment drives without declaring it is seen only on the next
// settle), and SetEnvWrites reports no cone.
func TestEmptyConeStaysSplit(t *testing.T) {
	b := netlist.NewBuilder("emptycone")
	data, en, sneak := b.Input("data"), b.Input("en"), b.Input("sneak")
	q := b.FFPlaceholder("q", false, "ff")
	b.SetFFD(q, b.Gate(cell.MUX2, q, data, en))
	out := b.GateNamed("seen", cell.INV, sneak)
	b.MarkOutput(out)
	b.MarkOutput(q)
	m, err := NewMachineW(b.MustNetlist(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetEnvWrites([]netlist.WireID{en}, []netlist.WireID{data}); err != nil {
		t.Fatal(err)
	}
	if s := m.Shape(); !m.split || s != (ProgramShape{Ops: 1, FoldedFFs: 1, EnableGroups: 1}) {
		t.Fatalf("split %v, shape %+v: want a split program of one op and one folded flip-flop", m.split, s)
	}
	m.Broadcast(en, true)
	m.Settle(EnvWFunc(func(mm *MachineW) {
		mm.Broadcast(data, true)
		mm.Broadcast(sneak, true)
	}))
	if m.LaneWord(out, 0) != ^uint64(0) {
		t.Fatal("the environment's undeclared write reached a gate in the same settle: a second pass ran")
	}
	m.CommitFFs()
	if m.LaneWord(q, 0) != ^uint64(0) || m.LaneWord(q, 1) != ^uint64(0) {
		t.Fatal("the folded flip-flop did not load its data under its enable")
	}
}
