package sim

import (
	"fmt"
	"sort"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// MachineW is the lane-parallel gate-level simulator: every wire carries W
// uint64 lane words whose bit l is the wire's value in lane 64g+l, so one
// combinational pass advances 64·W circuit instances — the classic
// parallel fault-simulation technique, playing the role of the paper's
// hardware parallelism ("one FI controller distributes the FI campaign
// over several FPGAs"). All lanes share the netlist; they diverge only
// through per-lane state (flip-flops, primary inputs) — exactly what a
// fault injection needs. W=1 (64 lanes) is a width like any other; the
// campaign front-ends run W=4 (256 lanes) by default.
//
// Layout: values is wire-major with stride W — values[int(w)*W+g] is lane
// group g (lanes 64g..64g+63) of wire w. A program (the netlist outside
// the cone behind the environment's writes, and that cone) holds each of
// its gates twice: as an op64 whose indices are pre-scaled by W, and
// resolved to pointers into values taken once at construction, so the
// unrolled kernels read o.in[0][g] with no index arithmetic and no bounds
// check per cycle.
//
// The kernels are unrolled per active group count (evalProgram,
// evalProgram2/3/4) and have a case for the nine cell kinds a device
// netlist contains — what internal/synth builds both cores from: TIE0,
// TIE1, INV, AND2, OR2, XOR2, XNOR2, MUX2, MAJ3. A span of any other kind
// is handed to evalProgramN, the reference kernel over the index program;
// it evaluates every library kind by its word formula in
// cell.Kind.EvalWords, and any other kind by its truth table.
// FallbackOps counts the ops served that way: 0 on both cores.
//
// Width parameterization is deliberately NOT done with Go generics: a
// type parameter cannot range over array lengths ([1]uint64|[4]uint64 has
// no core type, so elements cannot be indexed), and GCshape dictionaries
// would put an indirect call in the hottest loop of the repository. The
// stride-W layout with a hand-unrolled W=4 kernel benchmarks cleaner.
type MachineW struct {
	NL    *netlist.Netlist
	W     int
	Cycle int
	// values is never reallocated after construction: both programs and
	// ffPairs point into it. Its capacity exceeds its length by one view
	// (4 words) so the last wire's *[4]uint64 view is in range at any W.
	values []uint64

	// ag is the number of active lane groups (1 <= ag <= W). CompactLanes
	// shrinks it after packing live lanes into the low groups; Reset and
	// LoadState restore the full width. The dense kernels, flip-flop
	// commit and bus transposes only touch groups < ag, which is what
	// makes a batch whose lanes have mostly retired cheap to finish.
	// live is the number of lanes that carry an experiment (lanes
	// 0..live-1): the lanes CompactLanes kept, or all of them.
	ag, live int

	cscratch []uint64 // CompactLanes per-wire staging, len W

	ops  []op64  // every gate, level-major and kind-minor
	main program // ops outside env: every gate until SetEnvWrites splits them
	env  program // the gates downstream of env-written wires (SetEnvWrites)

	ffD, ffQ   []int32 // unscaled wire ids (golden-row lookups)
	ffDs, ffQs []int32 // pre-scaled (wire*W)
	// Exactly one of the two is non-nil: ffNext (len FFs*W) stages the
	// commit when some D wire is another flip-flop's Q, ffPairs holds the
	// resolved D->Q copies when none is.
	ffNext  []uint64
	ffPairs []ffPair

	// Cluster-loop scratch of LookupBus and AccessRAM (len W each) and
	// LookupBus's back-off counter.
	unserved, same, sub []uint64
	lookupSkip          int
}

// DeltaState is what is left of the cone-delta evaluator: an empty type
// that bench/trace.go names in hafi.DeltaRunW's InitDelta. It is deleted
// with that interface.
type DeltaState struct{}

// op64 is one gate in the flattened bitwise evaluation program. In a
// width-W program the out/in indices are pre-scaled by W.
type op64 struct {
	kind    cell.Kind
	tt      uint32
	out     int32
	in      [4]int32
	numPins int8
	level   int32
}

// opRun is a contiguous span of same-kind ops in an evaluation program.
type opRun struct {
	kind       cell.Kind
	start, end int32
}

// opR is one gate of the resolved program: the operands of ops[i] as
// views into values. Pins beyond the cell's input count are nil. The
// views are four words at every width; a kernel touches only words < ag.
type opR struct {
	out *[4]uint64
	in  [4]*[4]uint64
}

// program is an ordered gate list bound to the values it evaluates, in the
// three forms evaluation reads: the index ops (the fallback kernel,
// SetEnvWrites), their resolved twins (the unrolled kernels) and the
// same-kind spans the kernels dispatch on. The kernels take the program and
// nothing else: with values passed beside it the compiler kept the slice
// header live across every span loop and spilled inside them.
type program struct {
	values []uint64
	ops    []op64
	rops   []opR
	runs   []opRun
}

// ffPair is one flip-flop of the direct commit.
type ffPair struct{ d, q *[4]uint64 }

// view returns the four lane words starting at a pre-scaled wire index.
func (m *MachineW) view(i int32) *[4]uint64 { return (*[4]uint64)(m.values[i : i+4]) }

// newProgram resolves an ordered op list against values and splits it into
// same-kind spans. In-span order follows the (level, kind) sort, so a span
// may cross a level boundary and still respect dependencies.
func (m *MachineW) newProgram(ops []op64) program {
	p := program{values: m.values, ops: ops, rops: make([]opR, len(ops))}
	for i := range ops {
		o := &ops[i]
		p.rops[i].out = m.view(o.out)
		for pin := 0; pin < int(o.numPins); pin++ {
			p.rops[i].in[pin] = m.view(o.in[pin])
		}
	}
	for i := 0; i < len(ops); {
		j := i + 1
		for j < len(ops) && ops[j].kind == ops[i].kind {
			j++
		}
		p.runs = append(p.runs, opRun{kind: ops[i].kind, start: int32(i), end: int32(j)})
		i = j
	}
	return p
}

// NewMachineW creates a 64·W-lane machine and resets it. w must be >= 1.
func NewMachineW(nl *netlist.Netlist, w int) (*MachineW, error) {
	if w < 1 {
		return nil, fmt.Errorf("sim: machine width %d out of range (want >= 1)", w)
	}
	nv := nl.NumWires() * w
	m := &MachineW{NL: nl, W: w, values: make([]uint64, nv+4)[:nv], cscratch: make([]uint64, w),
		unserved: make([]uint64, w), same: make([]uint64, w), sub: make([]uint64, w)}
	level := make([]int32, nl.NumWires())
	var ops []op64
	for _, gi := range nl.EvalOrder() {
		g := &nl.Gates[gi]
		if g.Cell.NumInputs() > 4 {
			return nil, fmt.Errorf("sim: cell %s has more than 4 inputs; not supported by the lane-parallel evaluator", g.Cell.Name)
		}
		o := op64{kind: g.Cell.Kind, tt: g.Cell.TruthTable(), out: int32(g.Output), numPins: int8(len(g.Inputs))}
		for p, w := range g.Inputs {
			o.in[p] = int32(w)
			if level[w] >= o.level {
				o.level = level[w] + 1
			}
		}
		level[g.Output] = o.level
		ops = append(ops, o)
	}
	// Level-major, kind-minor order: equal-level gates are independent, so
	// grouping them by kind is a legal reordering of the topological sort.
	sort.SliceStable(ops, func(a, b int) bool {
		if ops[a].level != ops[b].level {
			return ops[a].level < ops[b].level
		}
		return ops[a].kind < ops[b].kind
	})
	// Pre-scale the program indices by the machine width.
	for i := range ops {
		o := &ops[i]
		o.out *= int32(w)
		for p := 0; p < int(o.numPins); p++ {
			o.in[p] *= int32(w)
		}
	}
	m.ops, m.main = ops, m.newProgram(ops)
	m.ffD = make([]int32, len(nl.FFs))
	m.ffQ = make([]int32, len(nl.FFs))
	m.ffDs = make([]int32, len(nl.FFs))
	m.ffQs = make([]int32, len(nl.FFs))
	for i := range nl.FFs {
		m.ffD[i] = int32(nl.FFs[i].D)
		m.ffQ[i] = int32(nl.FFs[i].Q)
		m.ffDs[i] = int32(nl.FFs[i].D) * int32(w)
		m.ffQs[i] = int32(nl.FFs[i].Q) * int32(w)
	}
	// A flip-flop whose D wire is another's Q (a shift register) must see
	// the pre-clock value, so such netlists commit through ffNext; every
	// other netlist, both CPU cores included, copies D to Q in one pass.
	isQ := make([]bool, nl.NumWires())
	for _, q := range m.ffQ {
		isQ[q] = true
	}
	direct := true
	for _, d := range m.ffD {
		direct = direct && !isQ[d]
	}
	if direct {
		m.ffPairs = make([]ffPair, len(nl.FFs))
		for i := range m.ffPairs {
			m.ffPairs[i] = ffPair{d: m.view(m.ffDs[i]), q: m.view(m.ffQs[i])}
		}
	} else {
		m.ffNext = make([]uint64, len(nl.FFs)*w)
	}
	m.Reset()
	return m, nil
}

// NumLanes returns the total lane count (64·W).
func (m *MachineW) NumLanes() int { return 64 * m.W }

// ActiveGroups returns the number of live lane groups (W until CompactLanes
// shrinks it; Reset/LoadState restore the full width).
func (m *MachineW) ActiveGroups() int { return m.ag }

// ActiveLanes returns the number of simulated lanes (64·ActiveGroups).
func (m *MachineW) ActiveLanes() int { return 64 * m.ag }

// LiveLanes returns the number of lanes that carry an experiment: the
// count CompactLanes last packed, or every lane after Reset/LoadState.
// Lanes from LiveLanes() up to ActiveLanes() are simulated but dead.
func (m *MachineW) LiveLanes() int { return m.live }

// CompactLanes packs the listed source lanes into lanes 0..len(src)-1 (in
// order) and shrinks the active group count to cover them — the
// sparse-lane primitive that lets a wide batch stop simulating lanes whose
// experiments have finished. src must be strictly increasing (so the
// in-place pack never overwrites a lane it still has to read) and
// non-empty; lanes beyond the new active range hold garbage until the next
// Reset/LoadState restores the full width.
func (m *MachineW) CompactLanes(src []uint16) {
	n := len(src)
	if n == 0 || n > m.ActiveLanes() {
		panic("sim: CompactLanes lane list out of range")
	}
	w := m.W
	newAG := (n + 63) >> 6
	sc := m.cscratch
	for base := 0; base < len(m.values); base += w {
		vals := m.values[base : base+w]
		for g := 0; g < newAG; g++ {
			sc[g] = 0
		}
		for i, s := range src {
			sc[i>>6] |= vals[s>>6] >> (s & 63) & 1 << (uint(i) & 63)
		}
		copy(vals[:newAG], sc[:newAG])
	}
	m.ag, m.live, m.lookupSkip = newAG, n, 0
}

// LaneWireWords returns the length of an ExportLane snapshot: the wire
// count packed one bit per wire.
func (m *MachineW) LaneWireWords() int { return (m.NL.NumWires() + 63) / 64 }

// ExportLane copies one lane's complete wire state (flip-flops, primary
// inputs and settled combinational values alike) into dst, one bit per
// wire (len(dst) >= LaneWireWords()) — the Trace.Row format, which is how
// the wide golden recording takes its trace rows.
func (m *MachineW) ExportLane(lane int, dst []uint64) {
	w, g, sh := m.W, lane>>6, uint(lane)&63
	nw := m.NL.NumWires()
	for i := 0; i < (nw+63)/64; i++ {
		dst[i] = 0
	}
	for wi := 0; wi < nw; wi++ {
		dst[wi>>6] |= m.values[wi*w+g] >> sh & 1 << (uint(wi) & 63)
	}
}

// reviveLane is the contract of the one-lane load: the lane lies inside the
// active groups, and one CompactLanes left dead carries an experiment again
// afterwards (the memory environment serves lanes below LiveLanes() only).
func (m *MachineW) reviveLane(lane int) {
	if lane < 0 || lane >= m.ActiveLanes() {
		panic("sim: one-lane load outside the active groups")
	}
	m.live = max(m.live, lane+1)
}

// LoadStateLane is LoadState plus LoadInputs restricted to one lane: the
// lane's flip-flops and primary inputs take the scalar snapshot, every other
// lane and the active width stay as they are (see reviveLane). The campaign
// scheduler uses it to hand a lane whose experiment ended off the golden run
// the golden checkpoint of the cycle its device has reached.
func (m *MachineW) LoadStateLane(lane int, ffs, inputs []bool) {
	m.reviveLane(lane)
	g := lane >> 6
	bit := uint64(1) << (uint(lane) & 63)
	for i, v := range ffs {
		m.setLaneBit(int(m.ffQs[i])+g, bit, v)
	}
	for i, w := range m.NL.Inputs {
		m.setLaneBit(int(w)*m.W+g, bit, inputs[i])
	}
}

func (m *MachineW) setLaneBit(i int, bit uint64, v bool) {
	if v {
		m.values[i] |= bit
	} else {
		m.values[i] &^= bit
	}
}

// FFStateLane snapshots one lane's stored flip-flop state in the scalar
// Machine.FFState format (index i = flip-flop i).
func (m *MachineW) FFStateLane(lane int) []bool {
	s := make([]bool, len(m.ffQs))
	g := lane >> 6
	bit := uint64(1) << (uint(lane) & 63)
	for i := range s {
		s[i] = m.values[int(m.ffQs[i])+g]&bit != 0
	}
	return s
}

// InputStateLane snapshots one lane's primary-input values in the scalar
// Machine.InputState format (index i = NL.Inputs[i]).
func (m *MachineW) InputStateLane(lane int) []bool {
	s := make([]bool, len(m.NL.Inputs))
	g := lane >> 6
	bit := uint64(1) << (uint(lane) & 63)
	for i, w := range m.NL.Inputs {
		s[i] = m.values[int(w)*m.W+g]&bit != 0
	}
	return s
}

// Reset initialises every lane with the flip-flop reset state.
func (m *MachineW) Reset() {
	m.ag, m.live, m.lookupSkip = m.W, 64*m.W, 0
	for i := range m.values {
		m.values[i] = 0
	}
	for i := range m.NL.FFs {
		if m.NL.FFs[i].Init {
			base := int(m.ffQs[i])
			for g := 0; g < m.W; g++ {
				m.values[base+g] = ^uint64(0)
			}
		}
	}
	m.Cycle = 0
}

// LaneWord returns lane group g of a wire (bit l = lane 64g+l).
func (m *MachineW) LaneWord(w netlist.WireID, g int) uint64 { return m.values[int(w)*m.W+g] }

// SetLaneWord drives lane group g of a wire.
func (m *MachineW) SetLaneWord(w netlist.WireID, g int, v uint64) { m.values[int(w)*m.W+g] = v }

// Broadcast drives a wire to the same value in every lane.
func (m *MachineW) Broadcast(w netlist.WireID, v bool) {
	var x uint64
	if v {
		x = ^uint64(0)
	}
	base := int(w) * m.W
	for g := 0; g < m.W; g++ {
		m.values[base+g] = x
	}
}

// FlipLane flips the stored value of flip-flop ffIndex in one lane only —
// the lane-parallel SEU injection primitive. lane ranges over [0, 64·W).
func (m *MachineW) FlipLane(ffIndex, lane int) {
	m.values[int(m.ffQs[ffIndex])+lane>>6] ^= 1 << (uint(lane) & 63)
}

// FFLane reads the stored value of flip-flop ffIndex in one lane.
func (m *MachineW) FFLane(ffIndex, lane int) bool {
	return m.values[int(m.ffQs[ffIndex])+lane>>6]>>(uint(lane)&63)&1 == 1
}

// LoadState broadcasts a scalar flip-flop snapshot (from Machine.FFState)
// into every lane and restores the full lane width after a CompactLanes.
func (m *MachineW) LoadState(ffs []bool) {
	m.ag, m.live, m.lookupSkip = m.W, 64*m.W, 0
	for i, v := range ffs {
		var x uint64
		if v {
			x = ^uint64(0)
		}
		base := int(m.ffQs[i])
		for g := 0; g < m.W; g++ {
			m.values[base+g] = x
		}
	}
}

// LoadInputs broadcasts scalar primary-input values into every lane.
func (m *MachineW) LoadInputs(ins []bool) {
	for i, w := range m.NL.Inputs {
		m.Broadcast(w, ins[i])
	}
}

// EvalComb evaluates all gates once across the active lane groups: the
// gates outside the environment's cone, then the cone.
func (m *MachineW) EvalComb() {
	m.main.eval(m.ag)
	m.env.eval(m.ag)
}

// SetEnvWrites declares the complete set of wires the lane environment may
// drive (writes) and the wires it reads. It splits the netlist into the
// cone of gates downstream of the written wires and the rest: Settle
// evaluates the rest, calls the environment, then evaluates the cone, so
// each gate once. That is exact only if the environment reads no wire of
// the cone; if it does, SetEnvWrites returns an error naming the wire and
// leaves the netlist unsplit, as it is when SetEnvWrites is never called
// (Settle then runs a second full pass). An incomplete write list yields
// stale simulations.
func (m *MachineW) SetEnvWrites(reads []netlist.WireID, writes ...[]netlist.WireID) error {
	// inCone is indexed by the pre-scaled wire index (wire*W), matching the
	// op program, so the same code serves every width.
	inCone := make([]bool, m.NL.NumWires()*m.W)
	for _, ws := range writes {
		for _, w := range ws {
			inCone[int(w)*m.W] = true
		}
	}
	var rest, cone []op64
	for _, o := range m.ops {
		in := false
		for p := 0; p < int(o.numPins); p++ {
			in = in || inCone[o.in[p]]
		}
		if in {
			inCone[o.out] = true
			cone = append(cone, o)
		} else {
			rest = append(rest, o)
		}
	}
	for _, w := range reads {
		if inCone[int(w)*m.W] {
			m.main, m.env = m.newProgram(m.ops), program{}
			return fmt.Errorf("sim: the environment reads wire %s, which depends on a wire it drives", m.NL.WireName(w))
		}
	}
	m.main, m.env = m.newProgram(rest), m.newProgram(cone)
	return nil
}

// EnvConeSize reports how many gates Settle evaluates after the
// environment (0 when SetEnvWrites has not split the netlist).
func (m *MachineW) EnvConeSize() int { return len(m.env.ops) }

// FallbackOps reports how many gates of the netlist are of a kind the
// unrolled kernels have no case for and run through evalProgramN instead:
// 0 for every device the repository builds.
func (m *MachineW) FallbackOps() int {
	n := 0
	for _, p := range []*program{&m.main, &m.env} {
		for _, r := range p.runs {
			if kernelKinds>>r.kind&1 == 0 {
				n += int(r.end - r.start)
			}
		}
	}
	return n
}

// FirstDivergedFF returns the index of the first flip-flop from index from
// on in which one lane differs from a packed golden wire row, or -1 when
// there is none — from 0, the convergence test, fused with finding the
// campaign scheduler's next watched flip-flop.
func (m *MachineW) FirstDivergedFF(lane int, goldenRow []uint64, from int) int {
	g, sh := lane>>6, uint(lane)&63
	for i, q := range m.ffQ[from:] {
		gb := goldenRow[q>>6] >> (uint(q) & 63) & 1
		if m.values[int(m.ffQs[from+i])+g]>>sh&1 != gb {
			return from + i
		}
	}
	return -1
}

// CommitFFs clocks every flip-flop in the active lanes: one D->Q pass
// through the resolved pairs, or — when the netlist has a flip-flop fed by
// another flip-flop's Q, decided at construction — staged through ffNext.
func (m *MachineW) CommitFFs() {
	m.Cycle++
	if m.ffPairs == nil {
		nx, v, w, ag := m.ffNext, m.values, m.W, m.ag
		for i, d := range m.ffDs {
			copy(nx[i*w:i*w+ag], v[d:int(d)+ag])
		}
		for i, q := range m.ffQs {
			copy(v[q:int(q)+ag], nx[i*w:i*w+ag])
		}
		return
	}
	// Unrolled per active-group count: copy() spends its time in memmove
	// call overhead at these tiny lengths.
	switch pairs := m.ffPairs; m.ag {
	case 1:
		for i := range pairs {
			pairs[i].q[0] = pairs[i].d[0]
		}
	case 2:
		for i := range pairs {
			d, q := pairs[i].d, pairs[i].q
			q[0], q[1] = d[0], d[1]
		}
	case 3:
		for i := range pairs {
			d, q := pairs[i].d, pairs[i].q
			q[0], q[1], q[2] = d[0], d[1], d[2]
		}
	case 4:
		for i := range pairs {
			d, q := pairs[i].d, pairs[i].q
			q[0], q[1], q[2], q[3] = d[0], d[1], d[2], d[3]
		}
	default:
		v, ag := m.values, m.ag
		for i, d := range m.ffDs {
			q := int(m.ffQs[i])
			copy(v[q:q+ag], v[d:int(d)+ag])
		}
	}
}

// EnvW services the environment of all 64·W lanes between the two
// evaluation passes (per-lane memories, per-lane read data).
type EnvW interface {
	SetInputsW(m *MachineW)
}

// EnvWFunc adapts a function to EnvW.
type EnvWFunc func(m *MachineW)

// SetInputsW implements EnvW.
func (f EnvWFunc) SetInputsW(m *MachineW) { f(m) }

// Settle evaluates the combinational logic around the lane environment.
// When SetEnvWrites has split the netlist, that is the gates outside the
// environment's cone, the environment, then the cone: each gate once.
// Otherwise it is a full pass, the environment and a second full pass.
func (m *MachineW) Settle(env EnvW) {
	m.main.eval(m.ag)
	if env != nil {
		env.SetInputsW(m)
		if m.env.ops == nil {
			m.main.eval(m.ag)
		}
	}
	m.env.eval(m.ag)
}

// Step advances one clock cycle in all lanes.
func (m *MachineW) Step(env EnvW) {
	m.Settle(env)
	m.CommitFFs()
}

// ReadBusLane assembles the value of a bus in one lane (lane < 64·W).
func (m *MachineW) ReadBusLane(bus []netlist.WireID, lane int) uint64 {
	var v uint64
	g := lane >> 6
	bit := uint64(1) << (uint(lane) & 63)
	for i, w := range bus {
		if m.values[int(w)*m.W+g]&bit != 0 {
			v |= 1 << uint(i)
		}
	}
	return v
}

// kernelKinds is the set of cell kinds every unrolled kernel has a case
// for, one bit per kind: the nine internal/synth builds the cores from.
const kernelKinds uint64 = 1<<cell.TIE0 | 1<<cell.TIE1 | 1<<cell.INV | 1<<cell.AND2 | 1<<cell.OR2 |
	1<<cell.XOR2 | 1<<cell.XNOR2 | 1<<cell.MUX2 | 1<<cell.MAJ3

// eval runs the program once over ag lane groups: a hand-unrolled kernel
// for one to four groups, the reference kernel beyond. After lane
// compaction a draining device walks down this ladder.
func (p *program) eval(ag int) {
	switch ag {
	case 1:
		evalProgram(p)
	case 2:
		evalProgram2(p)
	case 3:
		evalProgram3(p)
	case 4:
		evalProgram4(p)
	default:
		evalProgramN(p.ops, p.values, ag)
	}
}

// evalProgramN is the reference kernel: any op list, any group count, one
// kind switch per op per group. The unrolled kernels hand it the spans they
// have no case for, and widths beyond four groups run on it whole.
func evalProgramN(ops []op64, v []uint64, ag int) {
	for i := range ops {
		o := &ops[i]
		for g := int32(0); g < int32(ag); g++ {
			var in [4]uint64
			for p := 0; p < int(o.numPins); p++ {
				in[p] = v[o.in[p]+g]
			}
			out, ok := o.kind.EvalWords(&in)
			if !ok {
				out = evalTruthTable(o, &in)
			}
			v[o.out+g] = out
		}
	}
}

// evalTruthTable evaluates an op of a kind outside the cell library, which
// has no word formula, by Shannon expansion over its truth table.
func evalTruthTable(o *op64, in *[4]uint64) uint64 {
	var out uint64
	n := int(o.numPins)
	for minterm := 0; minterm < 1<<n; minterm++ {
		if o.tt>>uint(minterm)&1 == 0 {
			continue
		}
		term := ^uint64(0)
		for p := 0; p < n; p++ {
			if minterm>>uint(p)&1 == 1 {
				term &= in[p]
			} else {
				term &= ^in[p]
			}
		}
		out |= term
	}
	return out
}

// evalProgram4 is the hand-unrolled four-group (256-lane) kernel: one
// switch dispatch per span, then a tight loop of pointer loads,
// constant-index word ops and stores over the resolved ops. (The per-cycle
// slice->array view the resolved operands replace cost two bounds checks
// and a pointer mask per operand — 14 % of an AVR campaign's CPU time.)
// evalProgram, evalProgram2 and evalProgram3 (kernels_narrow.go) are the
// same body at fewer words.
func evalProgram4(p *program) {
	for _, r := range p.runs {
		seg := p.rops[r.start:r.end]
		switch r.kind {
		case cell.TIE0:
			for i := range seg {
				d := seg[i].out
				d[0], d[1], d[2], d[3] = 0, 0, 0, 0
			}
		case cell.TIE1:
			for i := range seg {
				d := seg[i].out
				d[0], d[1], d[2], d[3] = ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
			}
		case cell.INV:
			for i := range seg {
				o := &seg[i]
				a, d := o.in[0], o.out
				d[0], d[1], d[2], d[3] = ^a[0], ^a[1], ^a[2], ^a[3]
			}
		case cell.AND2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0], d[1], d[2], d[3] = a[0]&b[0], a[1]&b[1], a[2]&b[2], a[3]&b[3]
			}
		case cell.OR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0], d[1], d[2], d[3] = a[0]|b[0], a[1]|b[1], a[2]|b[2], a[3]|b[3]
			}
		case cell.XOR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0], d[1], d[2], d[3] = a[0]^b[0], a[1]^b[1], a[2]^b[2], a[3]^b[3]
			}
		case cell.XNOR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0], d[1], d[2], d[3] = ^(a[0] ^ b[0]), ^(a[1] ^ b[1]), ^(a[2] ^ b[2]), ^(a[3] ^ b[3])
			}
		case cell.MUX2:
			// a ^ (s & (a^b)): one op fewer than (^s&a)|(s&b), and MUX2 is
			// the most common cell on both cores.
			for i := range seg {
				o := &seg[i]
				a, b, s, d := o.in[0], o.in[1], o.in[2], o.out
				d[0] = a[0] ^ (s[0] & (a[0] ^ b[0]))
				d[1] = a[1] ^ (s[1] & (a[1] ^ b[1]))
				d[2] = a[2] ^ (s[2] & (a[2] ^ b[2]))
				d[3] = a[3] ^ (s[3] & (a[3] ^ b[3]))
			}
		case cell.MAJ3:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := o.in[0], o.in[1], o.in[2], o.out
				d[0] = (a[0] & b[0]) | (a[0] & c[0]) | (b[0] & c[0])
				d[1] = (a[1] & b[1]) | (a[1] & c[1]) | (b[1] & c[1])
				d[2] = (a[2] & b[2]) | (a[2] & c[2]) | (b[2] & c[2])
				d[3] = (a[3] & b[3]) | (a[3] & c[3]) | (b[3] & c[3])
			}
		default:
			evalProgramN(p.ops[r.start:r.end], p.values, 4)
		}
	}
}
