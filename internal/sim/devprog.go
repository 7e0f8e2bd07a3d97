package sim

import (
	"fmt"
	"slices"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// holdGroup is the folded flip-flops that share one enable: each loads its
// x (ffPair.d) where en, XOR-ed with inv, is set.
type holdGroup struct {
	en  *[4]uint64
	inv uint64
	ffs []ffPair
}

// allOnes is the enable of the group that copies D->Q; it is never written.
var allOnes = [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}

// hold is a folded flip-flop while the program is compiled: unscaled wire
// ids, sel = 2·en, plus 1 when Q sits on pin B (the enable inverted).
type hold struct{ ff, x, sel int32 }

// ProgramShape is the size of what a device runs per step.
type ProgramShape struct {
	Ops          int // gates Settle evaluates, the cone included
	ConeOps      int // of those, the gates evaluated after the environment
	FoldedFFs    int // flip-flops the commit loads through their enable
	EnableGroups int // distinct (enable, polarity) pairs among them
}

// Shape reports the size of the program Settle and CommitFFs run: the whole
// netlist and a D->Q copy per flip-flop until SetEnvWrites compiles the
// device program.
func (m *MachineW) Shape() ProgramShape {
	s := ProgramShape{Ops: len(m.main.ops) + len(m.env.ops), ConeOps: len(m.env.ops)}
	for _, h := range m.holds {
		if h.en != &allOnes {
			s.FoldedFFs, s.EnableGroups = s.FoldedFFs+len(h.ffs), s.EnableGroups+1
		}
	}
	return s
}

// SetEnvWrites declares the complete set of wires the lane environment may
// drive (writes) and the wires it reads, and compiles the device program:
// the netlist less what nothing outside it reads. The outside readers, the
// only wires exact after Settle (ExportLane still returns every wire), are
// every Q, the D of every flip-flop not folded, the x and en of every one
// that is, the primary outputs and the environment's reads and writes. A
// flip-flop whose D is MUX2(Q, x, en) is folded into the commit
// (foldHolds); a gate whose value another wire carries gives way to it
// (dropRedundant). The program is split into the cone of gates downstream
// of the written wires and the rest: Settle evaluates the rest, calls the
// environment, then evaluates the cone, so each gate once, also when the
// cone is empty. That is exact only if the environment reads no wire of
// the cone; if it does, SetEnvWrites returns an error naming the wire and
// leaves the whole netlist unsplit, as it is when SetEnvWrites is never
// called (Settle then runs a second full pass). An incomplete write list
// yields stale simulations.
func (m *MachineW) SetEnvWrites(reads []netlist.WireID, writes ...[]netlist.WireID) error {
	n := m.NL.NumWires()
	outside, inCone := make([]bool, n), make([]bool, n)
	for _, ws := range writes {
		for _, w := range ws {
			outside[w], inCone[w] = true, true
		}
	}
	for _, ws := range [][]netlist.WireID{reads, m.NL.Outputs} {
		for _, w := range ws {
			outside[w] = true
		}
	}
	for _, q := range m.ffQ {
		outside[q] = true
	}
	holds, folded := m.foldHolds(outside)
	w := int32(m.W)
	var rest, cone []op64
	for _, o := range m.dropRedundant(outside, folded) {
		in := false
		for p := 0; p < int(o.numPins); p++ {
			in = in || inCone[o.in[p]/w]
		}
		if in {
			inCone[o.out/w] = true
			cone = append(cone, o)
		} else {
			rest = append(rest, o)
		}
	}
	for _, r := range reads {
		if inCone[r] {
			m.main, m.env, m.split = m.full, program{}, false
			m.setCommit(nil)
			return fmt.Errorf("sim: the environment reads wire %s, which depends on a wire it drives", m.NL.WireName(r))
		}
	}
	m.main, m.env, m.split = m.newProgram(rest), m.newProgram(cone), true
	m.setCommit(holds)
	return nil
}

// foldHolds picks the flip-flops whose hold mux the commit absorbs (folded
// is indexed like m.ops): it applies Q ^= en & (Q ^ x), en inverted when Q
// sits on pin B, and skips a group whose enable is zero in every active
// lane group. A fold needs a D nothing else reads, an x and en that are no
// Q (so the order of the commit cannot matter), a netlist that commits
// directly and a width the four-word views cover. The x and en of a fold
// and every other D join the outside readers.
func (m *MachineW) foldHolds(outside []bool) (holds []hold, folded []bool) {
	folded = make([]bool, len(m.ops))
	if m.ffNext == nil && m.W <= 4 {
		w, n := int32(m.W), m.NL.NumWires()
		driver, readers := make([]int32, n), make([]int32, n) // driver: op index + 1
		isQ := make([]bool, n)
		for i, o := range m.ops {
			driver[o.out/w] = int32(i) + 1
			for p := 0; p < int(o.numPins); p++ {
				readers[o.in[p]/w]++
			}
		}
		for i, d := range m.ffD {
			readers[d]++
			isQ[m.ffQ[i]] = true
		}
		for i, d := range m.ffD {
			k := driver[d] - 1
			if k < 0 || m.ops[k].kind != cell.MUX2 || readers[d] != 1 || outside[d] {
				continue
			}
			q, a, b, en := m.ffQ[i], m.ops[k].in[0]/w, m.ops[k].in[1]/w, m.ops[k].in[2]/w
			h := hold{ff: int32(i), x: b, sel: 2 * en}
			if b == q {
				h.x, h.sel = a, 2*en+1
			} else if a != q {
				continue
			}
			if !isQ[h.x] && !isQ[en] {
				holds = append(holds, h)
				folded[k] = true
			}
		}
	}
	for _, d := range m.ffD {
		outside[d] = true
	}
	for _, h := range holds { // a folded D is read by no x or en
		outside[m.ffD[h.ff]], outside[h.x], outside[h.sel/2] = false, true, true
	}
	return holds, folded
}

// dropRedundant returns m.ops without the folded muxes and, unless an
// outside reader sees its output, without every gate with a constant
// input, equal operands, or the kind and operands of an earlier gate; the
// kept gates read the wire that carries the value instead. One pass in
// level order over slices indexed by wire: a duplicate is looked up among
// the kept gates that share its first operand.
func (m *MachineW) dropRedundant(outside, folded []bool) []op64 {
	w, n := int32(m.W), m.NL.NumWires()
	rep := make([]int32, n)  // the wire that carries the wire's value
	konst := make([]int8, n) // 1 + the wire's constant value, 0 if it has none
	head := make([]int32, n) // 1 + the last kept op whose first operand is the wire
	tie := [2]int32{-1, -1}  // a kept wire of each constant
	for i := range rep {
		rep[i] = int32(i)
	}
	kept, next := []op64(nil), []int32(nil) // next: the duplicate chains through kept
	for k, o := range m.ops {
		if folded[k] {
			continue
		}
		var in [4]int32
		for p := 0; p < int(o.numPins); p++ {
			in[p] = rep[o.in[p]/w]
		}
		switch o.kind {
		case cell.AND2, cell.OR2, cell.XOR2, cell.XNOR2:
			in[0], in[1] = min(in[0], in[1]), max(in[0], in[1])
		case cell.MAJ3:
			slices.Sort(in[:3])
		}
		c := func(p int) int8 { return konst[in[p]] - 1 }
		r, a, b := int32(-1), in[0], in[1]
		switch o.kind {
		case cell.TIE0, cell.TIE1:
			r = tie[o.kind-cell.TIE0]
		case cell.AND2, cell.OR2, cell.XOR2, cell.XNOR2:
			// pass passes the other operand; AND2 and OR2 return the other
			// constant and equal operands, XOR2 and XNOR2 of those are pass.
			pass := int8(0)
			if o.kind == cell.AND2 || o.kind == cell.XNOR2 {
				pass = 1
			}
			andOr := o.kind == cell.AND2 || o.kind == cell.OR2
			switch {
			case c(0) == pass || andOr && (c(1) == 1-pass || a == b):
				r = b
			case c(1) == pass || andOr && c(0) == 1-pass:
				r = a
			case a == b:
				r = tie[pass]
			}
		case cell.MUX2:
			if c(2) == 0 || a == b {
				r = a
			} else if c(2) == 1 {
				r = b
			}
		case cell.MAJ3:
			if a == b || b == in[2] {
				r = b
			}
		}
		for j := head[a] - 1; r < 0 && j >= 0; j = next[j] - 1 {
			if d := &kept[j]; d.kind == o.kind && d.tt == o.tt &&
				d.in == [4]int32{in[0] * w, in[1] * w, in[2] * w, in[3] * w} {
				r = d.out / w
			}
		}
		out := o.out / w
		if r >= 0 {
			konst[out] = konst[r]
			if !outside[out] {
				rep[out] = r
				continue
			}
		}
		if v := o.kind - cell.TIE0; v < 2 {
			konst[out] = int8(v) + 1
			if tie[v] < 0 {
				tie[v] = out
			}
		}
		for p := 0; p < int(o.numPins); p++ {
			o.in[p] = in[p] * w
		}
		kept, next, head[a] = append(kept, o), append(next, head[a]), int32(len(kept)+1)
	}
	return kept
}

// setCommit installs the direct commit: the folded flip-flops in their
// enable groups, then a group enabled by allOnes for every other.
func (m *MachineW) setCommit(holds []hold) {
	if m.ffNext != nil {
		return
	}
	slices.SortStableFunc(holds, func(a, b hold) int { return int(a.sel - b.sel) })
	held := make([]bool, len(m.ffQ))
	pairs := make([]ffPair, 0, len(m.ffQ))
	m.holds = nil
	for i, h := range holds {
		held[h.ff] = true
		pairs = append(pairs, ffPair{d: m.view(h.x * int32(m.W)), q: m.view(m.ffQs[h.ff])})
		if i > 0 && h.sel == holds[i-1].sel {
			g := &m.holds[len(m.holds)-1]
			g.ffs = g.ffs[:len(g.ffs)+1]
		} else {
			m.holds = append(m.holds, holdGroup{en: m.view(h.sel / 2 * int32(m.W)), inv: -uint64(h.sel & 1), ffs: pairs[i : i+1]})
		}
	}
	for i := range m.ffQ {
		if !held[i] {
			pairs = append(pairs, ffPair{d: m.view(m.ffDs[i]), q: m.view(m.ffQs[i])})
		}
	}
	if len(pairs) > len(holds) {
		m.holds = append(m.holds, holdGroup{en: &allOnes, ffs: pairs[len(holds):]})
	}
}

// commitHolds is the direct commit: each enable group set in an active
// lane loads its flip-flops. One active group has a body of its own; the
// four-word body serves two to four: the enable words of inactive groups
// are masked to zero, so their Q words (at a narrower width, other wires'
// words) are rewritten unchanged.
func (m *MachineW) commitHolds() {
	if m.ag == 1 {
		for _, h := range m.holds {
			if e := h.en[0] ^ h.inv; e != 0 {
				for _, p := range h.ffs {
					p.q[0] ^= e & (p.q[0] ^ p.d[0])
				}
			}
		}
		return
	}
	var mask [4]uint64
	for g := 0; g < m.ag; g++ {
		mask[g] = ^uint64(0)
	}
	for _, h := range m.holds {
		e0, e1, e2, e3 := (h.en[0]^h.inv)&mask[0], (h.en[1]^h.inv)&mask[1], (h.en[2]^h.inv)&mask[2], (h.en[3]^h.inv)&mask[3]
		if e0|e1|e2|e3 == 0 {
			continue
		}
		for _, p := range h.ffs {
			q, x := p.q, p.d
			q[0] ^= e0 & (q[0] ^ x[0])
			q[1] ^= e1 & (q[1] ^ x[1])
			q[2] ^= e2 & (q[2] ^ x[2])
			q[3] ^= e3 & (q[3] ^ x[3])
		}
	}
}
