// Package sim is a cycle-accurate gate-level simulator for netlists from
// internal/netlist. It evaluates the combinational logic in topological
// order, services external memories/peripherals through an Env callback,
// records full wire-level traces (the in-memory equivalent of the paper's
// VCD dumps), and supports SEU injection by flipping flip-flop state —
// the primitives both the MATE search evaluation and the HAFI platform
// model are built on.
package sim

import (
	"fmt"
	"sort"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// Env services the environment of the circuit between the two combinational
// evaluation passes of a cycle: it may read settled wires whose value does
// not depend on primary inputs (e.g. registered memory addresses) and set
// primary inputs (e.g. memory read data) for the final pass. It must write
// primary inputs and nothing else: Settle's final pass re-evaluates only the
// gates downstream of a primary input, so a gate output or flip-flop an Env
// wrote would keep that value until the next pass.
type Env interface {
	SetInputs(m *Machine)
}

// EnvFunc adapts a function to the Env interface.
type EnvFunc func(m *Machine)

// SetInputs implements Env.
func (f EnvFunc) SetInputs(m *Machine) { f(m) }

// NopEnv leaves all primary inputs at their previous values.
var NopEnv Env = EnvFunc(func(*Machine) {})

// Machine simulates one netlist instance, one bool per wire. It is the
// oracle and nothing else: the scalar golden recording, the sequential
// Controller.RunCampaign and the differential suites run on it, and it
// shares no evaluation code with MachineW; no wide campaign steps it. The
// zero value is not usable; create machines with New.
type Machine struct {
	NL     *netlist.Netlist
	Cycle  int
	values []bool

	// ops is the flattened evaluation program, level-major and kind-minor:
	// equal-level gates are independent, so grouping them by kind keeps the
	// order topological. full splits it into same-kind spans, cone does the
	// same for the gates downstream of a primary input (Settle's final
	// pass). The truth table backs the generic fallback and EvalCombForced.
	ops        []scalarOp
	full, cone []scalarSpan

	// ffD/ffQ are the flip-flop pin wires, and ffNext the commit scratch.
	ffD, ffQ []int32
	ffNext   []bool
}

// scalarOp is one gate in the flattened evaluation program. The pin array
// is sized for cell.MaxInputs; the fields are ordered to pack into 32 bytes.
type scalarOp struct {
	kind    cell.Kind
	numPins int8
	tt      uint32
	out     int32
	in      [cell.MaxInputs]int32
}

// scalarSpan is a run of same-kind gates of one program, evaluated by one
// loop without a per-gate dispatch.
type scalarSpan struct {
	kind cell.Kind
	ops  []scalarOp
}

// New creates a machine and resets it.
func New(nl *netlist.Netlist) *Machine {
	m := &Machine{NL: nl, values: make([]bool, nl.NumWires())}
	order := nl.EvalOrder()
	ops := make([]scalarOp, 0, len(order))
	level := make([]int32, nl.NumWires())
	for _, gi := range order {
		g := &nl.Gates[gi]
		if len(g.Inputs) > cell.MaxInputs {
			panic(fmt.Sprintf("sim: cell %s has %d inputs, max %d", g.Cell.Name, len(g.Inputs), cell.MaxInputs))
		}
		o := scalarOp{kind: g.Cell.Kind, tt: g.Cell.TruthTable(), out: int32(g.Output), numPins: int8(len(g.Inputs))}
		for p, w := range g.Inputs {
			o.in[p] = int32(w)
			level[g.Output] = max(level[g.Output], level[w]+1)
		}
		ops = append(ops, o)
	}
	sort.SliceStable(ops, func(a, b int) bool {
		la, lb := level[ops[a].out], level[ops[b].out]
		if la != lb {
			return la < lb
		}
		return ops[a].kind < ops[b].kind
	})
	m.ops = ops

	// The input cone: every gate with a pin downstream of a primary input.
	inCone := make([]bool, nl.NumWires())
	for _, w := range nl.Inputs {
		inCone[w] = true
	}
	var cone []scalarOp
	for _, o := range ops {
		for _, w := range o.in[:o.numPins] {
			if inCone[w] {
				inCone[o.out] = true
				cone = append(cone, o)
				break
			}
		}
	}
	m.full, m.cone = spans(ops), spans(cone)

	m.ffD = make([]int32, len(nl.FFs))
	m.ffQ = make([]int32, len(nl.FFs))
	m.ffNext = make([]bool, len(nl.FFs))
	for i := range nl.FFs {
		m.ffD[i] = int32(nl.FFs[i].D)
		m.ffQ[i] = int32(nl.FFs[i].Q)
	}
	m.Reset()
	return m
}

// spans splits a program into maximal same-kind runs.
func spans(ops []scalarOp) []scalarSpan {
	var out []scalarSpan
	for i := 0; i < len(ops); {
		j := i + 1
		for j < len(ops) && ops[j].kind == ops[i].kind {
			j++
		}
		out = append(out, scalarSpan{kind: ops[i].kind, ops: ops[i:j:j]})
		i = j
	}
	return out
}

// Reset loads every flip-flop with its initial value, clears all other
// wires and rewinds the cycle counter.
func (m *Machine) Reset() {
	for i := range m.values {
		m.values[i] = false
	}
	for i := range m.NL.FFs {
		m.values[m.NL.FFs[i].Q] = m.NL.FFs[i].Init
	}
	m.Cycle = 0
}

// Value returns the current value of a wire.
func (m *Machine) Value(w netlist.WireID) bool { return m.values[w] }

// SetValue sets a wire value directly. Intended for primary inputs from an
// Env; setting gate outputs is overwritten by the next evaluation pass.
func (m *Machine) SetValue(w netlist.WireID, v bool) { m.values[w] = v }

// ReadBus assembles an unsigned value from a bus of wires (LSB first).
func (m *Machine) ReadBus(bus []netlist.WireID) uint64 {
	var v uint64
	for i, w := range bus {
		if m.values[w] {
			v |= 1 << i
		}
	}
	return v
}

// WriteBus drives a bus of primary-input wires with an unsigned value.
func (m *Machine) WriteBus(bus []netlist.WireID, v uint64) {
	for i, w := range bus {
		m.values[w] = v>>i&1 == 1
	}
}

// EvalComb evaluates all gates once in topological order.
func (m *Machine) EvalComb() { m.eval(m.full) }

// bu is a bool as 0 or 1; the compiler lowers it to a zero extension, so
// the gate formulas below evaluate every pin without a branch.
func bu(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// eval runs a program one same-kind span at a time. The library cells
// evaluate on 0/1 bytes without a branch (a MUX2 reads the pin its select
// names); anything else reads its truth table.
func (m *Machine) eval(prog []scalarSpan) {
	v := m.values
	for _, s := range prog {
		ops := s.ops
		switch s.kind {
		case cell.TIE0, cell.TIE1:
			for i := range ops {
				v[ops[i].out] = s.kind == cell.TIE1
			}
		case cell.BUF:
			for i := range ops {
				o := &ops[i]
				v[o.out] = v[o.in[0]]
			}
		case cell.INV:
			for i := range ops {
				o := &ops[i]
				v[o.out] = !v[o.in[0]]
			}
		case cell.AND2, cell.NAND2:
			inv := bu(s.kind == cell.NAND2)
			for i := range ops {
				o := &ops[i]
				v[o.out] = bu(v[o.in[0]])&bu(v[o.in[1]]) != inv
			}
		case cell.AND3, cell.NAND3:
			inv := bu(s.kind == cell.NAND3)
			for i := range ops {
				o := &ops[i]
				v[o.out] = bu(v[o.in[0]])&bu(v[o.in[1]])&bu(v[o.in[2]]) != inv
			}
		case cell.AND4, cell.NAND4:
			inv := bu(s.kind == cell.NAND4)
			for i := range ops {
				o := &ops[i]
				v[o.out] = bu(v[o.in[0]])&bu(v[o.in[1]])&bu(v[o.in[2]])&bu(v[o.in[3]]) != inv
			}
		case cell.OR2, cell.NOR2:
			inv := bu(s.kind == cell.NOR2)
			for i := range ops {
				o := &ops[i]
				v[o.out] = bu(v[o.in[0]])|bu(v[o.in[1]]) != inv
			}
		case cell.OR3, cell.NOR3:
			inv := bu(s.kind == cell.NOR3)
			for i := range ops {
				o := &ops[i]
				v[o.out] = bu(v[o.in[0]])|bu(v[o.in[1]])|bu(v[o.in[2]]) != inv
			}
		case cell.OR4, cell.NOR4:
			inv := bu(s.kind == cell.NOR4)
			for i := range ops {
				o := &ops[i]
				v[o.out] = bu(v[o.in[0]])|bu(v[o.in[1]])|bu(v[o.in[2]])|bu(v[o.in[3]]) != inv
			}
		case cell.XOR2, cell.XNOR2:
			inv := s.kind == cell.XNOR2
			for i := range ops {
				o := &ops[i]
				v[o.out] = v[o.in[0]] != v[o.in[1]] != inv
			}
		case cell.MUX2:
			for i := range ops {
				o := &ops[i]
				v[o.out] = v[o.in[bu(v[o.in[2]])&1]] // &1 drops the bounds check
			}
		case cell.AOI21:
			for i := range ops {
				o := &ops[i]
				v[o.out] = bu(v[o.in[0]])&bu(v[o.in[1]])|bu(v[o.in[2]]) == 0
			}
		case cell.AOI22:
			for i := range ops {
				o := &ops[i]
				v[o.out] = bu(v[o.in[0]])&bu(v[o.in[1]])|bu(v[o.in[2]])&bu(v[o.in[3]]) == 0
			}
		case cell.OAI21:
			for i := range ops {
				o := &ops[i]
				v[o.out] = (bu(v[o.in[0]])|bu(v[o.in[1]]))&bu(v[o.in[2]]) == 0
			}
		case cell.OAI22:
			for i := range ops {
				o := &ops[i]
				v[o.out] = (bu(v[o.in[0]])|bu(v[o.in[1]]))&(bu(v[o.in[2]])|bu(v[o.in[3]])) == 0
			}
		case cell.MAJ3:
			for i := range ops {
				o := &ops[i]
				a, b, c := bu(v[o.in[0]]), bu(v[o.in[1]]), bu(v[o.in[2]])
				v[o.out] = a&b|a&c|b&c != 0
			}
		default:
			for i := range ops {
				v[ops[i].out] = evalScalarTT(&ops[i], v)
			}
		}
	}
}

// evalScalarTT probes one gate's truth table with the current pin values.
func evalScalarTT(o *scalarOp, v []bool) bool {
	var in uint32
	for p := int8(0); p < o.numPins; p++ {
		if v[o.in[p]] {
			in |= 1 << uint(p)
		}
	}
	return o.tt>>in&1 == 1
}

// Settle runs evaluation, lets the environment set inputs, and evaluates
// again. After Settle all wires carry their final value for this cycle.
// The first pass evaluates every gate; the second only the input cone, the
// gates downstream of a primary input (an Env writes nothing else), so the
// rest keep the first pass's values, which no input can change. The
// two-pass scheme requires that the wires the Env reads do not depend on
// primary inputs; the processor netlists in this repository register all
// memory interface outputs to guarantee that.
func (m *Machine) Settle(env Env) {
	m.eval(m.full)
	if env != nil {
		env.SetInputs(m)
		m.eval(m.cone)
	}
}

// CommitFFs clocks every flip-flop: Q <- D. Call after Settle.
func (m *Machine) CommitFFs() {
	for i, d := range m.ffD {
		m.ffNext[i] = m.values[d]
	}
	for i, q := range m.ffQ {
		m.values[q] = m.ffNext[i]
	}
	m.Cycle++
}

// Step runs one full clock cycle: settle combinational logic with the
// environment, then clock the flip-flops.
func (m *Machine) Step(env Env) {
	m.Settle(env)
	m.CommitFFs()
}

// Run advances the machine n cycles.
func (m *Machine) Run(n int, env Env) {
	for i := 0; i < n; i++ {
		m.Step(env)
	}
}

// FlipFF injects an SEU: the stored value of flip-flop ffIndex is inverted.
// Call before Settle to model an upset that manifests at the beginning of
// the current cycle.
func (m *Machine) FlipFF(ffIndex int) {
	q := m.NL.FFs[ffIndex].Q
	m.values[q] = !m.values[q]
}

// FFState snapshots the stored values of all flip-flops.
func (m *Machine) FFState() []bool {
	s := make([]bool, len(m.ffQ))
	m.ReadFFState(s)
	return s
}

// ReadFFState is FFState into dst, of length len(NL.FFs).
func (m *Machine) ReadFFState(dst []bool) {
	for i, q := range m.ffQ {
		dst[i] = m.values[q]
	}
}

// SetFFState restores a snapshot taken with FFState.
func (m *Machine) SetFFState(s []bool) {
	if len(s) != len(m.NL.FFs) {
		panic(fmt.Sprintf("sim: snapshot has %d FFs, netlist %d", len(s), len(m.NL.FFs)))
	}
	for i := range m.NL.FFs {
		m.values[m.NL.FFs[i].Q] = s[i]
	}
}

// InputState snapshots the current values of all primary inputs.
func (m *Machine) InputState() []bool {
	s := make([]bool, len(m.NL.Inputs))
	m.ReadInputState(s)
	return s
}

// ReadInputState is InputState into dst, of length len(NL.Inputs).
func (m *Machine) ReadInputState(dst []bool) {
	for i, w := range m.NL.Inputs {
		dst[i] = m.values[w]
	}
}

// SetInputState restores primary-input values captured with InputState.
func (m *Machine) SetInputState(s []bool) {
	for i, w := range m.NL.Inputs {
		m.values[w] = s[i]
	}
}

// Values exposes the raw value slice for trace recording. The slice is
// owned by the machine; do not retain it across Step calls.
func (m *Machine) Values() []bool { return m.values }

// EvalCombForced evaluates the combinational logic while holding one wire
// at a fixed value, regardless of its driver — stuck-at fault simulation
// for a single evaluation (used by fault-collapsing validation).
func (m *Machine) EvalCombForced(w netlist.WireID, v bool) {
	m.values[w] = v
	values := m.values
	for i := range m.ops {
		o := &m.ops[i]
		if o.out == int32(w) {
			continue
		}
		values[o.out] = evalScalarTT(o, values)
	}
}
