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

	"repro/internal/cell"
	"repro/internal/netlist"
)

// Env services the environment of the circuit between the two combinational
// evaluation passes of a cycle: it may read settled wires whose value does
// not depend on primary inputs (e.g. registered memory addresses) and set
// primary inputs (e.g. memory read data) for the final pass.
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
// shares no evaluation code with MachineW; no wide campaign steps it. The zero value is not usable; create machines with New.
type Machine struct {
	NL     *netlist.Netlist
	Cycle  int
	values []bool

	// ops is the flattened evaluation program in topological order. The
	// common library cells are dispatched by kind (like MachineW); the
	// truth table backs the generic fallback and EvalCombForced.
	ops []scalarOp

	// ffD/ffQ are the flip-flop pin wires, and ffNext the commit scratch.
	ffD, ffQ []int32
	ffNext   []bool
}

// scalarOp is one gate in the flattened evaluation program. The pin array
// is sized for cell.MaxInputs.
type scalarOp struct {
	kind    cell.Kind
	tt      uint32
	out     int32
	in      [cell.MaxInputs]int32
	numPins int8
}

// New creates a machine and resets it.
func New(nl *netlist.Netlist) *Machine {
	m := &Machine{NL: nl, values: make([]bool, nl.NumWires())}
	order := nl.EvalOrder()
	m.ops = make([]scalarOp, 0, len(order))
	for _, gi := range order {
		g := &nl.Gates[gi]
		if len(g.Inputs) > cell.MaxInputs {
			panic(fmt.Sprintf("sim: cell %s has %d inputs, max %d", g.Cell.Name, len(g.Inputs), cell.MaxInputs))
		}
		o := scalarOp{kind: g.Cell.Kind, tt: g.Cell.TruthTable(), out: int32(g.Output), numPins: int8(len(g.Inputs))}
		for p, w := range g.Inputs {
			o.in[p] = int32(w)
		}
		m.ops = append(m.ops, o)
	}
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

// EvalComb evaluates all gates once in topological order, dispatching the
// library cells by kind (mirroring MachineW.EvalComb) with a truth-table
// fallback for anything else. This runs twice per cycle in every
// experiment, so the common cells avoid the per-pin bit-probe loop.
func (m *Machine) EvalComb() {
	v := m.values
	for i := range m.ops {
		o := &m.ops[i]
		var out bool
		switch o.kind {
		case cell.TIE0:
			out = false
		case cell.TIE1:
			out = true
		case cell.BUF:
			out = v[o.in[0]]
		case cell.INV:
			out = !v[o.in[0]]
		case cell.AND2:
			out = v[o.in[0]] && v[o.in[1]]
		case cell.AND3:
			out = v[o.in[0]] && v[o.in[1]] && v[o.in[2]]
		case cell.AND4:
			out = v[o.in[0]] && v[o.in[1]] && v[o.in[2]] && v[o.in[3]]
		case cell.NAND2:
			out = !(v[o.in[0]] && v[o.in[1]])
		case cell.NAND3:
			out = !(v[o.in[0]] && v[o.in[1]] && v[o.in[2]])
		case cell.NAND4:
			out = !(v[o.in[0]] && v[o.in[1]] && v[o.in[2]] && v[o.in[3]])
		case cell.OR2:
			out = v[o.in[0]] || v[o.in[1]]
		case cell.OR3:
			out = v[o.in[0]] || v[o.in[1]] || v[o.in[2]]
		case cell.OR4:
			out = v[o.in[0]] || v[o.in[1]] || v[o.in[2]] || v[o.in[3]]
		case cell.NOR2:
			out = !(v[o.in[0]] || v[o.in[1]])
		case cell.NOR3:
			out = !(v[o.in[0]] || v[o.in[1]] || v[o.in[2]])
		case cell.NOR4:
			out = !(v[o.in[0]] || v[o.in[1]] || v[o.in[2]] || v[o.in[3]])
		case cell.XOR2:
			out = v[o.in[0]] != v[o.in[1]]
		case cell.XNOR2:
			out = v[o.in[0]] == v[o.in[1]]
		case cell.MUX2:
			if v[o.in[2]] {
				out = v[o.in[1]]
			} else {
				out = v[o.in[0]]
			}
		case cell.AOI21:
			out = !((v[o.in[0]] && v[o.in[1]]) || v[o.in[2]])
		case cell.AOI22:
			out = !((v[o.in[0]] && v[o.in[1]]) || (v[o.in[2]] && v[o.in[3]]))
		case cell.OAI21:
			out = !((v[o.in[0]] || v[o.in[1]]) && v[o.in[2]])
		case cell.OAI22:
			out = !((v[o.in[0]] || v[o.in[1]]) && (v[o.in[2]] || v[o.in[3]]))
		case cell.MAJ3:
			a, b, c := v[o.in[0]], v[o.in[1]], v[o.in[2]]
			out = (a && b) || (a && c) || (b && c)
		default:
			out = evalScalarTT(o, v)
		}
		v[o.out] = out
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
// The two-pass scheme requires that the wires the Env reads do not depend
// on primary inputs; the processor netlists in this repository register
// all memory interface outputs to guarantee that.
func (m *Machine) Settle(env Env) {
	m.EvalComb()
	if env != nil {
		env.SetInputs(m)
		m.EvalComb()
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
	s := make([]bool, len(m.NL.FFs))
	for i := range m.NL.FFs {
		s[i] = m.values[m.NL.FFs[i].Q]
	}
	return s
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
	for i, w := range m.NL.Inputs {
		s[i] = m.values[w]
	}
	return s
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
