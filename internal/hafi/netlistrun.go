package hafi

import (
	"encoding/binary"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// NetlistRun adapts an arbitrary netlist (no external memories) to the Run
// interface, so fault-injection campaigns can target any synchronous
// circuit, not just the two processor models. Inputs are driven by a pure
// function of the cycle number (so checkpoint restore replays them
// exactly); the workload counts as finished when the designated halted
// wire goes high; the result signature hashes the flip-flop state and the
// primary outputs.
type NetlistRun struct {
	m      *sim.Machine
	halted netlist.WireID
	drive  func(cycle int, m *sim.Machine)
}

// NewNetlistRun wraps a netlist. drive is called once per cycle (between
// the two evaluation passes) and must be a pure function of the cycle
// number; halted must be a wire that rises when the workload completes.
func NewNetlistRun(nl *netlist.Netlist, halted netlist.WireID, drive func(cycle int, m *sim.Machine)) *NetlistRun {
	return &NetlistRun{m: sim.New(nl), halted: halted, drive: drive}
}

// Machine implements Run.
func (r *NetlistRun) Machine() *sim.Machine { return r.m }

// Env implements Run.
func (r *NetlistRun) Env() sim.Env {
	return sim.EnvFunc(func(m *sim.Machine) {
		if r.drive != nil {
			r.drive(m.Cycle, m)
		}
	})
}

// Step implements Run.
func (r *NetlistRun) Step() { r.m.Step(r.Env()) }

// Halted implements Run.
func (r *NetlistRun) Halted() bool { return r.m.Value(r.halted) }

type netlistCheckpoint struct {
	ffs    []bool
	inputs []bool
	cycle  int
}

// Checkpoint implements Run.
func (r *NetlistRun) Checkpoint() Checkpoint {
	return &netlistCheckpoint{ffs: r.m.FFState(), inputs: r.m.InputState(), cycle: r.m.Cycle}
}

// Restore implements Run.
func (r *NetlistRun) Restore(cp Checkpoint) {
	c := cp.(*netlistCheckpoint)
	r.m.SetFFState(c.ffs)
	r.m.SetInputState(c.inputs)
	r.m.Cycle = c.cycle
}

// MemDigest implements Run: a NetlistRun has no external memory, so the
// digest is the constant seed (memory never diverges from golden).
func (r *NetlistRun) MemDigest() uint64 { return sim.WriteDigestSeed }

// Signature implements Run: it hashes the flip-flop state and the primary
// outputs (there is no external memory to include).
func (r *NetlistRun) Signature() uint64 {
	var buf []byte
	var cur byte
	n := 0
	push := func(v bool) {
		if v {
			cur |= 1 << uint(n%8)
		}
		n++
		if n%8 == 0 {
			buf = append(buf, cur)
			cur = 0
		}
	}
	for _, v := range r.m.FFState() {
		push(v)
	}
	for _, w := range r.m.NL.Outputs {
		push(r.m.Value(w))
	}
	buf = append(buf, cur)
	var cyc [8]byte
	binary.LittleEndian.PutUint64(cyc[:], uint64(0)) // layout stability
	return SignatureHash(buf, cyc[:])
}
