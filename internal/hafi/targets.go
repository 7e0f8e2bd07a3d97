package hafi

import (
	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// scalarRun is the scalar reference run of a built-in core: the gate-level
// machine, its memory environment, and what a verdict reads besides memory —
// the halted wire and the output port. All of it is taken from the core's
// System. Only the memory-image word differs between targets (as in
// wideRun).
type scalarRun[T ~uint8 | ~uint16] struct {
	m      *sim.Machine
	env    sim.Env
	dmem   *[ramCells]T
	digest *uint64
	halted netlist.WireID
	port   []netlist.WireID
}

// NewAVRRun creates a Run for the AVR-class core with the given program.
func NewAVRRun(core *avr.Core, prog []uint16) Run {
	s := avr.NewSystem(core, prog)
	return &scalarRun[uint8]{m: s.M, env: s.Env(), dmem: &s.DMem, digest: &s.WriteDigest, halted: core.Halted, port: core.Port}
}

// NewMSP430Run creates a Run for the MSP430-class core with the given
// program.
func NewMSP430Run(core *msp430.Core, prog []uint16) Run {
	s := msp430.NewSystem(core, prog)
	return &scalarRun[uint16]{m: s.M, env: s.Env(), dmem: &s.DMem, digest: &s.WriteDigest, halted: core.Halted, port: core.Port}
}

func (r *scalarRun[T]) Machine() *sim.Machine { return r.m }
func (r *scalarRun[T]) Env() sim.Env          { return r.env }
func (r *scalarRun[T]) Step()                 { r.m.Step(r.env) }
func (r *scalarRun[T]) Halted() bool          { return r.m.Value(r.halted) }
func (r *scalarRun[T]) MemDigest() uint64     { return *r.digest }

func (r *scalarRun[T]) Checkpoint() Checkpoint {
	return &checkpoint[T]{
		ffs:    r.m.FFState(),
		inputs: r.m.InputState(),
		dmem:   *r.dmem,
		digest: *r.digest,
		cycle:  r.m.Cycle,
	}
}

func (r *scalarRun[T]) Restore(c Checkpoint) {
	cp := c.(*checkpoint[T])
	r.m.SetFFState(cp.ffs)
	r.m.SetInputState(cp.inputs)
	*r.dmem = cp.dmem
	*r.digest = cp.digest
	r.m.Cycle = cp.cycle
}

func (r *scalarRun[T]) Signature() uint64 {
	return signature(T(r.m.ReadBus(r.port)), r.dmem[:])
}
