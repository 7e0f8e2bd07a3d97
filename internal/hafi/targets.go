package hafi

import (
	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
	"repro/internal/sim"
)

// avrRun adapts an AVR-class system to the Run interface.
type avrRun struct {
	sys *avr.System
}

// NewAVRRun creates a Run for the AVR-class core with the given program.
func NewAVRRun(core *avr.Core, prog []uint16) Run {
	return &avrRun{sys: avr.NewSystem(core, prog)}
}

func (r *avrRun) Machine() *sim.Machine { return r.sys.M }
func (r *avrRun) Step()                 { r.sys.Step() }
func (r *avrRun) Halted() bool          { return r.sys.Halted() }
func (r *avrRun) TraceEnv() sim.Env     { return r.sys.Env() }
func (r *avrRun) AfterStep()            {}

func (r *avrRun) Checkpoint() Checkpoint {
	return &checkpoint[uint8]{
		ffs:    r.sys.M.FFState(),
		inputs: r.sys.M.InputState(),
		dmem:   r.sys.DMem,
		digest: r.sys.WriteDigest,
		cycle:  r.sys.M.Cycle,
	}
}

func (r *avrRun) Restore(c Checkpoint) {
	cp := c.(*checkpoint[uint8])
	r.sys.M.SetFFState(cp.ffs)
	r.sys.M.SetInputState(cp.inputs)
	r.sys.DMem = cp.dmem
	r.sys.WriteDigest = cp.digest
	r.sys.M.Cycle = cp.cycle
}

func (r *avrRun) MemDigest() uint64 { return r.sys.WriteDigest }

func (r *avrRun) Signature() uint64 {
	return signature(r.sys.PortValue(), r.sys.DMem[:])
}

// msp430Run adapts an MSP430-class system to the Run interface.
type msp430Run struct {
	sys *msp430.System
}

// NewMSP430Run creates a Run for the MSP430-class core with the given
// program.
func NewMSP430Run(core *msp430.Core, prog []uint16) Run {
	return &msp430Run{sys: msp430.NewSystem(core, prog)}
}

func (r *msp430Run) Machine() *sim.Machine { return r.sys.M }
func (r *msp430Run) Step()                 { r.sys.Step() }
func (r *msp430Run) Halted() bool          { return r.sys.Halted() }
func (r *msp430Run) TraceEnv() sim.Env     { return r.sys.Env() }
func (r *msp430Run) AfterStep()            {}

func (r *msp430Run) Checkpoint() Checkpoint {
	return &checkpoint[uint16]{
		ffs:    r.sys.M.FFState(),
		inputs: r.sys.M.InputState(),
		dmem:   r.sys.DMem,
		digest: r.sys.WriteDigest,
		cycle:  r.sys.M.Cycle,
	}
}

func (r *msp430Run) Restore(c Checkpoint) {
	cp := c.(*checkpoint[uint16])
	r.sys.M.SetFFState(cp.ffs)
	r.sys.M.SetInputState(cp.inputs)
	r.sys.DMem = cp.dmem
	r.sys.WriteDigest = cp.digest
	r.sys.M.Cycle = cp.cycle
}

func (r *msp430Run) MemDigest() uint64 { return r.sys.WriteDigest }

func (r *msp430Run) Signature() uint64 {
	return signature(r.sys.PortValue(), r.sys.DMem[:])
}
