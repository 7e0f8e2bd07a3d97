package hafi

import (
	"fmt"

	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
	"repro/internal/sim"
)

// Run64 is a 64-lane batched device instance: 64 fault-injection
// experiments that share a start checkpoint advance per evaluation pass.
// It is the historical width-1 view; the engine itself runs on RunW and
// adapts Run64 values via AsRunW.
type Run64 interface {
	// Step advances all lanes one clock cycle.
	Step()
	// HaltedMask returns a bit per halted lane.
	HaltedMask() uint64
	// LoadCheckpoint broadcasts a scalar checkpoint into every lane.
	LoadCheckpoint(cp Checkpoint)
	// FlipLane injects an SEU into flip-flop ff of one lane.
	FlipLane(ff, lane int)
	// SignatureLane condenses one lane's externally visible result; it is
	// comparable with the scalar Run.Signature of the same target.
	SignatureLane(lane int) uint64
	// MemDigestLane returns one lane's external-memory write digest; it is
	// comparable with the scalar Run.MemDigest and the per-cycle digests of
	// the golden reference.
	MemDigestLane(lane int) uint64
	// Mach exposes the lane-parallel machine (flip-flop state inspection
	// for convergence retirement).
	Mach() *sim.Machine64
}

// RunW is a wide batched device instance: 64·W independent fault-injection
// experiments advance per evaluation pass. The lanes need not share a start
// checkpoint or a cycle: the campaign scheduler hands a lane its next point
// while its neighbours are mid-experiment. Lane-group methods take
// g < Lanes()/64 and cover lanes 64g..64g+63.
type RunW interface {
	// Step advances all lanes one clock cycle.
	Step()
	// Lanes returns the total lane count (a multiple of 64).
	Lanes() int
	// HaltedMaskG returns a bit per halted lane of group g.
	HaltedMaskG(g int) uint64
	// LoadCheckpoint broadcasts a scalar checkpoint into every lane.
	LoadCheckpoint(cp Checkpoint)
	// FlipLane injects an SEU into flip-flop ff of one lane.
	FlipLane(ff, lane int)
	// SignatureLane condenses one lane's externally visible result.
	SignatureLane(lane int) uint64
	// MemDigestLane returns one lane's external-memory write digest.
	MemDigestLane(lane int) uint64
	// MachW exposes the lane-parallel machine (flip-flop state inspection
	// for convergence retirement).
	MachW() *sim.MachineW
}

// DeltaRunW is a RunW that can also execute in cone-delta mode: gate
// evaluation restricted to the wires that differ from the recorded golden
// trace (InitDelta + DeltaState.Reset after LoadCheckpoint, StepDelta per
// cycle, DeltaState.Materialize to return to dense state). The campaign
// scheduler does not use it — lanes of one device sit at different cycles,
// and on every workload the benchmark runs delta mode fell back to dense
// after one step — but bench/trace.go forwards it, so it stays until the
// tracer stops naming it.
type DeltaRunW interface {
	RunW
	// InitDelta returns the device's cone-delta evaluator for the given
	// golden trace, or nil when the target cannot support delta execution
	// (the engine then stays dense). The evaluator is cached per trace.
	InitDelta(tr *sim.Trace) *sim.DeltaState
	// StepDelta advances all lanes one clock cycle in delta mode.
	StepDelta()
	// HaltedMaskDeltaG is HaltedMaskG while the device runs in delta mode.
	HaltedMaskDeltaG(g int) uint64
}

// CompactRunW is an optional RunW capability: a device that can pack a
// subset of its lanes into the low lane indices and shrink its active
// width, so a device draining its last experiments stops paying for the
// lanes that have none. src must be strictly increasing; lane l of the
// compacted device is lane src[l] of the old one (state, memories and
// digests move together). The capability is optional because a foreign
// Run64 adapted via AsRunW runs at width 1 and has nothing to shrink.
type CompactRunW interface {
	RunW
	CompactLanes(src []uint16)
}

// SuspendRunW is an optional RunW capability: a device whose lanes can be
// loaded one at a time. ImportLane accepts either an ExportLane snapshot —
// an opaque single-lane state that may come from a device of the same
// netlist and program at any width — or a golden Checkpoint, in which case
// it is LoadCheckpoint restricted to that lane: flip-flops, primary inputs,
// memory image and write digest of the one lane, every other lane and the
// active width untouched. The campaign scheduler uses the second form to
// hand a lane whose experiment ended off the golden run (halted, SDC, hang)
// its next point; a device without the capability refills only lanes that
// are back on the golden run. ImportLane must only target lanes inside the
// device's active groups. ExportLane has no caller in the engine any more;
// it goes with DeltaRunW.
type SuspendRunW interface {
	RunW
	ExportLane(lane int) interface{}
	ImportLane(lane int, state interface{})
}

// lanesToWidth validates a -lanes style lane count.
func lanesToWidth(lanes int) (int, error) {
	if lanes <= 0 || lanes%64 != 0 {
		return 0, fmt.Errorf("hafi: lane count %d must be a positive multiple of 64", lanes)
	}
	return lanes / 64, nil
}

// avrRunW adapts the AVR lane-parallel system.
type avrRunW struct {
	sys   *avr.SystemW
	delta *sim.DeltaState
}

// NewAVRRunW creates a wide batched run for the AVR-class core with the
// given lane count (a positive multiple of 64).
func NewAVRRunW(core *avr.Core, prog []uint16, lanes int) (RunW, error) {
	r, err := newAVRRunW(core, prog, lanes)
	if err != nil {
		return nil, err
	}
	return r, nil
}

func newAVRRunW(core *avr.Core, prog []uint16, lanes int) (*avrRunW, error) {
	w, err := lanesToWidth(lanes)
	if err != nil {
		return nil, err
	}
	sys, err := avr.NewSystemW(core, prog, w)
	if err != nil {
		return nil, err
	}
	return &avrRunW{sys: sys}, nil
}

func (r *avrRunW) Step()                      { r.sys.Step() }
func (r *avrRunW) Lanes() int                 { return r.sys.M.NumLanes() }
func (r *avrRunW) HaltedMaskG(g int) uint64   { return r.sys.HaltedMaskG(g) }
func (r *avrRunW) FlipLane(ff, l int)         { r.sys.M.FlipLane(ff, l) }
func (r *avrRunW) MemDigestLane(l int) uint64 { return r.sys.Mem.Digest[l] }
func (r *avrRunW) MachW() *sim.MachineW       { return r.sys.M }

func (r *avrRunW) CompactLanes(src []uint16) { r.sys.CompactLanes(src) }

func (r *avrRunW) ExportLane(l int) interface{} { return r.sys.ExportLane(l) }

func (r *avrRunW) ImportLane(l int, state interface{}) {
	switch st := state.(type) {
	case *avr.LaneState:
		r.sys.ImportLane(l, st)
	case *avrCheckpoint:
		r.sys.LoadScalarStateLane(l, st.ffs, st.inputs, &st.dmem, st.digest)
	default:
		panic(fmt.Sprintf("hafi: lane state type %T does not match AVR run", state))
	}
}

func (r *avrRunW) EnvW() sim.EnvW { return r.sys.Mem }

func (r *avrRunW) CheckpointLane(l int) Checkpoint {
	return &avrCheckpoint{
		ffs:    r.sys.M.FFStateLane(l),
		inputs: r.sys.M.InputStateLane(l),
		dmem:   r.sys.DMemLane(l),
		digest: r.sys.Mem.Digest[l],
		cycle:  r.sys.M.Cycle,
	}
}

func (r *avrRunW) LoadCheckpoint(cp Checkpoint) {
	c, ok := cp.(*avrCheckpoint)
	if !ok {
		panic(fmt.Sprintf("hafi: checkpoint type %T does not match AVR run", cp))
	}
	r.sys.LoadScalarState(c.ffs, c.inputs, &c.dmem, c.digest)
	r.sys.M.Cycle = c.cycle
}

func (r *avrRunW) SignatureLane(l int) uint64 {
	dmem := r.sys.DMemLane(l)
	return SignatureHash([]byte{r.sys.PortLane(l)}, dmem[:])
}

func (r *avrRunW) InitDelta(tr *sim.Trace) *sim.DeltaState {
	if r.delta == nil || r.delta.Trace() != tr {
		d, err := r.sys.NewDelta(tr)
		if err != nil {
			return nil
		}
		r.delta = d
	}
	return r.delta
}

func (r *avrRunW) StepDelta() { r.delta.Step() }

func (r *avrRunW) HaltedMaskDeltaG(g int) uint64 {
	return r.delta.WireLanesG(r.sys.Core.Halted, g)
}

// avrRun64 is the width-1 compatibility veneer: it satisfies both Run64
// (the historical interface) and RunW/DeltaRunW (via promotion), so
// Run64-typed callers get the direct wide-engine path from AsRunW.
type avrRun64 struct {
	*avrRunW
	m64 *sim.Machine64
}

// NewAVRRun64 creates a 64-lane batched run for the AVR-class core.
func NewAVRRun64(core *avr.Core, prog []uint16) (Run64, error) {
	rw, err := newAVRRunW(core, prog, 64)
	if err != nil {
		return nil, err
	}
	return &avrRun64{avrRunW: rw, m64: &sim.Machine64{MachineW: rw.sys.M}}, nil
}

func (r *avrRun64) HaltedMask() uint64   { return r.HaltedMaskG(0) }
func (r *avrRun64) Mach() *sim.Machine64 { return r.m64 }

// msp430RunW adapts the MSP430 lane-parallel system.
type msp430RunW struct {
	sys   *msp430.SystemW
	delta *sim.DeltaState
}

// NewMSP430RunW creates a wide batched run for the MSP430-class core with
// the given lane count (a positive multiple of 64).
func NewMSP430RunW(core *msp430.Core, prog []uint16, lanes int) (RunW, error) {
	r, err := newMSP430RunW(core, prog, lanes)
	if err != nil {
		return nil, err
	}
	return r, nil
}

func newMSP430RunW(core *msp430.Core, prog []uint16, lanes int) (*msp430RunW, error) {
	w, err := lanesToWidth(lanes)
	if err != nil {
		return nil, err
	}
	sys, err := msp430.NewSystemW(core, prog, w)
	if err != nil {
		return nil, err
	}
	return &msp430RunW{sys: sys}, nil
}

func (r *msp430RunW) Step()                      { r.sys.Step() }
func (r *msp430RunW) Lanes() int                 { return r.sys.M.NumLanes() }
func (r *msp430RunW) HaltedMaskG(g int) uint64   { return r.sys.HaltedMaskG(g) }
func (r *msp430RunW) FlipLane(ff, l int)         { r.sys.M.FlipLane(ff, l) }
func (r *msp430RunW) MemDigestLane(l int) uint64 { return r.sys.Mem.Digest[l] }
func (r *msp430RunW) MachW() *sim.MachineW       { return r.sys.M }

func (r *msp430RunW) CompactLanes(src []uint16) { r.sys.CompactLanes(src) }

func (r *msp430RunW) ExportLane(l int) interface{} { return r.sys.ExportLane(l) }
func (r *msp430RunW) ImportLane(l int, state interface{}) {
	switch st := state.(type) {
	case *msp430.LaneState:
		r.sys.ImportLane(l, st)
	case *msp430Checkpoint:
		r.sys.LoadScalarStateLane(l, st.ffs, st.inputs, &st.dmem, st.digest)
	default:
		panic(fmt.Sprintf("hafi: lane state type %T does not match MSP430 run", state))
	}
}

func (r *msp430RunW) EnvW() sim.EnvW { return r.sys.Mem }

func (r *msp430RunW) CheckpointLane(l int) Checkpoint {
	return &msp430Checkpoint{
		ffs:    r.sys.M.FFStateLane(l),
		inputs: r.sys.M.InputStateLane(l),
		dmem:   r.sys.DMemLane(l),
		digest: r.sys.Mem.Digest[l],
		cycle:  r.sys.M.Cycle,
	}
}

func (r *msp430RunW) LoadCheckpoint(cp Checkpoint) {
	c, ok := cp.(*msp430Checkpoint)
	if !ok {
		panic(fmt.Sprintf("hafi: checkpoint type %T does not match MSP430 run", cp))
	}
	r.sys.LoadScalarState(c.ffs, c.inputs, &c.dmem, c.digest)
	r.sys.M.Cycle = c.cycle
}

func (r *msp430RunW) SignatureLane(l int) uint64 {
	dmem := r.sys.DMemLane(l)
	return signatureWords16(r.sys.PortLane(l), dmem[:])
}

func (r *msp430RunW) InitDelta(tr *sim.Trace) *sim.DeltaState {
	if r.delta == nil || r.delta.Trace() != tr {
		d, err := r.sys.NewDelta(tr)
		if err != nil {
			return nil
		}
		r.delta = d
	}
	return r.delta
}

func (r *msp430RunW) StepDelta() { r.delta.Step() }

func (r *msp430RunW) HaltedMaskDeltaG(g int) uint64 {
	return r.delta.WireLanesG(r.sys.Core.Halted, g)
}

// msp430Run64 is the width-1 compatibility veneer (see avrRun64).
type msp430Run64 struct {
	*msp430RunW
	m64 *sim.Machine64
}

// NewMSP430Run64 creates a 64-lane batched run for the MSP430-class core.
func NewMSP430Run64(core *msp430.Core, prog []uint16) (Run64, error) {
	rw, err := newMSP430RunW(core, prog, 64)
	if err != nil {
		return nil, err
	}
	return &msp430Run64{msp430RunW: rw, m64: &sim.Machine64{MachineW: rw.sys.M}}, nil
}

func (r *msp430Run64) HaltedMask() uint64   { return r.HaltedMaskG(0) }
func (r *msp430Run64) Mach() *sim.Machine64 { return r.m64 }

// run64Adapter lifts an arbitrary Run64 implementation (e.g. a test
// double) onto RunW at width 1. It deliberately does NOT implement
// DeltaRunW: a foreign Run64 may override lane primitives (fault-handling
// wrappers in the resilience tests do), and those overrides must keep
// seeing every call — so adapted devices always run dense.
type run64Adapter struct {
	r Run64
}

// AsRunW returns the widest view of a Run64: the value itself when it
// already implements RunW (the built-in targets do), otherwise a width-1
// adapter.
func AsRunW(r Run64) RunW {
	if rw, ok := r.(RunW); ok {
		return rw
	}
	return run64Adapter{r: r}
}

func (a run64Adapter) Step()                        { a.r.Step() }
func (a run64Adapter) Lanes() int                   { return 64 }
func (a run64Adapter) HaltedMaskG(int) uint64       { return a.r.HaltedMask() }
func (a run64Adapter) LoadCheckpoint(cp Checkpoint) { a.r.LoadCheckpoint(cp) }
func (a run64Adapter) FlipLane(ff, l int)           { a.r.FlipLane(ff, l) }
func (a run64Adapter) SignatureLane(l int) uint64   { return a.r.SignatureLane(l) }
func (a run64Adapter) MemDigestLane(l int) uint64   { return a.r.MemDigestLane(l) }
func (a run64Adapter) MachW() *sim.MachineW         { return a.r.Mach().MachineW }
