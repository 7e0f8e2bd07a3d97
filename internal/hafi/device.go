package hafi

import (
	"fmt"

	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// RunW is a wide batched device instance: 64·W independent fault-injection
// experiments advance per evaluation pass (W=1, 64 lanes, is a width like
// any other). The lanes need not share a start checkpoint or a cycle: the
// campaign scheduler hands a lane its next point while its neighbours are
// mid-experiment. Lane-group methods take g < Lanes()/64 and cover lanes
// 64g..64g+63.
//
// The scheduler's held rule (heldTable) is exact only if every wire the
// device's memory environment, halt flag and output port read is a primary
// output of the controller's netlist: the built-in cores mark them all
// (TestHeldRuleSeesTheEnvironment), a foreign device must too.
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
	// SignatureLane condenses one lane's externally visible result; it is
	// comparable with the scalar Run.Signature of the same target.
	SignatureLane(lane int) uint64
	// MachW exposes the lane-parallel machine (flip-flop state inspection
	// for convergence retirement).
	MachW() *sim.MachineW
	// EnvW returns the per-cycle lane environment: on a campaign device a
	// *sim.LaneMemory, whose write digests retirement reads (laneDigests).
	EnvW() sim.EnvW
	// ImportLane is LoadCheckpoint (state is a Checkpoint) restricted to one
	// lane inside the active groups: that lane's flip-flops, primary inputs,
	// memory image and write digest; every other lane and the active width
	// stay untouched. The scheduler refills a dead lane with it.
	ImportLane(lane int, state interface{})
	// CompactLanes moves lane src[l] to lane l (src strictly increasing;
	// state, memories and digests move together) and shrinks the active
	// width to the lanes kept, so a draining device stops paying for lanes
	// without an experiment.
	CompactLanes(src []uint16)
}

// DeltaRunW is what is left of cone-delta execution, which no device
// implements any more: it is named by bench/trace.go and deleted with it.
// InitDelta answers nil ("cannot run delta, stay dense"), StepDelta is Step
// and HaltedMaskDeltaG is HaltedMaskG.
type DeltaRunW interface {
	RunW
	InitDelta(tr *sim.Trace) *sim.DeltaState
	StepDelta()
	HaltedMaskDeltaG(g int) uint64
}

// CompactRunW and SuspendRunW stay only because bench/trace.go names
// them, and go with it. ExportLane returns a lane's state in a form
// ImportLane takes (CheckpointLane); it has no caller in the engine.
type (
	CompactRunW = RunW
	SuspendRunW interface {
		RunW
		ExportLane(lane int) interface{}
	}
)

// laneDigests returns a device's per-lane write digests, the slice the
// scheduler's retirement filter reads a lane group of at a time: the
// Digest of the *sim.LaneMemory its EnvW returns. A device without one
// cannot run a campaign.
func laneDigests(r RunW) ([]uint64, error) {
	if mem, ok := r.EnvW().(*sim.LaneMemory); ok {
		return mem.Digest, nil
	}
	return nil, fmt.Errorf("%T exposes no lane write digests (its EnvW is a %T, not a *sim.LaneMemory)", r, r.EnvW())
}

// ramCells is the data-memory size of the built-in cores (both 256 cells).
const ramCells = 1 << avr.DMemBits

var _ [ramCells]struct{} = [1 << msp430.DMemBits]struct{}{}

// checkpoint is the snapshot the scalar runs of targets.go and the wide
// device exchange, so a Golden recorded by either restores into both. T is
// the memory-image word of the target. A checkpoint is never written after
// it is taken, so checkpoints may share their slices and image: the scalar
// recorder gives every checkpoint of a store-free stretch one image.
type checkpoint[T ~uint8 | ~uint16] struct {
	ffs    []bool
	inputs []bool
	dmem   *[ramCells]T
	digest uint64
	cycle  int
}

// signature folds a port value and a memory image into the FNV-1a stream
// SignatureHash produces over their little-endian byte expansion, without
// materialising that byte slice (it runs once per finished experiment).
func signature[T ~uint8 | ~uint16](port T, img []T) uint64 {
	wide := uint64(^T(0)) > 0xff
	h := (sigOffset64 ^ uint64(port)&0xff) * sigPrime64
	if wide {
		h = (h ^ uint64(port)>>8) * sigPrime64
	}
	for _, w := range img {
		h = (h ^ uint64(w)&0xff) * sigPrime64
		if wide {
			h = (h ^ uint64(w)>>8) * sigPrime64
		}
	}
	return h
}

// wideRun is the one wide device: a lane-parallel machine, the lane-parallel
// memory environment, and the two things a verdict reads besides memory —
// the halted wire and the output port. It implements RunW, GoldenRunW and
// the bench husks (DeltaRunW, SuspendRunW). Only the memory-image word
// differs between targets.
type wideRun[T ~uint8 | ~uint16] struct {
	m      *sim.MachineW
	mem    *sim.LaneMemory // the machine's environment (sim.EnvW)
	halted netlist.WireID
	port   []netlist.WireID
}

// maxLanes bounds a device: lane compaction (RunW.CompactLanes, the
// scheduler's compactTails) carries lane indices as uint16.
const maxLanes = 1 << 16

func newWideRun[T ~uint8 | ~uint16](nl *netlist.Netlist, ports sim.MemoryPorts, halted netlist.WireID, port []netlist.WireID, prog []uint16, lanes int) (RunW, error) {
	if lanes <= 0 || lanes%64 != 0 || lanes > maxLanes {
		return nil, fmt.Errorf("hafi: lane count %d must be a positive multiple of 64, at most %d", lanes, maxLanes)
	}
	m, err := sim.NewMachineW(nl, lanes/64)
	if err != nil {
		return nil, err
	}
	mem, err := sim.NewLaneMemory(m, ports, prog)
	if err != nil {
		return nil, err
	}
	return &wideRun[T]{m: m, mem: mem, halted: halted, port: port}, nil
}

// NewAVRRunW creates a wide batched run for the AVR-class core with the
// given lane count (a positive multiple of 64).
func NewAVRRunW(core *avr.Core, prog []uint16, lanes int) (RunW, error) {
	return newWideRun[uint8](core.NL, sim.MemoryPorts{
		FetchAddr: core.IMemAddr, FetchData: core.IMemData,
		Addr: core.DMemAddr, WE: core.DMemWE, WData: core.DMemWData, RData: core.DMemRData,
	}, core.Halted, core.Port, prog, lanes)
}

// NewMSP430RunW creates a wide batched run for the MSP430-class core with
// the given lane count (a positive multiple of 64).
func NewMSP430RunW(core *msp430.Core, prog []uint16, lanes int) (RunW, error) {
	return newWideRun[uint16](core.NL, sim.MemoryPorts{
		FetchAddr: core.IMemAddr, FetchData: core.IMemData,
		Addr: core.DMemAddr, WE: core.DMemWE, WData: core.DMemWData, RData: core.DMemRData,
	}, core.Halted, core.Port, prog, lanes)
}

func (r *wideRun[T]) Step()                      { r.m.Step(r.mem) }
func (r *wideRun[T]) Lanes() int                 { return r.m.NumLanes() }
func (r *wideRun[T]) HaltedMaskG(g int) uint64   { return r.m.LaneWord(r.halted, g) }
func (r *wideRun[T]) FlipLane(ff, l int)         { r.m.FlipLane(ff, l) }
func (r *wideRun[T]) MemDigestLane(l int) uint64 { return r.mem.Digest[l] }
func (r *wideRun[T]) MachW() *sim.MachineW       { return r.m }
func (r *wideRun[T]) EnvW() sim.EnvW             { return r.mem }

// CompactLanes packs machine, memories and write digests alike.
func (r *wideRun[T]) CompactLanes(src []uint16) {
	r.m.CompactLanes(src)
	r.mem.Compact(src)
}

// own asserts that a checkpoint is one of this target's.
func (r *wideRun[T]) own(cp interface{}) *checkpoint[T] {
	c, ok := cp.(*checkpoint[T])
	if !ok {
		panic(fmt.Sprintf("hafi: checkpoint type %T does not match a device of %T", cp, c))
	}
	return c
}

func (r *wideRun[T]) LoadCheckpoint(cp Checkpoint) {
	c := r.own(cp)
	r.m.LoadState(c.ffs)
	r.m.LoadInputs(c.inputs)
	sim.FillRAM(r.mem.RAM, c.dmem[:])
	for l := range r.mem.Digest {
		r.mem.Digest[l] = c.digest
	}
	r.m.Cycle = c.cycle
}

// ImportLane needs no settle: the halted wire is a register, so the lane's
// halted bit is current as loaded.
func (r *wideRun[T]) ImportLane(l int, state interface{}) {
	c := r.own(state)
	r.m.LoadStateLane(l, c.ffs, c.inputs)
	sim.LoadRAMLane(r.mem.RAM, l, c.dmem[:])
	r.mem.Digest[l] = c.digest
}

// dmemLane returns one lane's data-memory image.
func (r *wideRun[T]) dmemLane(l int) (img [ramCells]T) {
	for a, x := range r.mem.RAM.LaneImage(l) {
		img[a] = T(x)
	}
	return img
}

func (r *wideRun[T]) CheckpointLane(l int) Checkpoint {
	img := r.dmemLane(l)
	return &checkpoint[T]{
		ffs:    r.m.FFStateLane(l),
		inputs: r.m.InputStateLane(l),
		dmem:   &img,
		digest: r.mem.Digest[l],
		cycle:  r.m.Cycle,
	}
}

func (r *wideRun[T]) SignatureLane(l int) uint64 {
	dmem := r.dmemLane(l)
	return signature(T(r.m.ReadBusLane(r.port, l)), dmem[:])
}

// The husks of DeltaRunW and SuspendRunW (see there).
func (r *wideRun[T]) InitDelta(*sim.Trace) *sim.DeltaState { return nil }
func (r *wideRun[T]) StepDelta()                           { r.Step() }
func (r *wideRun[T]) HaltedMaskDeltaG(g int) uint64        { return r.HaltedMaskG(g) }
func (r *wideRun[T]) ExportLane(l int) interface{}         { return r.CheckpointLane(l) }
