package avr

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// SystemW couples the core with the lane-parallel memory environment
// (sim.LaneMemory): each of the 64·W lanes simulates an independent
// instance of the same program, so a fault-injection campaign can run 64·W
// experiments per gate-evaluation pass (see sim.MachineW). W=1 is the
// classic 64-lane system; the batched campaign engine runs W=4 (256 lanes)
// by default. This file only converts between the bit-sliced memory and
// the scalar System's typed image.
type SystemW struct {
	Core *Core
	M    *sim.MachineW
	Mem  *sim.LaneMemory // the machine's environment (sim.EnvW)
}

// NewSystemW builds the lane-parallel machine at width w (64·w lanes) with
// the program loaded.
func NewSystemW(core *Core, prog []uint16, w int) (*SystemW, error) {
	m, err := sim.NewMachineW(core.NL, w)
	if err != nil {
		return nil, err
	}
	mem := sim.NewLaneMemory(m, sim.MemoryPorts{
		FetchAddr: core.IMemAddr, FetchData: core.IMemData,
		Addr: core.DMemAddr, WE: core.DMemWE, WData: core.DMemWData, RData: core.DMemRData,
	}, prog)
	return &SystemW{Core: core, M: m, Mem: mem}, nil
}

// Step advances all lanes one clock cycle.
func (s *SystemW) Step() { s.M.Step(s.Mem) }

// CompactLanes packs the listed source lanes into lanes 0..len(src)-1,
// machine, memories and write digests alike. src must be strictly
// increasing.
func (s *SystemW) CompactLanes(src []uint16) {
	s.M.CompactLanes(src)
	s.Mem.Compact(src)
}

// DMemLane returns one lane's data-memory image.
func (s *SystemW) DMemLane(l int) (img [1 << DMemBits]uint8) {
	for a, x := range s.Mem.RAM.LaneImage(l) {
		img[a] = uint8(x)
	}
	return img
}

// LaneState is one lane's complete suspended state: the packed wire bits
// of the machine (ExportLane) plus the lane-private memory image and write
// digest. It is target-specific; the campaign engine treats it as opaque.
type LaneState struct {
	Wires  []uint64
	DMem   [1 << DMemBits]uint8
	Digest uint64
}

// ExportLane snapshots one lane for migration to another SystemW of the
// same core and program (see MachineW.ExportLane).
func (s *SystemW) ExportLane(l int) *LaneState {
	st := &LaneState{Wires: make([]uint64, s.M.LaneWireWords()), DMem: s.DMemLane(l), Digest: s.Mem.Digest[l]}
	s.M.ExportLane(l, st.Wires)
	return st
}

// ImportLane restores an ExportLane snapshot into one lane of this system.
func (s *SystemW) ImportLane(l int, st *LaneState) {
	s.M.ImportLane(l, st.Wires)
	sim.LoadRAMLane(s.Mem.RAM, l, st.DMem[:])
	s.Mem.Digest[l] = st.Digest
}

// HaltedMaskG returns lane group g's halted lanes.
func (s *SystemW) HaltedMaskG(g int) uint64 { return s.M.LaneWord(s.Core.Halted, g) }

// LoadScalarState broadcasts a scalar checkpoint (flip-flop state, primary
// inputs, data memory, write digest) into every lane.
func (s *SystemW) LoadScalarState(ffs, inputs []bool, dmem *[1 << DMemBits]uint8, digest uint64) {
	s.M.LoadState(ffs)
	s.M.LoadInputs(inputs)
	sim.FillRAM(s.Mem.RAM, dmem[:])
	for l := range s.Mem.Digest {
		s.Mem.Digest[l] = digest
	}
}

// LoadScalarStateLane is LoadScalarState restricted to one lane: every
// other lane and the active width stay as they are. Core.Halted is a
// register, so the lane's halted bit is current without a settle.
func (s *SystemW) LoadScalarStateLane(l int, ffs, inputs []bool, dmem *[1 << DMemBits]uint8, digest uint64) {
	s.M.LoadStateLane(l, ffs, inputs)
	sim.LoadRAMLane(s.Mem.RAM, l, dmem[:])
	s.Mem.Digest[l] = digest
}

// PortLane reads the output port register of one lane.
func (s *SystemW) PortLane(l int) uint8 { return uint8(s.M.ReadBusLane(s.Core.Port, l)) }

// NewDelta builds the cone-delta evaluator for this system against a
// golden trace (nil error only when the netlist satisfies the engine's
// env-cone contract; see sim.NewDeltaState).
func (s *SystemW) NewDelta(tr *sim.Trace) (*sim.DeltaState, error) {
	core := s.Core
	d, err := sim.NewDeltaState(s.M, tr, s.Mem,
		core.IMemAddr, core.DMemAddr, []netlist.WireID{core.DMemWE}, core.DMemWData)
	if err != nil {
		return nil, fmt.Errorf("avr: %w", err)
	}
	return d, nil
}
