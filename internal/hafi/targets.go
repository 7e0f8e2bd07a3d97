package hafi

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
	"repro/internal/netlist"
	"repro/internal/progs"
	"repro/internal/sim"
)

// targetCore is one row of the target table: a built-in core and its programs.
type targetCore struct {
	netlist  func() *netlist.Netlist
	rfGroup  string
	assemble func(src string) ([]uint16, error)
	progs    map[string]string // program name -> assembly source
	newRun   func(prog []uint16) Run
	newRunW  func(prog []uint16, lanes int) (RunW, error)
}

// targets is the one place a cpu name and a program name become a target,
// so "avr fib" means the same netlist and program in every front end.
var targets = map[string]targetCore{
	"avr": {
		netlist:  func() *netlist.Netlist { return avr.NewCore().NL },
		rfGroup:  avr.GroupRegFile,
		assemble: avr.Assemble,
		progs:    map[string]string{"fib": progs.AVRFibSrc, "conv": progs.AVRConvSrc, "sort": progs.AVRSortSrc},
		newRun:   func(p []uint16) Run { return NewAVRRun(avr.NewCore(), p) },
		newRunW:  func(p []uint16, lanes int) (RunW, error) { return NewAVRRunW(avr.NewCore(), p, lanes) },
	},
	"msp430": {
		netlist:  func() *netlist.Netlist { return msp430.NewCore().NL },
		rfGroup:  msp430.GroupRegFile,
		assemble: msp430.Assemble,
		progs:    map[string]string{"fib": progs.MSP430FibSrc, "conv": progs.MSP430ConvSrc, "sort": progs.MSP430SortSrc},
		newRun:   func(p []uint16) Run { return NewMSP430Run(msp430.NewCore(), p) },
		newRunW:  func(p []uint16, lanes int) (RunW, error) { return NewMSP430RunW(msp430.NewCore(), p, lanes) },
	},
}

// Target is one (cpu, program) pair. RFGroups are the flip-flop groups -norf
// excludes; NewRun and NewRunW build a fresh core per call.
type Target struct {
	NL       *netlist.Netlist
	RFGroups []string
	Prog     []uint16
	NewRun   func() Run
	NewRunW  func(lanes int) (RunW, error) // lanes: a positive multiple of 64
}

// NewTarget resolves a cpu and one of its built-in programs. An unknown
// name is an error that lists the valid ones.
func NewTarget(cpu, prog string) (*Target, error) {
	if c, ok := targets[cpu]; ok && c.progs[prog] == "" {
		return nil, fmt.Errorf("unknown workload %q (want %s)", prog, oneOf(c.progs))
	}
	return AssembleTarget(cpu, targets[cpu].progs[prog]) // an unknown cpu fails here
}

// AssembleTarget resolves a cpu and assembles src as its program. The empty
// source gives the bare core, for tools that read only NL and RFGroups.
func AssembleTarget(cpu, src string) (*Target, error) {
	c, ok := targets[cpu]
	if !ok {
		return nil, fmt.Errorf("unknown cpu %q (want %s)", cpu, oneOf(targets))
	}
	prog, err := c.assemble(src)
	if err != nil {
		return nil, err
	}
	return &Target{NL: c.netlist(), RFGroups: []string{c.rfGroup}, Prog: prog,
		NewRun:  func() Run { return c.newRun(prog) },
		NewRunW: func(lanes int) (RunW, error) { return c.newRunW(prog, lanes) },
	}, nil
}

// oneOf renders a table's names for an error message: "a, b or c".
func oneOf[V any](m map[string]V) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

// Golden records the golden run with RecordGolden on NewRun. The scalar
// recorder is the faster of the two (BenchmarkRecordGolden: 7.0–7.4 against
// 10.1–10.2 µs per cycle on AVR fib, 9.1 against 13.2–13.7 on MSP430 conv),
// and its checkpoints share the memory image between stores.
func (t *Target) Golden() (*Golden, error) {
	return RecordGolden(t.NewRun(), 1<<20)
}

// Pool builds up to workers devices of lanes lanes, no more than points fill.
func (t *Target) Pool(lanes, workers, points int) (runs []RunW, err error) {
	runs = make([]RunW, max(1, min(workers, (points+lanes-1)/lanes)))
	for i := range runs {
		if runs[i], err = t.NewRunW(lanes); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

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

	// last is the latest Checkpoint, whose memory image the next one shares
	// while no store happened in between (nil after Restore). bits is the
	// slab the checkpoints' flip-flop and input snapshots are cut from.
	last *checkpoint[T]
	bits []bool
}

// checkpointSlab is the number of checkpoint snapshots one slab serves.
const checkpointSlab = 256

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

// Checkpoint copies the memory image only when it changed since the last
// checkpoint: every store changes the write digest, so the checkpoints of a
// store-free stretch share one image (the content compare keeps this exact
// should a store ever leave the digest as it was).
func (r *scalarRun[T]) Checkpoint() Checkpoint {
	var img *[ramCells]T
	if r.last != nil && r.last.digest == *r.digest && *r.last.dmem == *r.dmem {
		img = r.last.dmem
	} else {
		img = new([ramCells]T)
		*img = *r.dmem
	}
	nff, nin := len(r.m.NL.FFs), len(r.m.NL.Inputs)
	if len(r.bits) == 0 {
		r.bits = make([]bool, checkpointSlab*(nff+nin))
	}
	cp := &checkpoint[T]{ffs: r.bits[:nff:nff], inputs: r.bits[nff : nff+nin : nff+nin], dmem: img, digest: *r.digest, cycle: r.m.Cycle}
	r.bits = r.bits[nff+nin:]
	r.m.ReadFFState(cp.ffs)
	r.m.ReadInputState(cp.inputs)
	r.last = cp
	return cp
}

func (r *scalarRun[T]) Restore(c Checkpoint) {
	cp := c.(*checkpoint[T])
	r.m.SetFFState(cp.ffs)
	r.m.SetInputState(cp.inputs)
	*r.dmem = *cp.dmem
	*r.digest = cp.digest
	r.m.Cycle = cp.cycle
	r.last = nil
}

func (r *scalarRun[T]) Signature() uint64 {
	return signature(T(r.m.ReadBus(r.port)), r.dmem[:])
}
