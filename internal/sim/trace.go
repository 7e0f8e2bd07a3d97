package sim

import (
	"fmt"

	"repro/internal/netlist"
)

// Trace is a dense wire-level recording of a simulation: the value of every
// wire at every recorded cycle, bit-packed. It is the in-memory counterpart
// of the paper's VCD dump ("we recorded a VCD trace file for each
// program/processor that describes the values of all wires for every clock
// cycle"); internal/vcd converts between the two representations.
//
// Rows are stored in chunks of a fixed power-of-two row count, so a trace
// grows by one allocation per chunk and never copies recorded rows: one
// growing slice would re-copy the whole trace every time it grew by a
// quarter.
type Trace struct {
	NumWires int
	words    int
	shift    uint // a chunk holds 1<<shift rows
	chunks   [][]uint64
	cycles   int
}

// traceChunkBytes is the size a chunk aims at.
const traceChunkBytes = 64 << 10

// NewTrace creates an empty trace for circuits with numWires wires.
func NewTrace(numWires int) *Trace {
	t := &Trace{NumWires: numWires, words: (numWires + 63) / 64}
	for t.shift < 16 && 8*t.words<<(t.shift+1) <= traceChunkBytes {
		t.shift++
	}
	return t
}

// NumCycles returns the number of recorded cycles.
func (t *Trace) NumCycles() int { return t.cycles }

// grow appends an all-zero row and returns it.
func (t *Trace) grow() []uint64 {
	if t.cycles>>t.shift == len(t.chunks) {
		t.chunks = append(t.chunks, make([]uint64, t.words<<t.shift))
	}
	t.cycles++
	return t.Row(t.cycles - 1)
}

// Append records one cycle worth of wire values, packing eight wires at a
// time without a branch per wire.
func (t *Trace) Append(values []bool) {
	if len(values) != t.NumWires {
		panic(fmt.Sprintf("trace: got %d values, want %d", len(values), t.NumWires))
	}
	row := t.grow()
	full := len(values) / 8 * 8
	for i := 0; i < full; i += 8 {
		b := values[i : i+8 : i+8]
		row[i/64] |= (uint64(bu(b[0])) | uint64(bu(b[1]))<<1 | uint64(bu(b[2]))<<2 | uint64(bu(b[3]))<<3 |
			uint64(bu(b[4]))<<4 | uint64(bu(b[5]))<<5 | uint64(bu(b[6]))<<6 | uint64(bu(b[7]))<<7) << (i % 64)
	}
	for i, v := range values[full:] {
		row[(full+i)/64] |= uint64(bu(v)) << ((full + i) % 64)
	}
}

// AppendRow records one cycle from an already-packed row in the same
// layout Row returns (bit w%64 of word w/64 = wire w). The wide golden
// recorder uses it to move one lane of a MachineW straight into the trace
// without a bool round-trip; the row is copied, not retained.
func (t *Trace) AppendRow(row []uint64) {
	if len(row) != t.words {
		panic(fmt.Sprintf("trace: got %d row words, want %d", len(row), t.words))
	}
	copy(t.grow(), row)
}

// Set overwrites a single bit; used by the VCD reader.
func (t *Trace) Set(cycle int, w netlist.WireID, v bool) {
	row := t.Row(cycle)
	bit := uint64(1) << (int(w) % 64)
	if v {
		row[int(w)/64] |= bit
	} else {
		row[int(w)/64] &^= bit
	}
}

// AppendEmpty adds an all-zero cycle (used by the VCD reader).
func (t *Trace) AppendEmpty() { t.grow() }

// Get returns the value of wire w at the given cycle.
func (t *Trace) Get(cycle int, w netlist.WireID) bool {
	return t.Row(cycle)[int(w)/64]>>(int(w)%64)&1 == 1
}

// Row returns the packed words of one cycle; the slice aliases the trace
// storage and must not be modified.
func (t *Trace) Row(cycle int) []uint64 {
	if cycle < 0 || cycle >= t.cycles {
		panic(fmt.Sprintf("trace: cycle %d out of range [0, %d)", cycle, t.cycles))
	}
	i := (cycle & (1<<t.shift - 1)) * t.words
	return t.chunks[cycle>>t.shift][i : i+t.words : i+t.words]
}

// RowValues unpacks one cycle into a bool slice.
func (t *Trace) RowValues(cycle int) []bool {
	out := make([]bool, t.NumWires)
	row := t.Row(cycle)
	for i := range out {
		out[i] = row[i/64]>>(i%64)&1 == 1
	}
	return out
}

// Record runs the machine for cycles steps, recording the settled wire
// values of every cycle, and returns the trace. The machine is advanced in
// place.
func Record(m *Machine, env Env, cycles int) *Trace {
	return RecordObserved(m, env, cycles, nil)
}

// RecordObserved is Record with a per-cycle observer hook (cycle index of
// the cycle just recorded); nil onCycle makes it identical to Record. The
// tracesim CLI uses it to drive its progress counter.
func RecordObserved(m *Machine, env Env, cycles int, onCycle func(int)) *Trace {
	t := NewTrace(m.NL.NumWires())
	for i := 0; i < cycles; i++ {
		m.Settle(env)
		t.Append(m.Values())
		m.CommitFFs()
		if onCycle != nil {
			onCycle(i)
		}
	}
	return t
}
