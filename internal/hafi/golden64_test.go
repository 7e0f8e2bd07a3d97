package hafi

import (
	"testing"

	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
)

// TestRecordGoldenWMatchesScalar pins the contract RecordGoldenW claims:
// the Golden recorded on lane 0 of a wide device is identical, field for
// field, to the scalar recorder's — checkpoints (flip-flop state, inputs,
// data memory, digest, cycle), memory digests, trace rows, halt cycle and
// signature. Width 1 and width 4 both must match: lane 0's evolution is
// width-independent.
func TestRecordGoldenWMatchesScalar(t *testing.T) {
	const msp430Program = `
	    movi r1, 4
	    movi r2, 0
	loop:
	    add r1, r2
	    addi r1, -1
	    jne loop
	    out r2
	    halt
	`
	for _, lanes := range []int{64, 256} {
		t.Run("avr", func(t *testing.T) {
			c := avr.NewCore()
			prog := avr.MustAssemble(smallAVRProgram)
			want, err := RecordGolden(NewAVRRun(c, prog), 10000)
			if err != nil {
				t.Fatal(err)
			}
			rw, err := NewAVRRunW(c, prog, lanes)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RecordGoldenW(rw, 10000)
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, want, got, func(cyc int) {
				w := want.Checkpoints[cyc].(*checkpoint[uint8])
				g := got.Checkpoints[cyc].(*checkpoint[uint8])
				if w.dmem != g.dmem || w.digest != g.digest || w.cycle != g.cycle {
					t.Fatalf("cycle %d: checkpoint mem/digest/cycle differ", cyc)
				}
				compareBools(t, cyc, w.ffs, g.ffs, w.inputs, g.inputs)
			})
		})
		t.Run("msp430", func(t *testing.T) {
			c := msp430.NewCore()
			prog := msp430.MustAssemble(msp430Program)
			want, err := RecordGolden(NewMSP430Run(c, prog), 10000)
			if err != nil {
				t.Fatal(err)
			}
			rw, err := NewMSP430RunW(c, prog, lanes)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RecordGoldenW(rw, 10000)
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, want, got, func(cyc int) {
				w := want.Checkpoints[cyc].(*checkpoint[uint16])
				g := got.Checkpoints[cyc].(*checkpoint[uint16])
				if w.dmem != g.dmem || w.digest != g.digest || w.cycle != g.cycle {
					t.Fatalf("cycle %d: checkpoint mem/digest/cycle differ", cyc)
				}
				compareBools(t, cyc, w.ffs, g.ffs, w.inputs, g.inputs)
			})
		})
	}
}

func compareGolden(t *testing.T, want, got *Golden, checkpoint func(cyc int)) {
	t.Helper()
	if got.HaltCycle != want.HaltCycle {
		t.Fatalf("halt cycle: scalar %d, wide %d", want.HaltCycle, got.HaltCycle)
	}
	if got.Signature != want.Signature {
		t.Fatalf("signature: scalar %#x, wide %#x", want.Signature, got.Signature)
	}
	if len(got.Checkpoints) != len(want.Checkpoints) || len(got.MemDigests) != len(want.MemDigests) {
		t.Fatalf("lengths: scalar %d/%d, wide %d/%d",
			len(want.Checkpoints), len(want.MemDigests), len(got.Checkpoints), len(got.MemDigests))
	}
	if got.Trace.NumCycles() != want.Trace.NumCycles() {
		t.Fatalf("trace cycles: scalar %d, wide %d", want.Trace.NumCycles(), got.Trace.NumCycles())
	}
	for cyc := 0; cyc < want.HaltCycle; cyc++ {
		if got.MemDigests[cyc] != want.MemDigests[cyc] {
			t.Fatalf("cycle %d: digest scalar %#x, wide %#x", cyc, want.MemDigests[cyc], got.MemDigests[cyc])
		}
		wr, gr := want.Trace.Row(cyc), got.Trace.Row(cyc)
		for i := range wr {
			if wr[i] != gr[i] {
				t.Fatalf("cycle %d: trace word %d scalar %#x, wide %#x", cyc, i, wr[i], gr[i])
			}
		}
		checkpoint(cyc)
	}
}

func compareBools(t *testing.T, cyc int, wantFFs, gotFFs, wantIns, gotIns []bool) {
	t.Helper()
	for i := range wantFFs {
		if wantFFs[i] != gotFFs[i] {
			t.Fatalf("cycle %d: FF %d differs", cyc, i)
		}
	}
	for i := range wantIns {
		if wantIns[i] != gotIns[i] {
			t.Fatalf("cycle %d: input %d differs", cyc, i)
		}
	}
}
