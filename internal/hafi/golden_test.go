package hafi

import (
	"runtime"
	"testing"
)

// imageOf returns the data-memory image a golden checkpoint of either
// built-in core holds, as an opaque pointer for identity checks.
func imageOf(cp Checkpoint) interface{} {
	switch c := cp.(type) {
	case *checkpoint[uint8]:
		return c.dmem
	case *checkpoint[uint16]:
		return c.dmem
	}
	panic("foreign checkpoint")
}

// TestGoldenCheckpointsShareImages: the scalar recorder copies the memory
// image only when a store changed it. Consecutive checkpoints with equal
// write digests share one image, checkpoints with different digests do not,
// and a recording allocates at most a trace row, a flip-flop and input
// snapshot and 240 bytes per cycle — the checkpoint record, the checkpoint
// and digest slices (collected in blocks and copied once: 48 bytes), and
// the images of the stores; the measured figure is 213 on AVR fib. A
// per-cycle image copy (256 bytes on the AVR, 512 on the MSP430) breaks the
// bound, and so does growing the slices by append (+50 bytes per cycle).
func TestGoldenCheckpointsShareImages(t *testing.T) {
	for _, w := range []struct{ cpu, prog string }{{"avr", "fib"}, {"msp430", "conv"}} {
		t.Run(w.cpu+"-"+w.prog, func(t *testing.T) {
			tg, err := NewTarget(w.cpu, w.prog)
			if err != nil {
				t.Fatal(err)
			}
			run := tg.NewRun()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			g, err := RecordGolden(run, 1<<20)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				t.Fatal(err)
			}
			stores := 0
			for c := 1; c < g.HaltCycle; c++ {
				same := imageOf(g.Checkpoints[c]) == imageOf(g.Checkpoints[c-1])
				if g.MemDigests[c] != g.MemDigests[c-1] {
					stores++
				}
				if same != (g.MemDigests[c] == g.MemDigests[c-1]) {
					t.Fatalf("cycles %d and %d: digests %#x and %#x, shared image %v", c-1, c, g.MemDigests[c-1], g.MemDigests[c], same)
				}
			}
			if stores == 0 {
				t.Fatal("no store in the golden run: nothing to check")
			}
			nl := tg.NL
			bound := uint64(8*((nl.NumWires()+63)/64) + len(nl.FFs) + len(nl.Inputs) + 240)
			perCycle := (ms1.TotalAlloc - ms0.TotalAlloc) / uint64(g.HaltCycle)
			t.Logf("%d cycles, %d stores, %d B/cycle allocated (bound %d)", g.HaltCycle, stores, perCycle, bound)
			if perCycle > bound {
				t.Errorf("recording allocates %d B per cycle, bound %d", perCycle, bound)
			}
		})
	}
}
