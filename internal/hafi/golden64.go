package hafi

import (
	"fmt"

	"repro/internal/sim"
)

// GoldenRunW is the optional RunW capability RecordGoldenW needs: the
// device can checkpoint a single lane in the scalar target's Checkpoint
// format and read its write digest, so the recorded Golden is
// interchangeable with one from RecordGolden — the sequential engine
// Restores from it and the wide engine's devices LoadCheckpoint from it
// without knowing who recorded it.
type GoldenRunW interface {
	RunW
	// CheckpointLane captures one lane as a scalar-format checkpoint.
	CheckpointLane(lane int) Checkpoint
	// MemDigestLane returns one lane's external-memory write digest; it is
	// comparable with the scalar Run.MemDigest and the per-cycle digests of
	// the golden reference.
	MemDigestLane(lane int) uint64
}

// RecordGoldenW is RecordGolden on a wide batched device: lane 0 runs the
// workload to completion on the bit-parallel gate kernel. The returned
// Golden is equivalent to the scalar recorder's bit for bit: same
// checkpoints, memory digests, trace rows, halt cycle and signature (pinned
// by TestRecordGoldenWMatchesScalar). It is slower than RecordGolden
// (BenchmarkRecordGolden: 12.3–13.0 against 6.0–6.8 µs per cycle on AVR
// fib, 14.4–15.3 against 7.5–10.0 on MSP430 conv): a 64-lane pass carries
// one live lane, ExportLane runs the whole netlist again (Settle ran the
// smaller device program) and walks every wire bit by bit to build the
// trace row, and every checkpoint copies the memory image. No front end
// uses it; it stays because bench/run.go names it (hafi.golden_wide_s) and
// is deleted with that metric.
func RecordGoldenW(r RunW, maxCycles int) (*Golden, error) {
	gr, ok := r.(GoldenRunW)
	if !ok {
		return nil, fmt.Errorf("hafi: %T cannot record a golden run (no GoldenRunW capability)", r)
	}
	m := r.MachW()
	env := r.EnvW()
	g := &Golden{Trace: sim.NewTrace(m.NL.NumWires())}
	row := make([]uint64, m.LaneWireWords())
	var cps cycleLog[Checkpoint]
	var digests cycleLog[uint64]
	for cyc := 0; cyc < maxCycles; cyc++ {
		if r.HaltedMaskG(0)&1 != 0 {
			g.HaltCycle = cyc
			g.Signature = r.SignatureLane(0)
			g.Checkpoints, g.MemDigests = cps.slice(), digests.slice()
			return g, nil
		}
		cps.add(gr.CheckpointLane(0))
		digests.add(gr.MemDigestLane(0))
		m.Settle(env)
		m.ExportLane(0, row)
		g.Trace.AppendRow(row)
		m.CommitFFs()
	}
	return nil, fmt.Errorf("hafi: golden run did not halt within %d cycles", maxCycles)
}
