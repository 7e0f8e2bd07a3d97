package hafi

import (
	"fmt"

	"repro/internal/sim"
)

// GoldenRunW is the optional RunW capability RecordGoldenW needs: the
// device exposes its lane environment (so the recorder can interleave
// trace capture between Settle and CommitFFs, exactly like the scalar
// tracer hooks) and can checkpoint a single lane in the scalar target's
// Checkpoint format, so the recorded Golden is interchangeable with one
// from RecordGolden — the sequential engine Restores from it and the wide
// engine's devices LoadCheckpoint from it without knowing who recorded it.
type GoldenRunW interface {
	RunW
	// EnvW returns the per-cycle lane environment.
	EnvW() sim.EnvW
	// CheckpointLane captures one lane as a scalar-format checkpoint.
	CheckpointLane(lane int) Checkpoint
}

// RecordGoldenW is RecordGolden on a wide batched device: lane 0 runs the
// workload to completion while the bit-parallel gate kernel carries it, so
// the golden reference costs one wide evaluation pass per cycle instead of
// one scalar gate walk per cycle — an order of magnitude less wall clock
// on the processor cores, where the scalar golden run otherwise rivals the
// campaign itself. The returned Golden is equivalent to the scalar
// recorder's bit for bit: same checkpoints, memory digests, trace rows,
// halt cycle and signature (pinned by TestRecordGoldenWMatchesScalar).
func RecordGoldenW(r RunW, maxCycles int) (*Golden, error) {
	gr, ok := r.(GoldenRunW)
	if !ok {
		return nil, fmt.Errorf("hafi: %T cannot record a golden run (no GoldenRunW capability)", r)
	}
	m := r.MachW()
	env := gr.EnvW()
	g := &Golden{Trace: sim.NewTrace(m.NL.NumWires())}
	row := make([]uint64, m.LaneWireWords())
	for cyc := 0; cyc < maxCycles; cyc++ {
		if r.HaltedMaskG(0)&1 != 0 {
			g.HaltCycle = cyc
			g.Signature = r.SignatureLane(0)
			return g, nil
		}
		g.Checkpoints = append(g.Checkpoints, gr.CheckpointLane(0))
		g.MemDigests = append(g.MemDigests, r.MemDigestLane(0))
		m.Settle(env)
		m.ExportLane(0, row)
		g.Trace.AppendRow(row)
		m.CommitFFs()
	}
	return nil, fmt.Errorf("hafi: golden run did not halt within %d cycles", maxCycles)
}
