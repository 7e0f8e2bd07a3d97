package hafi

import (
	"math"

	"repro/internal/intercycle"
	"repro/internal/obs"
)

// heldTable is what the scheduler's held rule reads, per flip-flop f:
// from[f] is the first cycle from which a flip of f alone is exactly held
// until the golden halt (intercycle.OpenFrom over the golden trace), and
// verdict[f] is the outcome of the golden halt state with f flipped.
// from[f] is math.MaxInt32 when no suffix of the trace holds the flip, or
// when that halt state is not halted.
//
// A lane at cycle c >= from[f] that differs from golden in f alone, with a
// golden write digest, stays exactly so until the halt: every sink of f's
// cone — each other flip-flop's D and the memory-interface, port and halt
// outputs, which must be every wire the environment reads (RunW) — carries
// its golden value, so memory follows golden, and f's own D captures the
// flip again. At the golden halt cycle the lane is the golden halt state
// with f flipped, which verdict classifies.
type heldTable struct {
	from    []int32
	verdict []Outcome
}

// heldFaults returns the controller's held table, built once, on first use,
// under its own span.
func (c *Controller) heldFaults(reg *obs.Registry) *heldTable {
	c.heldOnce.Do(func() {
		sp := reg.StartSpan("campaign/held_table")
		c.held = c.buildHeld()
		sp.End()
	})
	return c.held
}

// buildHeld runs the inter-cycle analysis for every flip-flop and classifies
// each held flip at the halt on the controller's scalar run.
func (c *Controller) buildHeld() *heldTable {
	n := len(c.nl.FFs)
	t := &heldTable{from: make([]int32, n), verdict: make([]Outcome, n)}
	for f := range t.from {
		t.from[f] = math.MaxInt32
	}
	g := c.golden
	halt := g.HaltCycle
	if halt == 0 {
		return t // halted at reset: no cycle to hold a flip in
	}
	from, err := intercycle.OpenFrom(c.nl, g.Trace, c.nl.FFQWires())
	if err != nil {
		return t // unreachable: every wire is a flip-flop output
	}
	// The golden halt state is one step past the last checkpoint.
	c.run.Restore(g.Checkpoints[halt-1])
	c.run.Step()
	m := c.run.Machine()
	for f, cyc := range from {
		if cyc == halt {
			continue
		}
		m.FlipFF(f)
		if c.run.Halted() {
			t.from[f] = int32(cyc)
			if c.run.Signature() != g.Signature {
				t.verdict[f] = OutcomeSDC
			}
		}
		m.FlipFF(f)
	}
	return t
}
