package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
	"repro/internal/netlist"
)

// Each unit operation is timed in ladderRounds rounds of calls, the rounds
// of the different operations interleaved; the reported cost is the mean per
// call of the fastest round. The operations do the same work every call, so
// noise on the box can only add time, and one quiet round is enough.
const ladderRounds = 5

// The operations one device Step is made of, plus the two bus transposes
// the environment is built on.
const (
	opGather  = iota // MachineW.GatherLanes on the store-data bus
	opScatter        // MachineW.ScatterLanes on the load-data bus
	opEval           // MachineW.EvalComb
	opEnv            // EnvW.SetInputsW
	opSettle         // MachineW.Settle = eval + env + the environment's cone
	opCommit         // MachineW.CommitFFs
	numOps
)

// unitCosts are the per-call costs in nanoseconds, by active lane-group
// count (index 0 is unused) and operation.
type unitCosts struct {
	ns    [5][numOps]float64
	gates int
}

// envCone is the restricted second pass of Settle: what is left of it
// after the full pass and the environment.
func (u *unitCosts) envCone(g int) float64 {
	return math.Max(0, u.ns[g][opSettle]-u.ns[g][opEval]-u.ns[g][opEnv])
}

// stepNS is the modelled cost of one Step at g active groups.
func (u *unitCosts) stepNS(g int) float64 {
	return u.ns[g][opEval] + u.ns[g][opEnv] + u.envCone(g) + u.ns[g][opCommit]
}

// dataBuses returns the wires GatherLanes reads (store data) and
// ScatterLanes writes (load data) on the workload's core. Core synthesis is
// deterministic, so the wire ids of a fresh core are those of the device's.
func dataBuses(cpu string) (gather, scatter []netlist.WireID, err error) {
	switch cpu {
	case "avr":
		c := avr.NewCore()
		return c.DMemWData, c.DMemRData, nil
	case "msp430":
		c := msp430.NewCore()
		return c.DMemWData, c.DMemRData, nil
	}
	return nil, nil, fmt.Errorf("bench: no data bus known for cpu %q", cpu)
}

// ladder measures the unit costs on the workload's own device. The device
// is loaded at the golden checkpoint of cycle halt/2 and lane l gets
// flip-flop l mod #FF flipped — the state of a full batch right after
// injection — so the environment runs its per-lane paths, not only the
// all-lanes-agree fast path a fault-free device would take. Narrower
// widths are reached the way the engine reaches them, by CompactLanes.
// Every campaign batch starts with LoadCheckpoint, so the state the ladder
// leaves behind is never seen.
func (fx *fixture) ladder(calls int) (*unitCosts, error) {
	dev, ok := fx.runs[0].(wideDevice)
	if !ok {
		return nil, fmt.Errorf("bench: device %T lacks the capabilities the ladder drives", fx.runs[0])
	}
	gatherBus, scatterBus, err := dataBuses(fx.wl.cpu)
	if err != nil {
		return nil, err
	}
	m, env := dev.MachW(), dev.EnvW()
	u := &unitCosts{gates: len(fx.target.NL.Gates)}
	nFF := len(fx.target.NL.FFs)
	groups := dev.Lanes() / 64

	// load puts the device in the measured state at g active groups.
	load := func(g int) {
		dev.LoadCheckpoint(fx.golden.Checkpoints[fx.golden.HaltCycle/2])
		for l := 0; l < dev.Lanes(); l++ {
			dev.FlipLane(l%nFF, l)
		}
		if g < groups {
			src := make([]uint16, 64*g)
			for i := range src {
				src[i] = uint16(i)
			}
			dev.CompactLanes(src)
		}
	}

	vals := make([]uint16, dev.Lanes())
	timeCalls := func(f func()) func() time.Duration {
		return func() time.Duration {
			start := time.Now()
			for i := 0; i < calls; i++ {
				f()
			}
			return time.Since(start)
		}
	}
	ops := [numOps]func() time.Duration{
		opGather:  timeCalls(func() { m.GatherLanes(gatherBus, vals) }),
		opScatter: timeCalls(func() { m.ScatterLanes(scatterBus, vals) }),
		opEval:    timeCalls(m.EvalComb),
		// The environment is timed where Settle calls it, right after a
		// combinational pass; called back to back it runs measurably slower
		// and the cone cost, a difference, would come out negative.
		opEnv: func() time.Duration {
			var busy time.Duration
			for i := 0; i < calls; i++ {
				m.EvalComb()
				start := time.Now()
				env.SetInputsW(m)
				busy += time.Since(start)
			}
			return busy
		},
		opSettle: timeCalls(func() { m.Settle(env) }),
		// Last: committing stale combinational values changes the state.
		opCommit: timeCalls(m.CommitFFs),
	}
	for g := groups; g >= 1; g-- {
		for r := 0; r < ladderRounds; r++ {
			load(g)
			for op, run := range ops {
				ns := float64(run().Nanoseconds()) / float64(calls)
				if r == 0 || ns < u.ns[g][op] {
					u.ns[g][op] = ns
				}
			}
		}
	}
	return u, nil
}
