// Package intercycle implements offline inter-cycle fault-space pruning on
// recorded execution traces — the complement of the paper's intra-cycle
// MATEs. Section 6.3 observes that "faults in flipflops not overwritten in
// the next cycle could never be masked [by MATEs]" and that register-level
// faults "are more likely to be pruned on an inter-cycle pruning strategy";
// the introduction notes that fault-space pruning "is often performed
// offline on a recorded execution trace". This package is that offline
// analysis, made exact at gate level:
//
// A fault (ff, t) is *contained* in cycle u when, starting from the golden
// state of cycle u with only ff flipped, re-evaluating ff's fault cone
// shows that (a) every cone sink except ff's own D input carries its
// golden value, and (b) ff's own D either equals its golden value (the
// fault is overwritten — killed) or equals the flipped Q (the fault is
// exactly held). By induction over cycles, a fault injected at t is
// provably benign iff containment holds from t until a killing cycle is
// reached before the end of the trace.
//
// Compared to MATEs this is strictly more powerful (a MATE trigger is the
// special case "killed in the first cycle" or "cone masked entirely"), but
// it needs the whole recorded trace and per-fault cone simulation, so it
// runs offline in the campaign planner, while MATEs evaluate in a handful
// of LUTs online. The two compose: run intercycle offline where a trace
// exists, keep MATEs in the FPGA for everything else.
package intercycle

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// Verdict classifies one (flip-flop, cycle) injection point.
type Verdict uint8

const (
	// VerdictUnknown: the fault escaped its flip-flop within the analysed
	// window — it may be effective (inject it).
	VerdictUnknown Verdict = iota
	// VerdictBenign: the fault stayed confined to its flip-flop and was
	// overwritten with the golden value before the trace ended.
	VerdictBenign
	// VerdictOpenEnd: the fault stayed confined until the end of the
	// trace without being overwritten; it never became architecturally
	// visible inside the trace, but its fate past the trace is unknown.
	VerdictOpenEnd
)

func (v Verdict) String() string {
	switch v {
	case VerdictBenign:
		return "benign"
	case VerdictOpenEnd:
		return "open-end"
	default:
		return "unknown"
	}
}

// Result summarises an inter-cycle analysis for one fault set.
type Result struct {
	FaultWires  int
	Cycles      int
	TotalPoints int64
	// Benign counts points with VerdictBenign; OpenEnd those confined to
	// the trace end. Reduction() uses Benign only (the sound choice).
	Benign  int64
	OpenEnd int64
	// PerWire[i] is the verdict per cycle for fault wire i.
	PerWire [][]Verdict
}

// Reduction returns the provably-benign share of the fault space.
func (r *Result) Reduction() float64 {
	if r.TotalPoints == 0 {
		return 0
	}
	return float64(r.Benign) / float64(r.TotalPoints)
}

// String renders the headline numbers.
func (r *Result) String() string {
	return fmt.Sprintf("inter-cycle: %d/%d points benign (%.2f%%), %d open-ended",
		r.Benign, r.TotalPoints, 100*r.Reduction(), r.OpenEnd)
}

// Analyze runs the exact inter-cycle analysis for every fault wire over
// the whole trace. Fault wires must be flip-flop outputs of nl. The
// containment kernel (kernel.go) takes 64 cycles per word and parallelises
// over fault wires.
func Analyze(nl *netlist.Netlist, tr *sim.Trace, faultWires []netlist.WireID) (*Result, error) {
	if err := checkFaultWires(nl, faultWires); err != nil {
		return nil, err
	}
	cycles := tr.NumCycles()
	res := &Result{
		FaultWires:  len(faultWires),
		Cycles:      cycles,
		TotalPoints: int64(len(faultWires)) * int64(cycles),
		PerWire:     make([][]Verdict, len(faultWires)),
	}
	// Fold backwards: the verdict of a fault held at a cycle is the fate of
	// the first cycle from there that does not hold it — unknown where it
	// escapes, benign where it is killed, open-end past the trace.
	state := make([]Verdict, len(faultWires))
	for i := range faultWires {
		res.PerWire[i] = make([]Verdict, cycles)
		state[i] = VerdictOpenEnd
	}
	scan(nl, tr, faultWires, func(i, base, n int, escape, kill uint64) bool {
		v, st := res.PerWire[i], state[i]
		for t := n - 1; t >= 0; t-- {
			switch {
			case escape>>uint(t)&1 == 1:
				st = VerdictUnknown
			case kill>>uint(t)&1 == 1:
				st = VerdictBenign
			}
			v[base+t] = st
		}
		state[i] = st
		return true
	})
	for _, v := range res.PerWire {
		for _, x := range v {
			switch x {
			case VerdictBenign:
				res.Benign++
			case VerdictOpenEnd:
				res.OpenEnd++
			}
		}
	}
	return res, nil
}

func checkFaultWires(nl *netlist.Netlist, faultWires []netlist.WireID) error {
	for _, w := range faultWires {
		if nl.FFByQ(w) < 0 {
			return fmt.Errorf("intercycle: wire %s is not a flip-flop output", nl.WireName(w))
		}
	}
	return nil
}
