package intercycle

import (
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// The containment kernel evaluates one cycle of containment (see the
// package comment) for 64 trace cycles at once: bit t of every word is
// cycle base+t. A block of the golden trace is transposed into one word per
// wire, each fault wire's cone is re-evaluated on words with its own bit
// inverted, and two words come out per fault wire and block — the cycles
// where the flip escaped, and the cycles where its own D recaptured the
// golden value (killed). Every other cycle of the block holds.
//
// Blocks are visited last first, so a fold from the trace end (Analyze's
// verdicts, OpenFrom's held suffix) consumes them in the order it needs
// and a fault wire can leave the scan as soon as its fate is settled.

// cone is one fault wire's one-cycle fan-out, compiled for the kernel.
type cone struct {
	q, ownD netlist.WireID
	gates   []int32          // cone gates in evaluation order
	sinks   []netlist.WireID // wires whose change is an escape
}

// compile builds the kernel's cone of flip-flop output q. Its sinks are
// core.ComputeCone's less q's own D, which counts only when another
// flip-flop captures it too: whether the own D differs decides between held
// and killed.
func compile(nl *netlist.Netlist, q netlist.WireID) cone {
	cc := core.ComputeCone(nl, q)
	ownD := nl.FFs[nl.FFByQ(q)].D
	c := cone{q: q, ownD: ownD, gates: cc.Gates}
	for _, w := range cc.Sinks {
		if w != ownD || len(nl.FFsOfD(w)) > 1 {
			c.sinks = append(c.sinks, w)
		}
	}
	return c
}

// blocks is one worker's view of the trace: the transposed current block
// and the scratch a cone is re-evaluated in.
type blocks struct {
	nl        *netlist.Netlist
	tr        *sim.Trace
	gold, val []uint64 // per wire, bit t = cycle base+t; val is gold outside the cone being evaluated
	xp        [64]uint64
}

func newBlocks(nl *netlist.Netlist, tr *sim.Trace) *blocks {
	n := (nl.NumWires() + 63) &^ 63
	return &blocks{nl: nl, tr: tr, gold: make([]uint64, n), val: make([]uint64, n)}
}

// load transposes trace cycles [base, base+n) into gold and val; the bits
// of cycles past the trace end are zero.
func (k *blocks) load(base, n int) {
	for word := 0; word < len(k.gold)/64; word++ {
		for t := 0; t < 64; t++ {
			k.xp[t] = 0
			if t < n {
				k.xp[t] = k.tr.Row(base + t)[word]
			}
		}
		transpose64(&k.xp)
		copy(k.gold[word*64:], k.xp[:])
	}
	copy(k.val, k.gold)
}

// contain re-evaluates c with its source inverted in every cycle of the
// block and returns the cycles where the flip escaped and those where it
// was killed.
func (k *blocks) contain(c *cone) (escape, kill uint64) {
	gold, val, gates := k.gold, k.val, k.nl.Gates
	val[c.q] = ^gold[c.q]
	for _, gi := range c.gates {
		g := &gates[gi]
		var in [4]uint64
		for p, w := range g.Inputs {
			in[p] = val[w]
		}
		val[g.Output], _ = g.Cell.Kind.EvalWords(&in)
	}
	for _, s := range c.sinks {
		escape |= val[s] ^ gold[s]
	}
	kill = ^escape &^ (val[c.ownD] ^ gold[c.ownD])
	val[c.q] = gold[c.q]
	for _, gi := range c.gates {
		o := gates[gi].Output
		val[o] = gold[o]
	}
	return escape, kill
}

// scan runs the kernel over the trace for every fault wire, last block
// first, on up to GOMAXPROCS workers. Each worker owns every workers-th
// fault wire, its own cones and its own block scratch. visit sees one
// (fault wire, block) with the block's cycle range and its escape and kill
// words, masked to the block; it returns false once the wire needs no
// earlier block. Calls for different fault wires may run concurrently.
func scan(nl *netlist.Netlist, tr *sim.Trace, faultWires []netlist.WireID, visit func(i, base, n int, escape, kill uint64) bool) {
	workers := min(runtime.GOMAXPROCS(0), len(faultWires))
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			var mine []int
			var cones []cone
			for i := wk; i < len(faultWires); i += workers {
				mine = append(mine, i)
				cones = append(cones, compile(nl, faultWires[i]))
			}
			k := newBlocks(nl, tr)
			cycles := tr.NumCycles()
			for base := (cycles - 1) &^ 63; base >= 0 && len(mine) > 0; base -= 64 {
				n := min(64, cycles-base)
				mask := ^uint64(0) >> uint(64-n)
				k.load(base, n)
				live := 0
				for j, i := range mine {
					esc, kill := k.contain(&cones[j])
					if visit(i, base, n, esc&mask, kill&mask) {
						mine[live], cones[live] = i, cones[j]
						live++
					}
				}
				mine, cones = mine[:live], cones[:live]
			}
		}(wk)
	}
	wg.Wait()
}

// OpenFrom returns, per fault wire, the first cycle from which a flip of
// it is exactly held until the trace ends: from[i] <= c < NumCycles exactly
// when Analyze's PerWire[i][c] is VerdictOpenEnd, and from[i] == NumCycles
// when the last cycle does not hold. A wire leaves the backward scan at its
// first escape or kill, so the cost follows the held suffixes rather than
// the trace length. Fault wires must be flip-flop outputs of nl.
func OpenFrom(nl *netlist.Netlist, tr *sim.Trace, faultWires []netlist.WireID) ([]int, error) {
	if err := checkFaultWires(nl, faultWires); err != nil {
		return nil, err
	}
	from := make([]int, len(faultWires)) // 0: no block stopped the wire
	scan(nl, tr, faultWires, func(i, base, n int, escape, kill uint64) bool {
		if stop := escape | kill; stop != 0 {
			from[i] = base + 64 - bits.LeadingZeros64(stop)
			return false
		}
		return true
	})
	return from, nil
}

// transpose64 transposes a 64×64 bit matrix in place: bit j of a[i]
// becomes bit i of a[j].
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k+j] ^= t
			a[k] ^= t << uint(j)
		}
		m ^= m << uint(j>>1)
	}
}
