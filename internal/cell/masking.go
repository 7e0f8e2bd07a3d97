package cell

import (
	"sort"
	"strings"
	"sync"
)

// GMTerm is a gate-masking term: a partial assignment to the healthy
// (non-faulty) input pins of a cell that forces the cell's output to be
// independent of the values on the faulty pins. When all literals of the
// term hold, a fault arriving on any combination of the faulty pins is
// stopped at this gate (paper, Section 4: "for every gate type, we iterate
// over all combinations of faulty input wires and find all input-pin
// assignments that will mask the current faulty-input set").
//
// Mask has one bit per pin; a set bit means the pin is constrained, and the
// corresponding bit of Value gives the required level. Pins in the faulty
// set are never constrained.
type GMTerm struct {
	Mask  uint32
	Value uint32
}

// Pins returns the constrained pins and their required values.
func (t GMTerm) Pins() []PinLiteral {
	var out []PinLiteral
	for i := 0; i < MaxInputs; i++ {
		if t.Mask>>i&1 == 1 {
			out = append(out, PinLiteral{Pin: i, Value: t.Value>>i&1 == 1})
		}
	}
	return out
}

// NumLiterals returns the number of constrained pins.
func (t GMTerm) NumLiterals() int {
	n := 0
	for m := t.Mask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// PinLiteral is one (pin, value) constraint of a GMTerm.
type PinLiteral struct {
	Pin   int
	Value bool
}

// String renders a term like "A=0 B=1" using the cell's pin names.
func (t GMTerm) String(c *Cell) string {
	var parts []string
	for _, pl := range t.Pins() {
		v := "0"
		if pl.Value {
			v = "1"
		}
		parts = append(parts, c.Pins[pl.Pin]+"="+v)
	}
	return strings.Join(parts, " ")
}

type gmKey struct {
	kind   Kind
	faulty uint32
}

var (
	gmMu    sync.Mutex
	gmCache = map[gmKey][]GMTerm{}
)

// MaskingTerms returns the minimal gate-masking terms for the given cell and
// faulty-pin set. The result is empty when the cell has no fault-masking
// capability for that set (e.g. any faulty pin of an XOR gate, or when all
// pins are faulty). Results are memoized per (kind, faulty set).
//
// A partial assignment A masks the faulty set F iff for every completion of
// the pins not constrained by A and not in F, the output is the same for all
// 2^|F| values of the faulty pins. Only minimal assignments (no constrained
// pin can be dropped) are returned; any superset assignment is implied.
func MaskingTerms(c *Cell, faulty uint32) []GMTerm {
	faulty &= 1<<c.inputs - 1
	if faulty == 0 {
		// Nothing is faulty; the (empty) term trivially "masks".
		return []GMTerm{{}}
	}
	key := gmKey{c.Kind, faulty}
	gmMu.Lock()
	if terms, ok := gmCache[key]; ok {
		gmMu.Unlock()
		return terms
	}
	gmMu.Unlock()

	terms := deriveMaskingTerms(c, faulty)
	gmMu.Lock()
	gmCache[key] = terms
	gmMu.Unlock()
	return terms
}

func deriveMaskingTerms(c *Cell, faulty uint32) []GMTerm {
	n := c.inputs
	all := uint32(1<<n) - 1
	healthy := all &^ faulty

	var healthyPins []int
	for i := 0; i < n; i++ {
		if healthy>>i&1 == 1 {
			healthyPins = append(healthyPins, i)
		}
	}

	var kept []GMTerm
	// Enumerate partial assignments over healthy pins by popcount order so
	// that minimality filtering only needs to check already-kept subsets.
	type cand struct{ mask, value uint32 }
	var cands []cand
	// All subsets of healthy pins.
	for sub := healthy; ; sub = (sub - 1) & healthy {
		// all value patterns over sub
		var enum func(bits uint32, idx int, val uint32)
		enum = func(bits uint32, idx int, val uint32) {
			if idx == len(healthyPins) {
				cands = append(cands, cand{bits, val})
				return
			}
			p := healthyPins[idx]
			if bits>>p&1 == 0 {
				enum(bits, idx+1, val)
				return
			}
			enum(bits, idx+1, val)
			enum(bits, idx+1, val|1<<p)
		}
		enum(sub, 0, 0)
		if sub == 0 {
			break
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		pi, pj := popcount(cands[i].mask), popcount(cands[j].mask)
		if pi != pj {
			return pi < pj
		}
		if cands[i].mask != cands[j].mask {
			return cands[i].mask < cands[j].mask
		}
		return cands[i].value < cands[j].value
	})

	for _, cd := range cands {
		// Skip if a kept minimal term is a sub-assignment of this one.
		sub := false
		for _, k := range kept {
			if k.Mask&cd.mask == k.Mask && k.Value == cd.value&k.Mask {
				sub = true
				break
			}
		}
		if sub {
			continue
		}
		if assignmentMasks(c, faulty, cd.mask, cd.value) {
			kept = append(kept, GMTerm{Mask: cd.mask, Value: cd.value})
		}
	}
	return kept
}

// assignmentMasks reports whether fixing the pins in `mask` to `value`
// makes the output independent of the pins in `faulty`, for every
// completion of the remaining pins.
func assignmentMasks(c *Cell, faulty, mask, value uint32) bool {
	n := c.inputs
	all := uint32(1<<n) - 1
	free := all &^ faulty &^ mask

	// Iterate over completions of free pins and all faulty patterns.
	for comp := free; ; comp = (comp - 1) & free {
		base := value | comp
		ref := c.Eval(base) // faulty pins all 0
		for fp := faulty; fp != 0; fp = (fp - 1) & faulty {
			if c.Eval(base|fp) != ref {
				return false
			}
		}
		if comp == 0 {
			break
		}
	}
	return true
}

func popcount(v uint32) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}
