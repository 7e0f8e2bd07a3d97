// Package cell provides the logical view of a standard-cell library for
// combinational gates, together with the derivation of gate-masking terms
// (GM terms) as defined in "Cross-Layer Fault-Space Pruning for
// Hardware-Assisted Fault Injection" (DAC '18), Section 4.
//
// The paper synthesizes its processors against the 15nm FinFET-based Open
// Cell Library and only uses the logical function of each gate for the MATE
// search. This package therefore models cells purely as boolean functions
// (truth tables over up to MaxInputs pins); timing and area are out of
// scope. The DFF is intentionally absent: sequential elements are modelled
// by the netlist layer, while this package covers the combinational cells
// between them.
package cell

import "fmt"

// MaxInputs is the maximum number of input pins any library cell may have.
// GM-term derivation enumerates 3^n partial assignments, so this is kept
// small; the 15nm Open Cell Library used by the paper also tops out at
// four-input cells.
const MaxInputs = 5

// Kind identifies a cell type in the library.
type Kind uint8

// Library cell kinds. The selection mirrors the combinational subset of the
// 15nm Open Cell Library: inverters/buffers, 2-4 input
// AND/NAND/OR/NOR gates, XOR/XNOR, a 2:1 multiplexer, and the classic
// AOI/OAI complex gates that synthesis tools love. TIE cells provide
// constant drivers.
const (
	TIE0 Kind = iota // constant 0, no inputs
	TIE1             // constant 1, no inputs
	BUF
	INV
	AND2
	AND3
	AND4
	NAND2
	NAND3
	NAND4
	OR2
	OR3
	OR4
	NOR2
	NOR3
	NOR4
	XOR2
	XNOR2
	MUX2  // out = S ? B : A, pins (A, B, S)
	AOI21 // out = !((A & B) | C), pins (A, B, C)
	AOI22 // out = !((A & B) | (C & D))
	OAI21 // out = !((A | B) & C)
	OAI22 // out = !((A | B) & (C | D))
	MAJ3  // out = majority(A, B, C); carry gate of a full adder
	numKinds
)

// Cell is the logical description of one library cell: its pin names and
// its truth table. The truth table is indexed by the input vector
// interpreted as an integer with pin 0 as the least-significant bit.
type Cell struct {
	Kind   Kind
	Name   string
	Pins   []string
	tt     uint32 // output bit per input vector; valid for len(Pins) <= 5
	inputs int
}

// NumInputs returns the number of input pins of the cell.
func (c *Cell) NumInputs() int { return c.inputs }

// Eval evaluates the cell for the given input vector (pin 0 = bit 0).
func (c *Cell) Eval(inputs uint32) bool {
	return c.tt>>(inputs&(1<<c.inputs-1))&1 == 1
}

// TruthTable exposes the raw truth table, mainly for tests and for exact
// cone simulation during MATE verification.
func (c *Cell) TruthTable() uint32 { return c.tt }

func (c *Cell) String() string { return c.Name }

// lib holds the singleton library, indexed by Kind.
var lib [numKinds]*Cell

// Lookup returns the library cell of the given kind.
func Lookup(k Kind) *Cell {
	if int(k) >= int(numKinds) {
		panic(fmt.Sprintf("cell: unknown kind %d", k))
	}
	return lib[k]
}

// All returns every cell in the library in Kind order.
func All() []*Cell {
	out := make([]*Cell, numKinds)
	copy(out, lib[:])
	return out
}

// define registers one cell computed from fn over its input count.
func define(k Kind, name string, pins []string, fn func(in uint32) bool) {
	n := len(pins)
	if n > MaxInputs {
		panic("cell: too many pins for " + name)
	}
	var tt uint32
	for v := uint32(0); v < 1<<n; v++ {
		if fn(v) {
			tt |= 1 << v
		}
	}
	lib[k] = &Cell{Kind: k, Name: name, Pins: pins, tt: tt, inputs: n}
}

func bit(v uint32, i int) bool { return v>>i&1 == 1 }

func init() {
	define(TIE0, "TIE0", nil, func(uint32) bool { return false })
	define(TIE1, "TIE1", nil, func(uint32) bool { return true })
	define(BUF, "BUF", []string{"A"}, func(v uint32) bool { return bit(v, 0) })
	define(INV, "INV", []string{"A"}, func(v uint32) bool { return !bit(v, 0) })

	andN := func(n int) func(uint32) bool {
		return func(v uint32) bool { return v&(1<<n-1) == 1<<n-1 }
	}
	orN := func(n int) func(uint32) bool {
		return func(v uint32) bool { return v&(1<<n-1) != 0 }
	}
	not := func(fn func(uint32) bool) func(uint32) bool {
		return func(v uint32) bool { return !fn(v) }
	}
	define(AND2, "AND2", []string{"A", "B"}, andN(2))
	define(AND3, "AND3", []string{"A", "B", "C"}, andN(3))
	define(AND4, "AND4", []string{"A", "B", "C", "D"}, andN(4))
	define(NAND2, "NAND2", []string{"A", "B"}, not(andN(2)))
	define(NAND3, "NAND3", []string{"A", "B", "C"}, not(andN(3)))
	define(NAND4, "NAND4", []string{"A", "B", "C", "D"}, not(andN(4)))
	define(OR2, "OR2", []string{"A", "B"}, orN(2))
	define(OR3, "OR3", []string{"A", "B", "C"}, orN(3))
	define(OR4, "OR4", []string{"A", "B", "C", "D"}, orN(4))
	define(NOR2, "NOR2", []string{"A", "B"}, not(orN(2)))
	define(NOR3, "NOR3", []string{"A", "B", "C"}, not(orN(3)))
	define(NOR4, "NOR4", []string{"A", "B", "C", "D"}, not(orN(4)))
	define(XOR2, "XOR2", []string{"A", "B"}, func(v uint32) bool { return bit(v, 0) != bit(v, 1) })
	define(XNOR2, "XNOR2", []string{"A", "B"}, func(v uint32) bool { return bit(v, 0) == bit(v, 1) })
	define(MUX2, "MUX2", []string{"A", "B", "S"}, func(v uint32) bool {
		if bit(v, 2) {
			return bit(v, 1)
		}
		return bit(v, 0)
	})
	define(AOI21, "AOI21", []string{"A", "B", "C"}, func(v uint32) bool {
		return !(bit(v, 0) && bit(v, 1) || bit(v, 2))
	})
	define(AOI22, "AOI22", []string{"A", "B", "C", "D"}, func(v uint32) bool {
		return !(bit(v, 0) && bit(v, 1) || bit(v, 2) && bit(v, 3))
	})
	define(OAI21, "OAI21", []string{"A", "B", "C"}, func(v uint32) bool {
		return !((bit(v, 0) || bit(v, 1)) && bit(v, 2))
	})
	define(OAI22, "OAI22", []string{"A", "B", "C", "D"}, func(v uint32) bool {
		return !((bit(v, 0) || bit(v, 1)) && (bit(v, 2) || bit(v, 3)))
	})
	define(MAJ3, "MAJ3", []string{"A", "B", "C"}, func(v uint32) bool {
		n := 0
		for i := 0; i < 3; i++ {
			if bit(v, i) {
				n++
			}
		}
		return n >= 2
	})
}

// EvalWords evaluates a cell of kind k on 64 input vectors at once: bit t
// of the result is the output for the vector whose pin p is bit t of in[p].
// It is the library's one table of word formulas; ok is false for a kind
// outside the library.
func (k Kind) EvalWords(in *[4]uint64) (out uint64, ok bool) {
	switch k {
	case TIE0:
		return 0, true
	case TIE1:
		return ^uint64(0), true
	case BUF:
		return in[0], true
	case INV:
		return ^in[0], true
	case AND2:
		return in[0] & in[1], true
	case AND3:
		return in[0] & in[1] & in[2], true
	case AND4:
		return in[0] & in[1] & in[2] & in[3], true
	case NAND2:
		return ^(in[0] & in[1]), true
	case NAND3:
		return ^(in[0] & in[1] & in[2]), true
	case NAND4:
		return ^(in[0] & in[1] & in[2] & in[3]), true
	case OR2:
		return in[0] | in[1], true
	case OR3:
		return in[0] | in[1] | in[2], true
	case OR4:
		return in[0] | in[1] | in[2] | in[3], true
	case NOR2:
		return ^(in[0] | in[1]), true
	case NOR3:
		return ^(in[0] | in[1] | in[2]), true
	case NOR4:
		return ^(in[0] | in[1] | in[2] | in[3]), true
	case XOR2:
		return in[0] ^ in[1], true
	case XNOR2:
		return ^(in[0] ^ in[1]), true
	case MUX2:
		return (^in[2] & in[0]) | (in[2] & in[1]), true
	case AOI21:
		return ^((in[0] & in[1]) | in[2]), true
	case AOI22:
		return ^((in[0] & in[1]) | (in[2] & in[3])), true
	case OAI21:
		return ^((in[0] | in[1]) & in[2]), true
	case OAI22:
		return ^((in[0] | in[1]) & (in[2] | in[3])), true
	case MAJ3:
		return (in[0] & in[1]) | (in[0] & in[2]) | (in[1] & in[2]), true
	}
	return 0, false
}
