// Package nltest grows seeded random netlists for the property tests of the
// packages that analyse netlists, and checks simulation environments
// against the sim.Env contract.
package nltest

import (
	"fmt"
	"math/rand"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// GateSoup grows a feed-forward gate soup: random cells whose inputs are
// drawn from already-driven wires, flip-flops closed afterwards so state
// feedback is allowed while combinational cycles are not. A flip-flop's D
// may be another's Q, a primary output, or shared with another flip-flop.
func GateSoup(rng *rand.Rand) *netlist.Netlist {
	kinds := []cell.Kind{
		cell.BUF, cell.INV, cell.AND2, cell.NAND2, cell.OR2, cell.NOR2,
		cell.XOR2, cell.XNOR2, cell.AND3, cell.OR3, cell.MUX2, cell.MAJ3,
		cell.AOI21, cell.OAI21,
	}
	b := netlist.NewBuilder("prop-gates")
	var avail []netlist.WireID
	nIn := 2 + rng.Intn(3)
	for i := 0; i < nIn; i++ {
		avail = append(avail, b.Input(fmt.Sprintf("in%d", i)))
	}
	nFF := 2 + rng.Intn(4)
	qs := make([]netlist.WireID, nFF)
	for i := range qs {
		qs[i] = b.FFPlaceholder(fmt.Sprintf("ff%d", i), rng.Intn(2) == 1, "")
		avail = append(avail, qs[i])
	}
	nGates := 8 + rng.Intn(20)
	for i := 0; i < nGates; i++ {
		k := kinds[rng.Intn(len(kinds))]
		ins := make([]netlist.WireID, cell.Lookup(k).NumInputs())
		for p := range ins {
			ins[p] = avail[rng.Intn(len(avail))]
		}
		avail = append(avail, b.Gate(k, ins...))
	}
	for _, q := range qs {
		b.SetFFD(q, avail[rng.Intn(len(avail))])
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		b.MarkOutput(avail[len(avail)-1-rng.Intn(nGates)])
	}
	return b.MustNetlist()
}
