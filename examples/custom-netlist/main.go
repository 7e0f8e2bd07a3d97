// custom-netlist: the bring-your-own-design flow.
//
// The paper's tool consumes netlists produced by a synthesis flow; this
// example shows the equivalent path here without the built-in CPU cores:
//
//  1. build a small custom design (an accumulating checksum engine with a
//     command interface) with the structural synthesis API,
//
//  2. export it as structural Verilog and re-import it (the interchange
//     point for external designs),
//
//  3. run the MATE search, stuck-at fault collapsing and the offline
//     inter-cycle analysis on the imported netlist,
//
//  4. run a fault-injection campaign against it with the generic
//     netlist-level campaign target (hafi.NetlistRun) and online MATE
//     pruning, validating every pruned point.
//
//     go run ./examples/custom-netlist
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/cell"
	"repro/internal/collapse"
	"repro/internal/core"
	"repro/internal/hafi"
	"repro/internal/intercycle"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/verilog"
)

// buildEngine creates a small synchronous design: an 8-bit accumulator
// that, while `run` is high, folds a rotating data input into a checksum;
// a 6-bit cycle counter raises `done` after 40 cycles and freezes the
// machine. The structure (enable-muxed state, qualified output bus) gives
// the MATE search realistic masking opportunities.
func buildEngine() (*netlist.Netlist, synth.Bus, netlist.WireID, netlist.WireID) {
	b := netlist.NewBuilder("cksum_engine")
	c := synth.New(b)

	data := c.InputBus("data", 8)
	en := b.Input("en")

	done := c.RegisterPlaceholder("done", 1, 0, "ctrl")
	running := b.Gate(cell.INV, done[0])
	step := b.GateNamed("step", cell.AND2, en, running)

	// checksum: acc' = rotl1(acc) xor data
	acc := c.RegisterPlaceholder("acc", 8, 0, "acc")
	rot, _ := c.ShiftLeft1(acc, acc[7])
	next := c.Xor(rot, data)
	c.ConnectRegister(acc, next, step)

	// staging register only used every 4th cycle — inter-cycle fodder
	cnt := c.RegisterPlaceholder("cnt", 6, 0, "ctrl")
	c.ConnectRegister(cnt, c.Inc(cnt).Sum, step)
	every4 := c.EqualConst(synth.Bus{cnt[0], cnt[1]}, 3)
	stage := c.RegisterPlaceholder("stage", 8, 0, "stage")
	c.ConnectRegister(stage, acc, b.Gate(cell.AND2, step, every4))

	doneNow := c.EqualConst(cnt, 40)
	c.ConnectRegisterAlways(done, synth.Bus{b.Gate(cell.OR2, done[0], doneNow)})

	// output bus qualified by done: the result is visible once finished
	out := c.AndBit(stage, done[0])
	c.OutputBus(out)
	b.MarkOutput(done[0])

	return b.MustNetlist(), data, en, done[0]
}

// stimulus resolves the engine's ports by name and returns its input
// drive, a pure function of the cycle as hafi.NetlistRun requires, and the
// done wire that ends the workload.
func stimulus(nl *netlist.Netlist) (drive func(cycle int, m *sim.Machine), done netlist.WireID) {
	dataW := make(synth.Bus, 8)
	for i := range dataW {
		w, ok := nl.WireByName(fmt.Sprintf("data[%d]", i))
		if !ok {
			log.Fatal("data wire lost")
		}
		dataW[i] = w
	}
	enW, _ := nl.WireByName("en")
	done, _ = nl.WireByName("done[0]")
	return func(cycle int, m *sim.Machine) {
		m.WriteBus(dataW, uint64(cycle*31+7)&0xFF)
		m.SetValue(enW, true)
	}, done
}

func main() {
	nl, _, _, _ := buildEngine()
	fmt.Printf("designed %s: %s\n", nl.Name, nl.Stats())

	// --- Verilog round trip ------------------------------------------------
	var buf bytes.Buffer
	if err := verilog.Write(&buf, nl); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exported %d bytes of structural Verilog\n", buf.Len())
	imported, err := verilog.Read(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-imported: %s\n\n", imported.Stats())
	nl = imported

	// The port wires move with the round trip; resolve them by name.
	drive, doneW := stimulus(nl)

	// --- static + offline analyses ------------------------------------------
	col := collapse.Collapse(nl)
	fmt.Printf("fault collapsing:   %s\n", col)

	res := core.Search(nl, nl.FFQWires(), core.DefaultSearchParams())
	fmt.Printf("MATE search:        %d MATEs, %d unmaskable of %d FFs\n",
		res.Set.Size(), res.Unmaskable, len(nl.FFs))

	run := hafi.NewNetlistRun(nl, doneW, drive)
	golden, err := hafi.RecordGolden(run, 1000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("golden run:         %d cycles, signature %016x\n", golden.HaltCycle, golden.Signature)

	inter, err := intercycle.Analyze(nl, golden.Trace, nl.FFQWires())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline analysis:   %s\n\n", inter)

	// --- campaign with online pruning -----------------------------------------
	points := hafi.FullFaultList(nl, golden.HaltCycle)
	ctl := hafi.NewController(run, golden)
	camp, err := ctl.RunCampaign(hafi.CampaignConfig{
		Points:          points,
		MATESet:         res.Set,
		ValidateSkipped: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign:           %d points, %d pruned online (%.1f%%), outcomes %v\n",
		camp.Total, camp.Skipped, 100*camp.PrunedFraction(), camp.ByOutcome)
	fmt.Printf("validation:         %d violations among pruned points\n", camp.SkippedWrong)
	if camp.SkippedWrong != 0 {
		log.Fatal("soundness violated")
	}
}
