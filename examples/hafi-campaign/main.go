// hafi-campaign: fault-injection campaign on the modelled HAFI platform,
// with and without online MATE pruning.
//
// The controller records a golden run, walks the full (flip-flop × cycle)
// fault list on a pool of wide devices, and classifies every experiment as
// benign, silent data corruption or hang. With MATEs attached, injections
// proven benign are skipped before execution; the example re-executes every
// skipped point to demonstrate soundness, and reports the FPGA LUT budget
// of the MATE set (paper Section 6.1). It exits non-zero when a skipped
// point is not benign or pruning changes the SDC or hang count.
//
//	go run ./examples/hafi-campaign
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/hafi"
	"repro/internal/prune"
)

const workload = `
    ldi r1, 12      ; iterations
    ldi r2, 1
    ldi r3, 0
loop:
    add r3, r2
    add r2, r3
    lsr r3
    dec r1
    brne loop
    ldi r4, 32
    st (r4), r2
    st (r4), r3    ; overwrite — only the final store matters
    out r2
    halt
`

func main() {
	target, err := hafi.AssembleTarget("avr", workload)
	if err != nil {
		log.Fatal(err)
	}
	nl := target.NL

	// The golden run is recorded on lane 0 of a 64-lane device.
	golden, err := target.Golden()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("golden run: %d cycles, result signature %016x\n", golden.HaltCycle, golden.Signature)

	points := hafi.FullFaultList(nl, golden.HaltCycle)
	fmt.Printf("fault space: %d flip-flops × %d cycles = %d points\n\n",
		len(nl.FFs), golden.HaltCycle, len(points))

	// One FI controller spreads the campaign over a pool of wide devices, one
	// per core, each playing one FPGA of the paper's platform.
	ctl := hafi.NewController(target.NewRun(), golden)
	runs, err := target.Pool(hafi.DefaultCampaignLanes, runtime.GOMAXPROCS(0), len(points))
	if err != nil {
		log.Fatal(err)
	}

	// --- baseline: no pruning ---------------------------------------------
	start := time.Now()
	base, err := ctl.RunCampaignBatchedPoolWithW(hafi.CampaignConfig{Points: points}, runs)
	if err != nil {
		log.Fatal(err)
	}
	baseTime := time.Since(start)
	fmt.Printf("baseline campaign: %d experiments in %v\n", base.Executed, baseTime.Round(time.Millisecond))
	fmt.Printf("  benign=%d sdc=%d hang=%d\n\n",
		base.ByOutcome[hafi.OutcomeBenign], base.ByOutcome[hafi.OutcomeSDC], base.ByOutcome[hafi.OutcomeHang])

	// --- with online MATE pruning (validated) --------------------------------
	res := core.Search(nl, nl.FFQWires(), core.DefaultSearchParams())
	top := prune.SelectTopN(res.Set, golden.Trace, nl.FFQWires(), 100)
	fmt.Printf("MATE set: %d found, top-100 selected, %d LUTs (%.2f%% of a 1.5k-LUT FI controller)\n",
		res.Set.Size(), hafi.LUTCost(top), 100*hafi.OverheadVsController(top, hafi.FIControllerLUTsLow))

	start = time.Now()
	pruned, err := ctl.RunCampaignBatchedPoolWithW(hafi.CampaignConfig{
		Points:          points,
		MATESet:         top,
		ValidateSkipped: true,
	}, runs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pruned campaign: %d of %d points skipped (%.2f%%), %d executed in %v\n",
		pruned.Skipped, pruned.Total, 100*pruned.PrunedFraction(), pruned.Executed,
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("  benign=%d sdc=%d hang=%d\n",
		pruned.ByOutcome[hafi.OutcomeBenign], pruned.ByOutcome[hafi.OutcomeSDC], pruned.ByOutcome[hafi.OutcomeHang])
	fmt.Printf("  validation: every skipped point re-executed, %d violations\n", pruned.SkippedWrong)
	if pruned.SkippedWrong != 0 {
		log.Fatal("MATE soundness violated")
	}

	// --- consistency check ---------------------------------------------------
	if pruned.ByOutcome[hafi.OutcomeSDC] != base.ByOutcome[hafi.OutcomeSDC] ||
		pruned.ByOutcome[hafi.OutcomeHang] != base.ByOutcome[hafi.OutcomeHang] {
		log.Fatal("pruning changed the set of effective faults")
	}
	fmt.Println("\npruning removed only benign experiments: SDC and hang counts unchanged")
}
