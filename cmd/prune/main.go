// Command prune replays a recorded execution trace against a MATE set and
// reports the fault-space reduction — offline fault-space pruning as a
// HAFI campaign planner would run it. It can consume VCD traces written by
// tracesim (or recompute the trace itself) and MATE sets written by
// matesearch (or search on the fly).
//
//	prune -cpu avr -prog fib                     # everything on the fly
//	prune -cpu avr -prog fib -norf -top 50       # top-50 selection
//	prune -cpu msp430 -vcd msp_conv.vcd -mates msp.mates
//	prune -cpu avr -prog fib -intercycle         # offline inter-cycle analysis
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/hafi"
	"repro/internal/intercycle"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/prune"
	"repro/internal/sim"
	"repro/internal/vcd"
)

// obsCleanup flushes -stats-json and stops the /metrics endpoint; installed
// by main once observability is initialised so every exit path runs it.
var obsCleanup = func() {}

func main() {
	cpu := flag.String("cpu", "avr", "processor: avr or msp430")
	prog := flag.String("prog", "fib", "built-in workload: fib, conv or sort")
	vcdFile := flag.String("vcd", "", "replay this VCD trace instead of simulating")
	matesFile := flag.String("mates", "", "load this MATE set instead of searching")
	noRF := flag.Bool("norf", false, "exclude the register file from the fault set")
	top := flag.Int("top", 0, "evaluate only the top-N MATEs (0 = complete set)")
	cycles := flag.Int("cycles", progs.TraceCycles, "trace length when simulating")
	inter := flag.Bool("intercycle", false, "run the offline inter-cycle analysis instead of MATE replay")
	strict := flag.Bool("strict", false, "preflight lint: treat warnings as failures")
	obsOpts := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	target, err := hafi.NewTarget(*cpu, *prog)
	if err != nil {
		usage("%v", err)
	}

	reg, cleanup, err := obsOpts.Init(os.Stderr)
	if err != nil {
		fail(err)
	}
	obsCleanup = cleanup
	defer cleanup()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	nl := target.NL
	wires := nl.FFQWires()
	if *noRF {
		wires = nl.FFQWires(target.RFGroups...)
	}
	if err := lint.Preflight(os.Stderr, nl, *strict); err != nil {
		fail(err)
	}

	var tr *sim.Trace
	if *vcdFile == "" {
		r := target.NewRun()
		tr = sim.Record(r.Machine(), r.Env(), *cycles)
	} else {
		f, err := os.Open(*vcdFile)
		if err != nil {
			fail(err)
		}
		tr, err = vcd.Read(f, nl)
		f.Close()
		if err != nil {
			fail(err)
		}
	}

	if *inter {
		res, err := intercycle.Analyze(nl, tr, wires)
		if err != nil {
			fail(err)
		}
		fmt.Printf("trace:            %d cycles, %d fault wires\n", res.Cycles, res.FaultWires)
		fmt.Printf("fault space:      %d points\n", res.TotalPoints)
		fmt.Printf("provably benign:  %d points (%.2f%%)\n", res.Benign, 100*res.Reduction())
		fmt.Printf("open-ended:       %d points (confined to trace end)\n", res.OpenEnd)
		return
	}

	var set *core.MATESet
	if *matesFile != "" {
		f, err := os.Open(*matesFile)
		if err != nil {
			fail(err)
		}
		set, err = core.ReadMATESet(f, nl)
		f.Close()
		if err != nil {
			fail(err)
		}
	} else {
		params := core.DefaultSearchParams()
		params.Context = ctx
		params.Obs = reg
		sres := core.Search(nl, wires, params)
		if sres.Interrupted {
			fmt.Println("interrupted: true (during MATE search, nothing evaluated)")
			obsCleanup()
			os.Exit(130)
		}
		set = sres.Set
	}

	if *top > 0 {
		set = prune.SelectTopN(set, tr, wires, *top)
		fmt.Printf("selected top %d MATEs by trace hit count\n", set.Size())
	}

	defer obsOpts.StartProgress(reg, obs.ProgressConfig{
		Label: "replay", Unit: "cycles",
		Done:  reg.Counter("prune_cycles_done_total"),
		Total: reg.Gauge("prune_cycles"),
	})()
	res := prune.EvaluateInstrumented(ctx, set, tr, wires, reg)
	fmt.Printf("trace:            %d cycles, %d fault wires\n", res.Cycles, res.FaultWires)
	fmt.Printf("fault space:      %d points\n", res.TotalPoints)
	fmt.Printf("pruned as benign: %d points (%.2f%%)\n", res.MaskedPoints, 100*res.Reduction())
	fmt.Printf("effective MATEs:  %d (avg %.1f ± %.1f inputs)\n",
		res.EffectiveMATEs, res.AvgInputs, res.StdInputs)
	if ranked := res.RankedMATEs(); len(ranked) > 0 && ranked[0].PointsPruned > 0 {
		fmt.Println("top MATEs (cost/benefit = points pruned per term literal):")
		for i, st := range ranked {
			if i == 5 || st.PointsPruned == 0 {
				break
			}
			fmt.Printf("  #%-4d width %-2d triggers %-8d pruned %-8d c/b %.1f\n",
				st.Index, st.Literals, st.Triggers, st.PointsPruned, st.CostBenefit())
		}
	}
	if res.Interrupted {
		fmt.Println("interrupted: true (partial replay; masked count is a lower bound)")
		obsCleanup()
		os.Exit(130)
	}
}

func usage(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "prune: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "prune: %v\n", err)
	obsCleanup()
	os.Exit(1)
}
