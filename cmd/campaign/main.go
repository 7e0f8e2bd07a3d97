// Command campaign runs a complete fault-injection campaign on the modelled
// HAFI platform: golden run, (flip-flop × cycle) fault list, checkpointed
// experiment execution with outcome classification, and optional online
// MATE pruning.
//
//	campaign -cpu avr -prog fib -stride 25
//	campaign -cpu msp430 -prog conv -stride 50 -noprune
//	campaign -cpu avr -prog fib -validate     # verify every pruned point
//
// Campaigns are interruptible and resumable: with -journal, every
// classified point is durably logged, SIGINT/SIGTERM drains in-flight
// experiments and prints the partial result with an `interrupted: true`
// marker (exit status 130), and -resume replays the journal and finishes
// only the remaining points — reproducing the exact result of an
// uninterrupted run.
//
//	campaign -cpu avr -prog fib -journal fib.journal          # crash-safe
//	campaign -cpu avr -prog fib -journal fib.journal -resume  # pick it up
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/hafi"
	"repro/internal/journal"
	"repro/internal/lint"
	"repro/internal/obs"
)

// obsCleanup flushes -stats-json and stops the /metrics endpoint; installed
// by main once observability is initialised so every exit path runs it.
var obsCleanup = func() {}

func main() {
	cpu := flag.String("cpu", "avr", "processor: avr or msp430")
	prog := flag.String("prog", "fib", "built-in workload: fib, conv or sort")
	stride := flag.Int("stride", 25, "inject every FF at every stride-th cycle (>= 1)")
	faultModel := flag.String("fault-model", "seu", "fault model: seu, mbu[:span], set, intermittent[:period[,window]], stuck0[:window] or stuck1[:window]")
	noPrune := flag.Bool("noprune", false, "disable online MATE pruning")
	validate := flag.Bool("validate", false, "re-execute pruned points and verify benignity")
	noRF := flag.Bool("norf", false, "exclude the register file from the fault list")
	lanes := flag.Int("lanes", hafi.DefaultCampaignLanes, "lanes per batched device instance (positive multiple of 64, at most 65536)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "shard the campaign over this many device instances (>= 1)")
	noEarlyExit := flag.Bool("no-early-exit", false, "disable the golden-state convergence early-exit (every experiment runs to halt or timeout)")
	strict := flag.Bool("strict", false, "preflight lint: treat warnings as failures")
	journalPath := flag.String("journal", "", "durably log every classified point to this file")
	resume := flag.Bool("resume", false, "resume from the -journal file: replay classified points, run only the rest")
	interruptAfter := flag.Int("interruptafter", 0, "cancel the campaign after N classified points (deterministic interruption for tests; 0 = never)")
	obsOpts := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	reg, cleanup, err := obsOpts.Init(os.Stderr)
	if err != nil {
		fail(err)
	}
	obsCleanup = cleanup
	defer cleanup()

	// Argument hardening: a typo must produce a usage error, not a silent
	// fall-through to the default workload.
	target, err := hafi.NewTarget(*cpu, *prog)
	if err != nil {
		usage("%v", err)
	}
	if *stride < 1 {
		usage("-stride %d out of range (want >= 1)", *stride)
	}
	if *resume && *journalPath == "" {
		usage("-resume requires -journal")
	}
	if *workers < 1 {
		usage("-workers %d out of range (want >= 1)", *workers)
	}
	if *lanes < 64 || *lanes%64 != 0 || *lanes > 1<<16 {
		usage("-lanes %d out of range (want a positive multiple of 64, at most 65536)", *lanes)
	}
	modelSpec, err := hafi.ParseModelSpec(*faultModel)
	if err != nil {
		usage("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	nl := target.NL
	if err := lint.Preflight(os.Stderr, nl, *strict); err != nil {
		fail(err)
	}
	groups := target.RFGroups
	if !*noRF {
		groups = nil
	}

	start := time.Now()
	gsp := reg.StartSpan("golden")
	golden, err := target.Golden()
	gsp.End()
	if err != nil {
		fail(err)
	}
	fmt.Printf("golden run: %d cycles, signature %016x (%v)\n",
		golden.HaltCycle, golden.Signature, time.Since(start).Round(time.Millisecond))

	var set *core.MATESet
	if !*noPrune {
		params := core.DefaultSearchParams()
		params.Context = ctx
		params.Obs = reg
		res := core.Search(nl, nl.FFQWires(groups...), params)
		if res.Interrupted {
			fmt.Println("interrupted: true (during MATE search, no experiments run)")
			obsCleanup()
			os.Exit(130)
		}
		set = res.Set
		fmt.Printf("MATE search: %d MATEs in %v\n", set.Size(), res.Elapsed.Round(time.Millisecond))
	}

	points := hafi.ModelFaultList(nl, golden.HaltCycle, *stride, modelSpec, groups...)
	ctl := hafi.NewController(target.NewRun(), golden)

	var jw *journal.Writer
	var recovered *journal.Recovered
	if *journalPath != "" {
		hdr := ctl.JournalHeader(points)
		if *resume {
			jw, recovered, err = journal.ResumeInstrumented(*journalPath, hdr, reg)
			if err == nil && (recovered.Torn || recovered.Corrupt) {
				fmt.Fprintf(os.Stderr, "campaign: journal tail damaged (torn=%v corrupt=%v, %d bytes dropped); affected points will re-run\n",
					recovered.Torn, recovered.Corrupt, recovered.DroppedBytes)
			}
		} else {
			jw, err = journal.Create(*journalPath, hdr)
		}
		if err != nil {
			fail(err)
		}
		jw.Instrument(reg)
		defer jw.Close()
	}

	cfg := hafi.CampaignConfig{
		Points:           points,
		MATESet:          set,
		ValidateSkipped:  *validate,
		DisableEarlyExit: *noEarlyExit,
		Context:          ctx,
		Journal:          jw,
		Resume:           recovered,
		Obs:              reg,
	}
	defer obsOpts.StartProgress(reg, obs.ProgressConfig{
		Label: "campaign", Unit: "points",
		Done:        reg.Counter("campaign_points_done_total"),
		Total:       reg.Gauge("campaign_points"),
		Masked:      reg.Counter("campaign_pruned_total"),
		Converged:   reg.Counter("campaign_converged_total"),
		Workers:     reg.Gauge("campaign_workers"),
		WorkersBusy: reg.Gauge("campaign_workers_busy"),
		Lanes:       reg.Gauge("campaign_lanes"),
	})()
	if *interruptAfter > 0 {
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		cfg.Context = cctx
		n := *interruptAfter
		cfg.Progress = func(done int) {
			if done >= n {
				cancel()
			}
		}
	}

	start = time.Now()
	runs, err := target.Pool(*lanes, *workers, len(points))
	if err != nil {
		fail(err)
	}
	res, err := ctl.RunCampaignBatchedPoolWithW(cfg, runs)
	if err != nil {
		fail(err)
	}
	if recovered != nil {
		fmt.Printf("resumed:    %d points replayed from %s\n", len(recovered.ByIndex), *journalPath)
	}
	fmt.Printf("campaign:   %d injection points (stride %d, model %s)\n", res.Total, *stride, modelSpec)
	fmt.Printf("pruned:     %d (%.2f%%) proven benign online by MATEs\n",
		res.Skipped, 100*res.PrunedFraction())
	fmt.Printf("executed:   %d experiments in %v\n", res.Executed, time.Since(start).Round(time.Millisecond))
	if res.Converged > 0 {
		fmt.Printf("converged:  %d experiments retired early by golden-state convergence (%d cycles saved)\n",
			res.Converged, res.CyclesSaved)
	}
	fmt.Printf("outcomes:   benign=%d sdc=%d hang=%d\n",
		res.ByOutcome[hafi.OutcomeBenign], res.ByOutcome[hafi.OutcomeSDC], res.ByOutcome[hafi.OutcomeHang])
	if set != nil && len(res.PrunedByMATE) > 0 {
		type mateCredit struct {
			idx int
			n   int64
		}
		credits := make([]mateCredit, 0, len(res.PrunedByMATE))
		for m, n := range res.PrunedByMATE {
			credits = append(credits, mateCredit{m, n})
		}
		sort.Slice(credits, func(a, b int) bool {
			if credits[a].n != credits[b].n {
				return credits[a].n > credits[b].n
			}
			return credits[a].idx < credits[b].idx
		})
		if len(credits) > 3 {
			credits = credits[:3]
		}
		fmt.Printf("top MATEs: ")
		for i, c := range credits {
			if i > 0 {
				fmt.Print(",")
			}
			fmt.Printf(" #%d (width %d) pruned %d", c.idx, len(set.MATEs[c.idx].Literals), c.n)
		}
		fmt.Println()
	}
	if n := res.ByOutcome[hafi.OutcomeHarnessError]; n > 0 {
		fmt.Printf("harness:    %d experiments failed in the harness (outcome %s)\n", n, hafi.OutcomeHarnessError)
	}
	if *validate {
		fmt.Printf("validation: %d pruned points re-executed, %d violations\n", res.Skipped, res.SkippedWrong)
		if res.SkippedWrong > 0 {
			fail(fmt.Errorf("MATE soundness violated"))
		}
	}
	if res.Interrupted {
		fmt.Println("interrupted: true (partial result; resume with -journal ... -resume)")
		if jw != nil {
			jw.Close()
		}
		obsCleanup()
		os.Exit(130)
	}
}

func usage(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "campaign: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
	obsCleanup()
	os.Exit(1)
}
