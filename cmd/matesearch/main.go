// Command matesearch runs the heuristic MATE search on one of the built-in
// processor netlists and reports the search statistics (the data behind
// Table 1). The discovered MATE set can be dumped to a file for use with
// the prune and campaign tools.
//
//	matesearch -cpu avr                  # all flip-flops
//	matesearch -cpu msp430 -norf         # excluding the register file
//	matesearch -cpu avr -o avr.mates     # dump the MATE set
//	matesearch -cpu avr -exact           # merge exact BDD-derived terms + certificates
//	matesearch -cpu avr -print           # print every MATE
//	matesearch -verilog design.v         # search an imported netlist
//	matesearch -cpu avr -export avr.v    # export the core as structural Verilog
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/hafi"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/verilog"
)

// obsCleanup flushes -stats-json and stops the /metrics endpoint; installed
// by main once observability is initialised so every exit path runs it.
var obsCleanup = func() {}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "matesearch: %v\n", err)
	obsCleanup()
	os.Exit(1)
}

func usage(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "matesearch: "+format+"\n", args...)
	flag.Usage()
	obsCleanup()
	os.Exit(2)
}

func main() {
	cpu := flag.String("cpu", "avr", "processor: avr or msp430")
	noRF := flag.Bool("norf", false, "exclude the register file from the fault set")
	depth := flag.Int("depth", 8, "fault-propagation path depth")
	maxTerms := flag.Int("terms", 4, "max gate-masking terms per MATE")
	maxCand := flag.Int("candidates", 100000, "candidate budget per faulty wire")
	out := flag.String("o", "", "write the MATE set to this file")
	exactOn := flag.Bool("exact", false, "augment the heuristic set with exact BDD-derived terms and unmaskability certificates")
	exactBudget := flag.Int("exact-budget", 0, "BDD node budget per fault cone (0 = default)")
	exactWidth := flag.Int("exact-width", 0, "drop exact terms wider than this many literals (0 = unlimited)")
	print := flag.Bool("print", false, "print every discovered MATE")
	verilogIn := flag.String("verilog", "", "search this structural-Verilog netlist instead of a built-in core")
	export := flag.String("export", "", "write the selected netlist as structural Verilog and exit")
	strict := flag.Bool("strict", false, "preflight lint: treat warnings as failures")
	obsOpts := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	reg, cleanup, err := obsOpts.Init(os.Stderr)
	if err != nil {
		fail(err)
	}
	obsCleanup = cleanup
	defer cleanup()

	var nl *netlist.Netlist
	var wires []netlist.WireID
	if *verilogIn != "" {
		f, err := os.Open(*verilogIn)
		if err != nil {
			fail(err)
		}
		parsed, err := verilog.Read(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		nl = parsed
		if *noRF {
			wires = nl.FFQWires("regfile")
		} else {
			wires = nl.FFQWires()
		}
	} else {
		// The netlist needs no program: the bare core.
		target, err := hafi.AssembleTarget(*cpu, "")
		if err != nil {
			usage("%v", err)
		}
		nl = target.NL
		if *noRF {
			wires = nl.FFQWires(target.RFGroups...)
		} else {
			wires = nl.FFQWires()
		}
	}
	if err := lint.Preflight(os.Stderr, nl, *strict); err != nil {
		fail(err)
	}

	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fail(err)
		}
		if err := verilog.Write(f, nl); err != nil {
			fail(err)
		}
		f.Close()
		fmt.Printf("exported %s to %s\n", nl.Name, *export)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	params := core.DefaultSearchParams()
	params.Depth = *depth
	params.MaxTerms = *maxTerms
	params.MaxCandidates = *maxCand
	params.Context = ctx
	params.Obs = reg

	defer obsOpts.StartProgress(reg, obs.ProgressConfig{
		Label: "search", Unit: "wires",
		Done:  reg.Counter("search_wires_done_total"),
		Total: reg.Gauge("search_wires"),
	})()

	st := nl.Stats()
	fmt.Printf("netlist %s: %s\n", nl.Name, st)
	res := core.Search(nl, wires, params)
	fmt.Printf("faulty wires:    %d\n", len(wires))
	fmt.Printf("avg cone:        %.0f gates\n", res.AvgConeGates())
	fmt.Printf("median cone:     %d gates\n", res.MedianConeGates())
	fmt.Printf("run time:        %v\n", res.Elapsed)
	fmt.Printf("unmaskable:      %d\n", res.Unmaskable)
	fmt.Printf("MATE candidates: %d\n", res.TotalCandidates)
	fmt.Printf("MATEs:           %d\n", res.Set.Size())
	mean, std := res.Set.AvgInputs()
	fmt.Printf("avg inputs:      %.1f ± %.1f\n", mean, std)

	if *exactOn && !res.Interrupted {
		er := exact.FindExactTerms(nl, wires, res.Set, exact.Options{
			NodeBudget:   *exactBudget,
			MaxTermWidth: *exactWidth,
			Obs:          reg,
		})
		created := er.MergeInto(res.Set)
		fmt.Printf("exact terms:     %d new (term, wire) pairs, %d new MATEs\n", er.TermsFound, created)
		fmt.Printf("exact certified: %d unmaskable flip-flops\n", len(er.Certificates))
		fmt.Printf("exact BDD nodes: %d (%d cones over budget)\n", er.BDDNodes, er.Truncated)
		fmt.Printf("exact run time:  %v\n", er.Elapsed)
		fmt.Printf("MATEs total:     %d\n", res.Set.Size())
	}

	if *print {
		for _, m := range res.Set.MATEs {
			fmt.Printf("  %s (masks %d wires)\n", m.String(nl), len(m.Masks))
		}
	}
	if res.Interrupted {
		// A partial MATE set is sound (every MATE found is valid) but
		// covers only part of the fault set; refuse to persist it so it
		// cannot masquerade as a complete search result.
		fmt.Println("interrupted: true (partial search, output file not written)")
		obsCleanup()
		os.Exit(130)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := core.WriteMATESet(f, nl, res.Set); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}
