// Command netlistlint runs the static analyzers of internal/lint over a
// netlist: structural checks (multi-driven wires, floating inputs,
// combinational cycles, pin-count mismatches, dead logic) plus semantic
// checks of the masking data (exhaustive gate-masking term verification,
// MATE cone-border validation).
//
//	netlistlint -cpu avr                          # lint a built-in core
//	netlistlint -verilog design.v -strict         # gate a synthesized netlist
//	netlistlint -verilog design.v -mates m.mates  # also validate a MATE set
//	netlistlint -cpu avr -mates m.mates -exact    # BDD-backed soundness proofs
//	netlistlint -analyzers comb-cycle,undriven -verilog design.v
//	netlistlint -list                             # show all analyzers
//
// Exit status: 0 clean, 1 findings (errors, or any finding under -strict),
// 2 usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/hafi"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/verilog"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netlistlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cpu := fs.String("cpu", "", "lint a built-in core: avr or msp430")
	verilogFile := fs.String("verilog", "", "lint this structural-Verilog netlist")
	matesFile := fs.String("mates", "", "also validate this MATE set against the netlist")
	exactOn := fs.Bool("exact", false, "re-prove the MATE set with the exact BDD engine (requires -mates)")
	exactBudget := fs.Int("exact-budget", 0, "BDD node budget per fault cone (0 = default)")
	analyzers := fs.String("analyzers", "", "comma-separated analyzer names (default: all)")
	list := fs.Bool("list", false, "list the registered analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit the result as JSON")
	strict := fs.Bool("strict", false, "treat warnings as failures")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Structural() {
			fmt.Fprintf(stdout, "%-16s structural  %s\n", a.Name, a.Doc)
		}
		for _, a := range lint.Semantic() {
			fmt.Fprintf(stdout, "%-16s semantic    %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var nl *netlist.Netlist
	switch {
	case *cpu != "" && *verilogFile != "":
		fmt.Fprintln(stderr, "netlistlint: -cpu and -verilog are mutually exclusive")
		return 2
	case *cpu != "":
		// The netlist needs no program: the bare core.
		target, err := hafi.AssembleTarget(*cpu, "")
		if err != nil {
			fmt.Fprintf(stderr, "netlistlint: %v\n", err)
			return 2
		}
		nl = target.NL
	case *verilogFile != "":
		f, err := os.Open(*verilogFile)
		if err != nil {
			fmt.Fprintf(stderr, "netlistlint: %v\n", err)
			return 2
		}
		nl, err = verilog.ReadRaw(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "netlistlint: %v\n", err)
			return 2
		}
		// Best-effort finalization so the NeedsFinished analyzers can run;
		// on failure the structural analyzers report each defect precisely,
		// so the error itself is redundant.
		nl.Finish()
	default:
		fmt.Fprintln(stderr, "netlistlint: pick a netlist with -cpu or -verilog (or use -list)")
		fs.Usage()
		return 2
	}

	opts := lint.Options{}
	if *analyzers != "" {
		var names []string
		for _, n := range strings.Split(*analyzers, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		as, err := lint.ByNames(names)
		if err != nil {
			fmt.Fprintf(stderr, "netlistlint: %v\n", err)
			return 2
		}
		opts.Analyzers = as
	}
	if *matesFile != "" {
		if !nl.Finished() {
			fmt.Fprintln(stderr, "netlistlint: cannot validate a MATE set against an ill-formed netlist; fix the structural errors first")
			return 2
		}
		f, err := os.Open(*matesFile)
		if err != nil {
			fmt.Fprintf(stderr, "netlistlint: %v\n", err)
			return 2
		}
		set, err := core.ReadMATESet(f, nl)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "netlistlint: %v\n", err)
			return 2
		}
		opts.MATESet = set
	}
	if *exactOn {
		if opts.MATESet == nil {
			fmt.Fprintln(stderr, "netlistlint: -exact needs a MATE set (-mates)")
			return 2
		}
		opts.Exact = &exact.Options{NodeBudget: *exactBudget}
	}

	res := lint.Run(nl, opts)
	var err error
	if *jsonOut {
		err = res.WriteJSON(stdout)
	} else {
		err = res.WriteText(stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "netlistlint: %v\n", err)
		return 2
	}
	if res.Failed(*strict) {
		return 1
	}
	return 0
}
