// Command tracesim simulates a workload on one of the built-in processor
// netlists, cycle by cycle at gate level, and writes the wire-level trace
// as a VCD file — the equivalent of the paper's netlist-simulation step.
//
//	tracesim -cpu avr -prog fib -o avr_fib.vcd
//	tracesim -cpu msp430 -prog conv -cycles 8500 -o msp_conv.vcd
//	tracesim -cpu avr -asm myprog.s -o my.vcd
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/hafi"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/sim"
	"repro/internal/vcd"
)

// obsCleanup flushes -stats-json and stops the /metrics endpoint; installed
// by main once observability is initialised so every exit path runs it.
var obsCleanup = func() {}

func main() {
	cpu := flag.String("cpu", "avr", "processor: avr or msp430")
	prog := flag.String("prog", "fib", "built-in workload: fib, conv or sort")
	asm := flag.String("asm", "", "assemble this file instead of a built-in workload")
	cycles := flag.Int("cycles", progs.TraceCycles, "number of cycles to record (>= 1)")
	out := flag.String("o", "", "VCD output file (default: <cpu>_<prog>.vcd)")
	obsOpts := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	reg, cleanup, err := obsOpts.Init(os.Stderr)
	if err != nil {
		fail(err)
	}
	obsCleanup = cleanup
	defer cleanup()

	// Argument hardening: a typo must produce a usage error, not a silent
	// fall-through to a default workload.
	target, err := hafi.NewTarget(*cpu, *prog)
	if err != nil {
		usage("%v", err)
	}
	if *cycles < 1 {
		usage("-cycles %d out of range (want >= 1)", *cycles)
	}

	if *asm != "" {
		data, err := os.ReadFile(*asm)
		if err != nil {
			fail(err)
		}
		if target, err = hafi.AssembleTarget(*cpu, string(data)); err != nil {
			fail(err)
		}
	}

	var cyclesDone *obs.Counter
	var onCycle func(int)
	if reg != nil {
		reg.Gauge("tracesim_cycles").Set(int64(*cycles))
		cyclesDone = reg.Counter("tracesim_cycles_done_total")
		onCycle = func(int) { cyclesDone.Inc() }
		defer obsOpts.StartProgress(reg, obs.ProgressConfig{
			Label: "tracesim", Unit: "cycles",
			Done:  cyclesDone,
			Total: reg.Gauge("tracesim_cycles"),
		})()
	}
	r := target.NewRun()
	sp := reg.StartSpan("record")
	tr := sim.RecordObserved(r.Machine(), r.Env(), *cycles, onCycle)
	sp.End()

	name := *out
	if name == "" {
		name = fmt.Sprintf("%s_%s.vcd", *cpu, *prog)
	}
	f, err := os.Create(name)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := vcd.Write(f, target.NL, tr); err != nil {
		fail(err)
	}
	fmt.Printf("recorded %d cycles of %d wires to %s\n", tr.NumCycles(), tr.NumWires, name)
}

func usage(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "tracesim: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "tracesim: %v\n", err)
	obsCleanup()
	os.Exit(1)
}
