// Command bench is the campaign-stack benchmark: it runs the stack the way
// cmd/campaign, cmd/campaignd and cmd/campaignworker run it, on four
// workloads, prints every metric by name with its unit, and fails if any
// verdict check fails. See README.md.
//
//	go run ./bench -seed 1                          # all workloads, both halves
//	go run ./bench -seed 1 -workload avr-fib-seu    # one workload
//	go run ./bench -seed 1 -out a.json              # keep the report
//	go run ./bench -compare a.json b.json           # agreement check
//
// The benchmark driver runs one workload and one half at a time:
//
//	bench --workload NAME --seed N --seconds S --trace 0|1
//
// and reads the JSON object on the last line of standard output.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 0, "selects the stride phase of every fault list and the audit sample")
	seconds := flag.Float64("seconds", 20, "keep timing reps until this much has been measured (never fewer than 5 reps)")
	traceFlag := flag.Int("trace", -1, "0: timed reps and end-to-end metrics only; 1: traced rep and per-layer metrics only; default both")
	out := flag.String("out", "", "write the full report as JSON to this file")
	outDir := flag.String("outdir", "bench/out", "directory for trace files and temporary journals")
	scale := flag.String("scale", "full", "full, or smoke: stride x 20 and one timed rep, for tests")
	cmp := flag.Bool("compare", false, "compare two -out reports: bench -compare A.json B.json")
	flag.Parse()

	if *cmp {
		return compareFiles(flag.Args())
	}
	if flag.NArg() > 0 {
		return usage("unexpected argument %q", flag.Arg(0))
	}
	sc := fullScale
	switch *scale {
	case "full":
	case "smoke":
		sc = smokeScale
	default:
		return usage("unknown -scale %q (want full or smoke)", *scale)
	}
	if *traceFlag < -1 || *traceFlag > 1 {
		return usage("-trace %d out of range (want 0 or 1)", *traceFlag)
	}
	if *seconds < 0 || *seconds > 600 {
		return usage("-seconds %g out of range (want 0..600)", *seconds)
	}
	selected := workloads
	if *name != "" {
		wl, ok := findWorkload(*name)
		if !ok {
			return usage("unknown workload %q", *name)
		}
		selected = []workload{wl}
	}

	// Two wide devices are the whole machine here; more processors would
	// only change what the numbers mean.
	runtime.GOMAXPROCS(poolDevices)
	rp := &report{Machine: machine(), Seed: *seed, Scale: *scale}
	if rp.Machine.Degraded {
		fmt.Fprintf(os.Stderr, "bench: degraded run: %d CPU(s) for a pool of %d devices\n", rp.Machine.NProc, poolDevices)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fail(err)
	}
	tmp, err := os.MkdirTemp(*outDir, "tmp-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)

	fmt.Printf("campaign-stack benchmark: seed=%d scale=%s nproc=%d gomaxprocs=%d %s degraded=%v\n",
		*seed, *scale, rp.Machine.NProc, rp.Machine.GOMAXPROCS, rp.Machine.GoVersion, rp.Machine.Degraded)
	for _, wl := range selected {
		var r *workloadReport
		if *traceFlag != 1 {
			if r, err = runEndToEnd(wl, *seed, sc, *seconds, tmp); err != nil {
				return fail(fmt.Errorf("%s: %w", wl.name, err))
			}
		}
		if *traceFlag != 0 {
			layers, err := runLayers(wl, *seed, sc, tmp, *outDir)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", wl.name, err))
			}
			if r == nil {
				r = layers
			} else {
				r.merge(layers)
			}
		}
		r.print(os.Stdout)
		rp.Workloads = append(rp.Workloads, r)
	}
	if *out != "" {
		if err := writeReport(*out, rp); err != nil {
			return fail(err)
		}
	}
	if len(selected) == 1 && *traceFlag >= 0 {
		r := rp.Workloads[0]
		ms, defs := r.EndToEnd, endToEndDefs
		if *traceFlag == 1 {
			ms, defs = r.PerLayer, perLayerDefs
		}
		line, err := driverLine(r, ms, defs)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("%s\n", line)
	}
	if !rp.correct() {
		fmt.Fprintln(os.Stderr, "bench: correctness checks failed")
		return 1
	}
	return 0
}

func compareFiles(args []string) int {
	if len(args) != 2 {
		return usage("-compare wants two report files")
	}
	a, err := readReport(args[0])
	if err != nil {
		return fail(err)
	}
	b, err := readReport(args[1])
	if err != nil {
		return fail(err)
	}
	if !compare(os.Stdout, a, b) {
		return 1
	}
	return 0
}

func usage(format string, args ...interface{}) int {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	flag.Usage()
	return 2
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 1
}
