// Command campaignd is the fleet coordinator: it plans a fault-injection
// campaign (golden run, fault list, MATE search), splits the fault space
// into shards, and serves them to campaignworker processes over HTTP/JSON
// under TTL leases with fencing tokens. Worker crashes re-lease, zombie
// uploads are fenced off, and the coordinator's own state (lease table,
// shard status) is journaled to -dir so a restarted coordinator resumes the
// campaign exactly where it stopped. Once every shard's journal has been
// uploaded and verified, the shards are merged into one campaign journal —
// point-for-point identical to an uninterrupted single-process run, and
// directly consumable by campaignreport.
//
//	campaignd -cpu avr -prog fib -stride 25 -shards 8 -addr 127.0.0.1:9200 -dir /tmp/fleet
//	campaignworker -coordinator http://127.0.0.1:9200 &   # as many as you like
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hafi"
	"repro/internal/lint"
	"repro/internal/obs"
)

var obsCleanup = func() {}

func main() {
	cpu := flag.String("cpu", "avr", "processor: avr or msp430")
	prog := flag.String("prog", "fib", "built-in workload: fib, conv or sort")
	stride := flag.Int("stride", 25, "inject every FF at every stride-th cycle (>= 1)")
	faultModel := flag.String("fault-model", "seu", "fault model: seu, mbu[:span], set, intermittent[:period[,window]], stuck0[:window] or stuck1[:window]")
	noPrune := flag.Bool("noprune", false, "disable online MATE pruning")
	noRF := flag.Bool("norf", false, "exclude the register file from the fault list")
	noEarlyExit := flag.Bool("no-early-exit", false, "disable the golden-state convergence early-exit and the held rule fleet-wide")
	shards := flag.Int("shards", 8, "split the fault space into this many shards (>= 1)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "lease expiry without a heartbeat (> 0)")
	heartbeat := flag.Duration("heartbeat", 0, "heartbeat interval advertised to workers (default lease-ttl/4; must be < lease-ttl)")
	addr := flag.String("addr", "127.0.0.1:9200", "host:port the coordinator API listens on")
	dir := flag.String("dir", "", "durable coordinator directory (state log + spooled shard journals)")
	output := flag.String("output", "", "merged campaign journal path (default <dir>/campaign.journal)")
	strict := flag.Bool("strict", false, "preflight lint: treat warnings as failures")
	obsOpts := obs.RegisterFlags(flag.CommandLine)
	obsOpts.Component = "campaignd"
	flag.Parse()

	// Argument hardening up front: a bad flag must be a usage error before
	// the golden run burns a minute of CPU.
	target, err := hafi.NewTarget(*cpu, *prog)
	if err != nil {
		usage("%v", err)
	}
	if *stride < 1 {
		usage("-stride %d out of range (want >= 1)", *stride)
	}
	if *shards < 1 {
		usage("-shards %d out of range (want >= 1)", *shards)
	}
	modelSpec, err := hafi.ParseModelSpec(*faultModel)
	if err != nil {
		usage("%v", err)
	}
	if *leaseTTL <= 0 {
		usage("-lease-ttl %v out of range (want > 0)", *leaseTTL)
	}
	hb := *heartbeat
	if hb == 0 {
		hb = *leaseTTL / 4
	}
	if hb <= 0 || hb >= *leaseTTL {
		usage("-heartbeat %v must be positive and below -lease-ttl %v", *heartbeat, *leaseTTL)
	}
	if *dir == "" {
		usage("-dir is required (the coordinator's durable state lives there)")
	}
	if _, _, err := net.SplitHostPort(*addr); err != nil {
		usage("bad -addr %q: %v", *addr, err)
	}

	reg, cleanup, err := obsOpts.Init(os.Stderr)
	if err != nil {
		fail(err)
	}
	obsCleanup = cleanup
	defer cleanup()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := lint.Preflight(os.Stderr, target.NL, *strict); err != nil {
		fail(err)
	}
	groups := target.RFGroups
	if !*noRF {
		groups = nil
	}

	start := time.Now()
	golden, err := target.Golden()
	if err != nil {
		fail(err)
	}
	fmt.Printf("golden run: %d cycles, signature %016x (%v)\n",
		golden.HaltCycle, golden.Signature, time.Since(start).Round(time.Millisecond))

	var mateSet string
	if !*noPrune {
		params := core.DefaultSearchParams()
		params.Context = ctx
		params.Obs = reg
		res := core.Search(target.NL, target.NL.FFQWires(groups...), params)
		if res.Interrupted {
			fmt.Println("interrupted: true (during MATE search, no shards planned)")
			obsCleanup()
			os.Exit(130)
		}
		var sb strings.Builder
		if err := core.WriteMATESet(&sb, target.NL, res.Set); err != nil {
			fail(err)
		}
		mateSet = sb.String()
		fmt.Printf("MATE search: %d MATEs in %v\n", res.Set.Size(), res.Elapsed.Round(time.Millisecond))
	}

	points := hafi.ModelFaultList(target.NL, golden.HaltCycle, *stride, modelSpec, groups...)
	coord, err := fleet.NewCoordinator(points, golden.Signature, fleet.Options{
		Shards:    *shards,
		LeaseTTL:  *leaseTTL,
		Heartbeat: hb,
		Dir:       *dir,
		Output:    *output,
		Spec: fleet.Spec{
			CPU: *cpu, Prog: *prog, Stride: *stride, NoRF: *noRF,
			FaultModel: modelSpec.String(),
			MATESet:    mateSet, DisableEarlyExit: *noEarlyExit,
		},
		Obs:    reg,
		Events: obsOpts.Events,
		Trace:  obsOpts.Trace,
		Logf:   func(format string, args ...interface{}) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	})
	if err != nil {
		fail(err)
	}
	defer coord.Close()

	// The 1 Hz -progress line is driven by the heartbeat-aggregated fleet
	// gauges: before the first telemetry-bearing heartbeat the done gauge
	// stays 0 and the reporter degrades to "--:--" for the ETA.
	stopProgress := obsOpts.StartProgress(reg, obs.ProgressConfig{
		Label:     "fleet",
		Unit:      "points",
		DoneGauge: reg.Gauge("fleet_points_done"),
		Total:     reg.Gauge("fleet_points_total"),
	})
	defer stopProgress()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	srv := &http.Server{Handler: fleet.NewHandler(coord, reg), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	st := coord.Status()
	fmt.Printf("coordinator: %d points in %d shards on http://%s (lease TTL %v, heartbeat %v)\n",
		len(points), st.Shards, ln.Addr(), *leaseTTL, hb)
	fmt.Printf("dashboard:   http://%s/dashboard (JSON: /status, trace %s)\n", ln.Addr(), st.TraceID)

	select {
	case <-coord.MergedCh():
	case <-ctx.Done():
		st := coord.Status()
		fmt.Printf("interrupted: true (%d/%d shards done; restart campaignd with the same -dir to resume)\n",
			st.Done, st.Shards)
		srv.Close()
		coord.Close()
		obsCleanup()
		os.Exit(130)
	}

	// Linger so polling workers observe the "done" verdict before the API
	// disappears.
	linger := time.NewTimer(2 * hb)
	defer linger.Stop()
	select {
	case <-linger.C:
	case <-ctx.Done():
	}

	st = coord.Status()
	fmt.Printf("campaign:   %d shards merged into %s\n", st.Shards, st.Output)
	fmt.Printf("fleet:      %d leases granted, %d expired, %d re-leased, %d stale completions fenced off\n",
		st.Counters["fleet_leases_granted_total"], st.Counters["fleet_lease_expiries_total"],
		st.Counters["fleet_lease_regrants_total"], st.Counters["fleet_completions_stale_total"])
	fmt.Printf("retired:    %d converged, %d held (heartbeat-sampled: a killed worker's work since its last heartbeat is missing, re-run shards count again)\n",
		st.Counters["campaign_converged_total"], st.Counters["campaign_held_total"])
}

func usage(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "campaignd: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "campaignd: %v\n", err)
	obsCleanup()
	os.Exit(1)
}
