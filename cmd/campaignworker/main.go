// Command campaignworker is the fleet worker: it joins a campaignd
// coordinator, reconstructs the campaign locally from the advertised spec
// (golden run, fault list, MATE set), verifies its reconstruction against
// the coordinator's fingerprints, and then leases shards one at a time —
// running each on the wide campaign engine under a heartbeat, and
// uploading the shard journal with jittered exponential retry.
//
// Failure semantics: losing a lease (another worker took the shard over
// after a missed heartbeat) abandons the shard silently; a restarting
// coordinator is waited out with backoff; the first SIGINT drains (finish
// and upload the current shard, then exit 0), a second aborts (exit 130).
//
//	campaignworker -coordinator http://127.0.0.1:9200
package main

import (
	"context"
	"flag"
	"fmt"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hafi"
	"repro/internal/obs"
)

var obsCleanup = func() {}

func main() {
	coordinator := flag.String("coordinator", "", "coordinator base URL, e.g. http://127.0.0.1:9200 (required)")
	name := flag.String("name", "", "worker name in coordinator logs (default host-pid)")
	dir := flag.String("dir", "", "scratch directory for in-progress shard journals (default: a temp dir)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "local lane-parallel device instances per shard (>= 1)")
	lanes := flag.Int("lanes", hafi.DefaultCampaignLanes, "lanes per device instance (positive multiple of 64, at most 65536)")
	throttle := flag.Duration("throttle", 0, "sleep this long after every classified point (testing lever for straggler detection)")
	obsOpts := obs.RegisterFlags(flag.CommandLine)
	obsOpts.Component = "campaignworker"
	flag.Parse()

	if *coordinator == "" {
		usage("-coordinator is required")
	}
	u, err := url.Parse(*coordinator)
	if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		usage("bad -coordinator %q (want http://host:port)", *coordinator)
	}
	if *workers < 1 {
		usage("-workers %d out of range (want >= 1)", *workers)
	}
	if *lanes < 64 || *lanes%64 != 0 || *lanes > 1<<16 {
		usage("-lanes %d out of range (want a positive multiple of 64, at most 65536)", *lanes)
	}
	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if *dir == "" {
		tmp, err := os.MkdirTemp("", "campaignworker-*")
		if err != nil {
			fail(err)
		}
		defer os.RemoveAll(tmp)
		*dir = tmp
	}

	reg, cleanup, err := obsOpts.Init(os.Stderr)
	if err != nil {
		fail(err)
	}
	obsCleanup = cleanup
	defer cleanup()
	if reg == nil {
		// The worker always runs with a registry: heartbeat telemetry is
		// sampled from it even when no observability flag was given.
		reg = obs.NewRegistry()
	}

	client := &fleet.Client{BaseURL: strings.TrimRight(*coordinator, "/"), Worker: *name}
	worker := &fleet.Worker{
		Client: client,
		Dir:    *dir,
		Obs:    reg,
		Events: obsOpts.Events,
		Logf:   func(format string, args ...interface{}) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	}

	// First SIGINT drains (finish + upload the current shard, exit clean);
	// the second aborts mid-shard.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	aborted := false
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "campaignworker: draining (finishing the current shard; interrupt again to abort)")
		worker.Drain()
		<-sigc
		aborted = true
		cancel()
	}()

	// Reconstruct the campaign from the coordinator's spec.
	var spec fleet.Spec
	err = fleet.Backoff{}.Retry(ctx, 10, func() error {
		var err error
		spec, err = client.Spec(ctx)
		return err
	})
	if err != nil {
		fail(fmt.Errorf("fetching campaign spec from %s: %w", *coordinator, err))
	}
	modelSpec, err := spec.Model()
	if err != nil {
		fail(fmt.Errorf("coordinator advertises unknown fault model %q: %w", spec.FaultModel, err))
	}
	fmt.Printf("joining fleet: cpu=%s prog=%s stride=%d model=%s (%d points, golden %016x)\n",
		spec.CPU, spec.Prog, spec.Stride, modelSpec, spec.NumPoints, spec.GoldenSignature)

	target, err := hafi.NewTarget(spec.CPU, spec.Prog)
	if err != nil {
		fail(err)
	}
	groups := target.RFGroups
	if !spec.NoRF {
		groups = nil
	}
	start := time.Now()
	golden, err := target.Golden()
	if err != nil {
		fail(err)
	}
	var set *core.MATESet
	if spec.MATESet != "" {
		if set, err = core.ReadMATESet(strings.NewReader(spec.MATESet), target.NL); err != nil {
			fail(fmt.Errorf("parsing coordinator MATE set: %w", err))
		}
	}
	points := hafi.ModelFaultList(target.NL, golden.HaltCycle, spec.Stride, modelSpec, groups...)
	ctl := hafi.NewController(target.NewRun(), golden)
	runs, err := target.Pool(*lanes, *workers, len(points))
	if err != nil {
		fail(err)
	}
	fmt.Printf("reconstructed campaign in %v (%d points, %d device instances)\n",
		time.Since(start).Round(time.Millisecond), len(points), len(runs))

	worker.Runner = &fleet.CampaignRunner{
		Ctl:              ctl,
		Points:           points,
		RunsW:            runs,
		Model:            modelSpec.String(),
		MATESet:          set,
		DisableEarlyExit: spec.DisableEarlyExit,
		Obs:              reg,
		Throttle:         *throttle,
	}

	// Worker.Run re-fetches the spec and runs Spec.Check against the local
	// reconstruction before leasing anything: a mismatched binary refuses to
	// join instead of uploading unmergeable journals.
	if err := worker.Run(ctx); err != nil {
		if aborted || ctx.Err() != nil {
			fmt.Println("interrupted: true (shard aborted; its lease will expire and re-run elsewhere)")
			obsCleanup()
			os.Exit(130)
		}
		fail(err)
	}
}

func usage(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "campaignworker: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "campaignworker: %v\n", err)
	obsCleanup()
	os.Exit(1)
}
