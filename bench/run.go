package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/hafi"
	"repro/internal/journal"
	"repro/internal/obs"
)

// wideLanes is the width of the hafi.golden_wide_s recording.
const wideLanes = 64

// scaleOpts are the rep counts, and what the smoke mode changes: a sparser
// fault list and the fewest reps that still exercise every code path. A
// contract that caps total time cuts reps, never fault lists; 5 timed reps
// is the floor.
type scaleOpts struct {
	strideFactor int
	setups       int // fresh set-ups behind setup_s
	minReps      int // timed reps before -seconds is consulted
	obsPairs     int // single-process reps without / with an obs registry
	auditPoints  int // points re-executed on the scalar engine
	ladderCalls  int // per round; ladderRounds rounds make the >= 2000 calls of a full run
}

var (
	fullScale  = scaleOpts{strideFactor: 1, setups: 7, minReps: 5, obsPairs: 3, auditPoints: 64, ladderCalls: 500}
	smokeScale = scaleOpts{strideFactor: 20, setups: 1, minReps: 1, obsPairs: 1, auditPoints: 4, ladderCalls: 50}
)

// workloadReport is everything one workload's run produced.
type workloadReport struct {
	Workload        string   `json:"workload"`
	Seed            int64    `json:"seed"`
	FaultListHash   string   `json:"faultlist_hash"`
	GoldenSignature string   `json:"golden_signature"`
	JournalDigest   string   `json:"journal_digest"`
	VerdictDigest   string   `json:"verdict_digest"`
	Stats           simStats `json:"simulated_statistics"`
	Attempted       int64    `json:"attempted"`
	Failed          int64    `json:"failed"`
	Failures        []string `json:"failures,omitempty"`
	EndToEnd        []metric `json:"end_to_end,omitempty"`
	PerLayer        []metric `json:"per_layer,omitempty"`
	TraceFile       string   `json:"trace_file,omitempty"`
}

func (r *workloadReport) correct() bool { return r.Failed == 0 && len(r.Failures) == 0 }

// fail records a failed correctness check that voids points fault points.
func (r *workloadReport) fail(points int64, format string, args ...interface{}) {
	r.Failed += points
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func newReport(fx *fixture, seed int64) *workloadReport {
	return &workloadReport{
		Workload:        fx.wl.name,
		Seed:            seed,
		FaultListHash:   fmt.Sprintf("%016x", hafi.FaultListHash(fx.points)),
		GoldenSignature: fmt.Sprintf("%016x", fx.golden.Signature),
	}
}

// checkRep holds a rep against the reference rep: same simulated statistics
// (check a) and, where both journaled, the same journal bytes (checks b, c
// and, among fleet reps, d). A rep that disagrees fails all its points.
func (r *workloadReport) checkRep(what string, rep, ref *repResult) {
	n := ref.stats.Points
	r.Attempted += n
	if rep.stats.HarnessErr > 0 {
		r.fail(rep.stats.HarnessErr, "%s: %d harness errors", what, rep.stats.HarnessErr)
	}
	if rep.stats != ref.stats {
		r.fail(n, "%s: simulated statistics %+v differ from the reference rep's %+v", what, rep.stats, ref.stats)
		return
	}
	if rep.journal != nil && ref.journal != nil && rep.journal.raw != ref.journal.raw {
		r.fail(n, "%s: journal digest %s differs from the reference rep's %s", what, rep.journal.raw, ref.journal.raw)
		return
	}
	if rep.uncut != "" && rep.uncut != rep.journal.raw {
		r.fail(n, "%s: resumed journal %s differs from the journal before the cut %s", what, rep.journal.raw, rep.uncut)
	}
}

// reference adopts ref as the rep every other rep is compared with.
func (r *workloadReport) reference(ref *repResult) {
	r.Stats = ref.stats
	r.JournalDigest = ref.journal.raw
	r.VerdictDigest = ref.journal.canon
	r.checkRep("reference rep", ref, ref)
}

// audit is check e: a seeded sample of points is re-executed on the scalar
// sequential controller with no MATE set — the exact method the fast ones
// are held against — and compared point by point with the journal. Pruned
// points must come back benign.
func (r *workloadReport) audit(fx *fixture, dir string, seed int64, n int, jv *journalView) error {
	if n > len(fx.points) {
		n = len(fx.points)
	}
	idx := rand.New(rand.NewSource(seed)).Perm(len(fx.points))[:n]
	sort.Ints(idx)
	sample := make([]hafi.FaultPoint, n)
	for i, gi := range idx {
		sample[i] = fx.points[gi]
	}
	ctl := hafi.NewController(fx.target.NewRun(), fx.golden)
	path := filepath.Join(dir, "audit.journal")
	jw, err := journal.Create(path, ctl.JournalHeader(sample))
	if err != nil {
		return err
	}
	defer jw.Close() // error paths; the success path checks Close below
	if _, err := ctl.RunCampaign(hafi.CampaignConfig{Points: sample, Journal: jw}); err != nil {
		return err
	}
	if err := jw.Close(); err != nil {
		return err
	}
	exact, err := readJournal(path)
	if err != nil {
		return err
	}
	r.Attempted += int64(n)
	for i, gi := range idx {
		want, ok := exact.rec.ByIndex[uint64(i)]
		got, ok2 := jv.rec.ByIndex[uint64(gi)]
		switch {
		case !ok || !ok2:
			r.fail(1, "audit: point %d missing from a journal", gi)
		case got.Pruned && hafi.Outcome(want.Outcome) != hafi.OutcomeBenign:
			r.fail(1, "audit: point %d was pruned but the scalar engine says %s", gi, hafi.Outcome(want.Outcome))
		case !got.Pruned && got.Outcome != want.Outcome:
			r.fail(1, "audit: point %d journaled %s but the scalar engine says %s", gi, hafi.Outcome(got.Outcome), hafi.Outcome(want.Outcome))
		}
	}
	return nil
}

// timedSetUps sets the workload up sc.setups times, each after a collection
// so one set-up's garbage is not charged to the next, and returns the last
// fixture with every set-up's duration. For the fleet workload a set-up
// includes starting (and stopping) a coordinator and its server.
func timedSetUps(wl workload, seed int64, sc scaleOpts, dir string) (*fixture, []float64, error) {
	var fx *fixture
	var secs []float64
	for i := 0; i < sc.setups; i++ {
		fx = nil
		runtime.GC()
		start := time.Now()
		f, err := setUp(wl, seed, sc.strideFactor, nil, 0)
		if err != nil {
			return nil, nil, err
		}
		if wl.kind == kindFleet {
			rig, err := f.newFleetRig(dir, f.runs, nil)
			if err != nil {
				return nil, nil, err
			}
			rig.close()
		}
		secs = append(secs, time.Since(start).Seconds())
		fx = f
	}
	return fx, secs, nil
}

// runEndToEnd is the --trace 0 run: set-ups, one journaled reference rep
// (which also warms the devices), then timed reps with no tracing and no
// obs registry until at least sc.minReps are done and seconds have been
// measured.
func runEndToEnd(wl workload, seed int64, sc scaleOpts, seconds float64, dir string) (*workloadReport, error) {
	fx, setups, err := timedSetUps(wl, seed, sc, dir)
	if err != nil {
		return nil, err
	}
	r := newReport(fx, seed)

	ref, err := fx.runRep(dir, repOpts{runs: fx.runs, journal: filepath.Join(dir, "reference.journal")})
	if err != nil {
		return nil, err
	}
	r.reference(ref)

	var walls []float64
	var alloc uint64
	for total := 0.0; len(walls) < sc.minReps || total < seconds; {
		// Collect first, so that no rep inherits the garbage of the one
		// before and pays for a collection the others do not.
		runtime.GC()
		rep, err := fx.runRep(dir, repOpts{runs: fx.runs})
		if err != nil {
			return nil, err
		}
		r.checkRep(fmt.Sprintf("timed rep %d", len(walls)+1), rep, ref)
		walls = append(walls, rep.wall.Seconds())
		alloc += rep.alloc
		total += rep.wall.Seconds()
	}
	if err := r.audit(fx, dir, seed, sc.auditPoints, ref.journal); err != nil {
		return nil, err
	}

	ms := newMetricSet(endToEndDefs, exactDefs)
	campaign := median(walls)
	ms.setSamples("setup_s", median(setups), setups)
	ms.setSamples("campaign_s", campaign, walls)
	ms.set("points_per_s", float64(ref.stats.Points)/campaign)
	ms.set("alloc_mb", float64(alloc)/float64(len(walls))/1e6)
	ms.set("executed_fraction", float64(ref.stats.Executed)/float64(ref.stats.Points))
	ms.set("pruned_fraction", float64(ref.stats.Pruned)/float64(ref.stats.Points))
	ms.set("failed_share", float64(r.Failed)/float64(r.Attempted))
	stable := 1.0
	if !r.correct() {
		stable = 0
	}
	ms.set("verdict_digest_stable", stable)
	r.EndToEnd = ms.list()
	return r, nil
}

// runLayers is the --trace 1 run: one set-up with a span per layer, the
// unit-cost ladder, an untraced and a traced rep at one worker (two for the
// fleet), the journal and fleet measurements that re-read what those reps
// wrote, and the trace file.
func runLayers(wl workload, seed int64, sc scaleOpts, dir, outDir string) (*workloadReport, error) {
	rec := newRecorder()
	ms := newMetricSet(perLayerDefs)

	root := rec.begin(0, "setup")
	fx, err := setUp(wl, seed, sc.strideFactor, rec, root)
	rec.end(root)
	if err != nil {
		return nil, err
	}
	r := newReport(fx, seed)
	for _, name := range []string{"cpu.core_build", "lint.preflight", "hafi.golden_scalar", "core.search", "hafi.faultlist", "hafi.device_build"} {
		sec, _ := rec.total(root, name)
		ms.set(name+"_s", sec)
	}
	if fx.set != nil {
		ms.set("core.mates", float64(fx.set.Size()))
	}

	// What set-up would cost if the CLIs recorded the golden run on a wide
	// device; nothing uses the result.
	wide, err := fx.target.NewRunW(wideLanes)
	if err != nil {
		return nil, err
	}
	sec, err := rec.timed("hafi.golden_wide", func() error {
		_, err := hafi.RecordGoldenW(wide, 1<<20)
		return err
	})
	if err != nil {
		return nil, err
	}
	ms.set("hafi.golden_wide_s", sec)

	var unit *unitCosts
	if _, err := rec.timed("ladder", func() (err error) {
		unit, err = fx.ladder(sc.ladderCalls)
		return err
	}); err != nil {
		return nil, err
	}
	groups := deviceLanes / 64
	full := unit.ns[groups]
	ms.set("sim.eval_ns.g4", full[opEval])
	ms.set("sim.eval_ns.g1", unit.ns[1][opEval])
	ms.set("sim.commit_ns.g4", full[opCommit])
	ms.set("sim.gate_evals_per_s", float64(unit.gates)*deviceLanes/full[opEval]*1e9)
	ms.set("cpu.env_ns.g4", full[opEnv])
	ms.set("cpu.envcone_ns.g4", unit.envCone(groups))
	ms.set("sim.gather_ns", full[opGather])
	ms.set("sim.scatter_ns", full[opScatter])

	// The reference rep: two workers, journaled. Check b holds the one-worker
	// reps below against it (width and worker independence).
	ref, err := fx.runRep(dir, repOpts{runs: fx.runs, journal: filepath.Join(dir, "reference.journal")})
	if err != nil {
		return nil, err
	}
	r.reference(ref)

	// The fleet workload is two workers by definition; the others are traced
	// at one worker so device calls are sequential and self time is span
	// minus children.
	plainRuns := fx.runs
	if wl.kind != kindFleet {
		plainRuns = fx.runs[:1]
	}
	untraced := ref
	if wl.kind != kindFleet {
		if untraced, err = fx.runRep(dir, repOpts{runs: plainRuns, journal: filepath.Join(dir, "untraced.journal")}); err != nil {
			return nil, err
		}
		r.checkRep("untraced one-worker rep", untraced, ref)
	}

	var devs []*tracedRunW
	var tracedRuns []hafi.RunW
	for _, run := range plainRuns {
		t, err := trace(run, rec)
		if err != nil {
			return nil, err
		}
		devs = append(devs, t)
		tracedRuns = append(tracedRuns, t)
	}
	tracedPath := filepath.Join(dir, "traced.journal")
	repSpan := rec.begin(0, "rep")
	opts := repOpts{runs: tracedRuns, journal: tracedPath, rec: rec, parent: repSpan}
	if wl.kind == kindFleet {
		opts.fleet = &fleetTrace{rec: rec, parent: repSpan, devices: devs}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	traced, err := fx.runRep(dir, opts)
	runtime.ReadMemStats(&after)
	rec.end(repSpan)
	if err != nil {
		return nil, err
	}
	r.checkRep("traced rep", traced, ref)

	var calls deviceCalls
	for _, t := range devs {
		calls.merge(&t.calls)
	}
	campaignName := "hafi.campaign"
	if wl.kind == kindFleet {
		campaignName = "fleet.shard_run"
	}
	campaignSec, _ := rec.total(-1, campaignName)
	steps, stepBusy := calls.steps()
	executed := traced.stats.Executed
	if wl.kind == kindResume {
		executed += traced.stats.Points - traced.stats.Replayed // the re-executed half
	}
	ms.set("hafi.campaign_traced_s", campaignSec)
	ms.set("hafi.batches", float64(calls.batches))
	ms.set("hafi.lane_occupancy", float64(executed)/float64(calls.batches*deviceLanes))
	ms.set("cpu.step_s", stepBusy.Seconds())
	ms.set("cpu.steps", float64(steps))
	model := 0.0
	for g := 1; g <= groups; g++ {
		ms.set("cpu.steps.g"+strconv.Itoa(g), float64(calls.step[g].n))
		model += float64(calls.step[g].n) * unit.stepNS(g) / 1e9
	}
	ms.set("cpu.lane_cycles", float64(calls.laneCycles))
	if stepBusy > 0 {
		ms.set("cpu.step_model_error", math.Abs(model-stepBusy.Seconds())/stepBusy.Seconds())
	}
	ms.set("sim.delta_step_s", calls.timed[callStepDelta].busy.Seconds())
	ms.set("sim.delta_steps", float64(calls.timed[callStepDelta].n))
	if all := steps + calls.timed[callStepDelta].n; all > 0 {
		ms.set("sim.delta_share", float64(calls.timed[callStepDelta].n)/float64(all))
	}
	ms.set("cpu.load_checkpoint_s", calls.timed[callLoadCheckpoint].busy.Seconds())
	ms.set("cpu.load_checkpoints", float64(calls.timed[callLoadCheckpoint].n))
	ms.set("sim.compact_s", calls.timed[callCompactLanes].busy.Seconds())
	ms.set("sim.compactions", float64(calls.timed[callCompactLanes].n))
	ms.set("cpu.export_lane_s", calls.timed[callExportLane].busy.Seconds())
	ms.set("cpu.import_lane_s", calls.timed[callImportLane].busy.Seconds())
	ms.set("hafi.straggler_lanes", float64(calls.timed[callExportLane].n))
	ms.set("hafi.self_s", campaignSec-calls.deviceBusy().Seconds())
	ms.set("hafi.signature_s", calls.timed[callSignatureLane].busy.Seconds())
	ms.set("hafi.flip_calls", float64(calls.flips))
	if traced.stats.Executed > 0 {
		ms.set("hafi.converged_share", float64(traced.stats.Converged)/float64(traced.stats.Executed))
	}
	ms.set("hafi.cycles_saved", float64(traced.stats.CyclesSaved))
	ms.set("bench.trace_overhead_ratio", traced.wall.Seconds()/untraced.wall.Seconds())
	ms.set("bench.gc_cycles", float64(after.NumGC-before.NumGC))

	if err := fx.journalLayers(dir, tracedPath, plainRuns, rec, ms); err != nil {
		return nil, err
	}
	if wl.kind == kindFleet {
		if err := fx.fleetLayers(dir, tracedPath, ref, traced, opts.fleet, sc, rec, ms, r); err != nil {
			return nil, err
		}
	}
	if err := r.audit(fx, dir, seed, sc.auditPoints, traced.journal); err != nil {
		return nil, err
	}
	ms.set("bench.peak_rss_mb", peakRSSMB())

	r.PerLayer = ms.list()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	r.TraceFile = filepath.Join(outDir, wl.name+".trace.json")
	if err := rec.write(r.TraceFile, wl.name, seed, calls.leaves()); err != nil {
		return nil, err
	}
	return r, nil
}

// journalLayers measures the journal on what the traced rep wrote: recovery,
// the cost of appending every record again, and a resume of the complete
// journal, which replays everything and executes nothing.
func (fx *fixture) journalLayers(dir, path string, runs []hafi.RunW, rec *recorder, ms *metricSet) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	ms.set("journal.bytes", float64(info.Size()))

	var got *journal.Recovered
	sec, err := rec.timed("journal.recover", func() (err error) {
		got, err = journal.Recover(path)
		return err
	})
	if err != nil {
		return err
	}
	ms.set("journal.recover_s", sec)

	jw, err := journal.Create(filepath.Join(dir, "append.journal"), got.Header)
	if err != nil {
		return err
	}
	defer jw.Close() // error paths; the success path checks Close below
	frames := 0
	sec, err = rec.timed("journal.append", func() error {
		for _, record := range got.Records {
			if hit, ok := got.HitByIndex[record.Index]; ok && record.Pruned {
				if err := jw.AppendMATEHit(hit); err != nil {
					return err
				}
				frames++
			}
			if err := jw.Append(record); err != nil {
				return err
			}
			frames++
		}
		return nil
	})
	if err == nil {
		err = jw.Close()
	}
	if err != nil {
		return err
	}
	ms.set("journal.append_ns", sec*1e9/float64(frames))

	var res *hafi.CampaignResult
	sec, err = rec.timed("journal.resume_replay", func() error {
		jw, recovered, err := journal.Resume(path, fx.header())
		if err != nil {
			return err
		}
		defer jw.Close() // error paths; campaign checks Close on the success path
		res, err = fx.campaign(repOpts{runs: runs}, hafi.CampaignConfig{Journal: jw, Resume: recovered})
		return err
	})
	if err != nil {
		return err
	}
	if res.Total != len(fx.points) {
		return fmt.Errorf("%s: replay of the complete journal classified %d of %d points", fx.wl.name, res.Total, len(fx.points))
	}
	ms.set("journal.resume_replay_s", sec)
	return nil
}

// fleetLayers measures what only the fleet workload has: the RPC and shard
// spans of the traced rep, journal.Merge over the shard journals it
// spooled, and the same list run in one process on the same two devices —
// alternately without and with an obs registry, which yields the fleet's
// overhead ratio, check d and the cost of observability from one set of
// reps.
func (fx *fixture) fleetLayers(dir, mergedPath string, ref, traced *repResult, ft *fleetTrace, sc scaleOpts, rec *recorder, ms *metricSet, r *workloadReport) error {
	leaseSec, leases := rec.total(-1, "fleet.rpc/v1/lease")
	_, heartbeats := rec.total(-1, "fleet.rpc/v1/heartbeat")
	completeSec, _ := rec.total(-1, "fleet.rpc/v1/complete")
	shardSec, _ := rec.total(-1, "fleet.shard_run")
	ms.set("fleet.lease_rpc_s", leaseSec)
	ms.set("fleet.lease_rpcs", float64(leases))
	ms.set("fleet.heartbeat_rpcs", float64(heartbeats))
	ms.set("fleet.complete_rpc_s", completeSec)
	ms.set("fleet.shard_run_s", shardSec)
	ms.set("fleet.worker_idle_s", ft.workerWall.Seconds()-shardSec)

	sec, err := rec.timed("journal.merge", func() error {
		var shards []journal.MergeShard
		for _, sh := range fleet.PlanShards(fx.points, fleetShards) {
			got, err := journal.Recover(fmt.Sprintf("%s.shard-%04d.journal", mergedPath, sh.ID))
			if err != nil {
				return err
			}
			shards = append(shards, journal.MergeShard{Rec: got, Base: uint64(sh.Lo), Want: sh.Header(fx.golden.Signature)})
		}
		_, err := journal.Merge(filepath.Join(dir, "remerged.journal"), fx.header(), shards)
		return err
	})
	if err != nil {
		return err
	}
	ms.set("journal.merge_s", sec)

	var off, on []float64
	for i := 0; i < sc.obsPairs; i++ {
		path := ""
		if i == 0 {
			path = filepath.Join(dir, "single.journal") // check d needs one journal
		}
		single, err := fx.runCampaign(repOpts{runs: fx.runs, journal: path})
		if err != nil {
			return err
		}
		if i == 0 {
			r.Attempted += single.stats.Points
			if single.journal.canon != traced.journal.canon {
				r.fail(single.stats.Points, "merged fleet journal %s differs from the single-process journal %s", traced.journal.canon, single.journal.canon)
			}
		}
		off = append(off, single.wall.Seconds())
		observed, err := fx.runCampaign(repOpts{runs: fx.runs, obs: obs.NewRegistry()})
		if err != nil {
			return err
		}
		on = append(on, observed.wall.Seconds())
	}
	ms.setSamples("fleet.single_process_s", median(off), off)
	ms.set("fleet.overhead_ratio", ref.wall.Seconds()/median(off))
	ms.setSamples("obs.on_campaign_s", median(on), on)
	ms.set("obs.overhead_ratio", median(on)/median(off))
	return nil
}

// peakRSSMB reads the process's high-water resident set from /proc; 0 where
// there is no such file.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
