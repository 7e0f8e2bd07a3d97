package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hafi"
	"repro/internal/journal"
	"repro/internal/lint"
	"repro/internal/obs"
)

// The pool is the whole machine: the sandbox has two CPUs and the pool
// engine scales 2.00x from one worker to two, so every workload runs on
// exactly two 256-lane devices under GOMAXPROCS(2).
const (
	poolDevices = 2
	deviceLanes = hafi.DefaultCampaignLanes
)

// kind selects how a workload drives the campaign stack.
type kind int

const (
	kindPlain  kind = iota // one pool campaign call, no journal
	kindResume             // journaled, journal torn at half, resumed to completion
	kindFleet              // coordinator + two workers over loopback HTTP
)

// workload is one benchmark input. See README.md for why each is here.
type workload struct {
	name   string
	cpu    string
	prog   string
	model  string // -fault-model syntax
	stride int
	prune  bool
	kind   kind
}

var workloads = []workload{
	{name: "avr-fib-seu", cpu: "avr", prog: "fib", model: "seu", stride: 100, prune: true, kind: kindPlain},
	{name: "msp430-conv-seu", cpu: "msp430", prog: "conv", model: "seu", stride: 400, prune: true, kind: kindPlain},
	{name: "avr-sort-intermittent-resume", cpu: "avr", prog: "sort", model: "intermittent:2,8", stride: 50, prune: false, kind: kindResume},
	{name: "fleet-avr-fib-seu", cpu: "avr", prog: "fib", model: "seu", stride: 100, prune: true, kind: kindFleet},
}

const (
	fleetShards = 8
	fleetPoll   = 20 * time.Millisecond
)

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// faultList is the one place the seed enters: it selects the stride phase.
// The list is the CLI's list for a golden run shortened by the phase, with
// the phase added back to every cycle, so seed 0 is byte-for-byte
// hafi.ModelFaultList and every seed keeps cycle-major order, full batches
// and (to within one stride) the same point count.
func faultList(t *fleet.Target, halt, stride int, spec hafi.ModelSpec, seed int64) []hafi.FaultPoint {
	phase := int(seed % int64(stride))
	if phase < 0 {
		phase += stride
	}
	points := hafi.ModelFaultList(t.NL, halt-phase, stride, spec)
	for i := range points {
		points[i].Cycle += phase
	}
	return points
}

// fixture is one workload's set-up product: everything the CLIs build before
// the first experiment, kept across reps the way a fleet worker keeps it.
type fixture struct {
	wl      workload
	target  *fleet.Target
	golden  *hafi.Golden
	set     *core.MATESet // nil when the workload does not prune
	mateTxt string        // serialized set, as campaignd ships it (fleet only)
	points  []hafi.FaultPoint
	// ctls[i] drives runs[i]. Single-process workloads use ctls[0] over the
	// whole pool; the fleet workload gives each worker its own controller
	// and one device, as two campaignworker processes would have.
	ctls []*hafi.Controller
	runs []hafi.RunW
}

// setUp builds a fixture the way cmd/campaign, cmd/campaignd and
// cmd/campaignworker do, recording one span per layer under parent. scale
// multiplies the stride (1 for real runs, 20 for the smoke mode the tests
// use).
func setUp(wl workload, seed int64, scale int, rec *recorder, parent int) (*fixture, error) {
	fx := &fixture{wl: wl}
	var err error

	sp := rec.begin(parent, "cpu.core_build")
	fx.target, err = fleet.NewTarget(wl.cpu, wl.prog)
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin(parent, "lint.preflight")
	err = lint.Preflight(os.Stderr, fx.target.NL, false)
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin(parent, "hafi.golden_scalar")
	fx.golden, err = hafi.RecordGolden(fx.target.NewRun(), 1<<20)
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	if wl.prune {
		sp = rec.begin(parent, "core.search")
		res := core.Search(fx.target.NL, fx.target.NL.FFQWires(), core.DefaultSearchParams())
		fx.set = res.Set
		if wl.kind == kindFleet {
			// The coordinator ships the set as text and every worker parses
			// it back, so all shards prune against identical terms.
			var sb strings.Builder
			if err = core.WriteMATESet(&sb, fx.target.NL, res.Set); err == nil {
				fx.mateTxt = sb.String()
				fx.set, err = core.ReadMATESet(strings.NewReader(fx.mateTxt), fx.target.NL)
			}
		}
		rec.end(sp)
		if err != nil {
			return nil, err
		}
	}

	sp = rec.begin(parent, "hafi.faultlist")
	spec, err := hafi.ParseModelSpec(wl.model)
	if err == nil {
		fx.points = faultList(fx.target, fx.golden.HaltCycle, wl.stride*scale, spec, seed)
	}
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	if len(fx.points) == 0 {
		return nil, fmt.Errorf("%s: empty fault list", wl.name)
	}

	sp = rec.begin(parent, "hafi.device_build")
	defer rec.end(sp)
	nctl := 1
	if wl.kind == kindFleet {
		nctl = poolDevices
	}
	for i := 0; i < nctl; i++ {
		fx.ctls = append(fx.ctls, hafi.NewControllerPool(fx.target.NewRun, fx.golden))
	}
	for i := 0; i < poolDevices; i++ {
		r, err := fx.target.NewRunW(deviceLanes)
		if err != nil {
			return nil, err
		}
		fx.runs = append(fx.runs, r)
	}
	return fx, nil
}

// header is the journal identity of the workload's campaign.
func (fx *fixture) header() journal.Header { return fx.ctls[0].JournalHeader(fx.points) }

// repOpts varies one rep: which devices carry it, whether it journals, and
// whether the engine reports to an obs registry.
type repOpts struct {
	runs    []hafi.RunW   // device pool (fleet: one device per worker)
	journal string        // journal path; "" runs un-journaled where the workload allows
	obs     *obs.Registry // nil on every timed rep
	rec     *recorder     // nil on every timed rep
	parent  int           // span the rep's spans hang under
	fleet   *fleetTrace   // fleet workload, traced rep only
}

// repResult is what one rep produced.
type repResult struct {
	wall    time.Duration
	alloc   uint64 // bytes allocated while wall was running
	stats   simStats
	journal *journalView // nil when the rep did not journal
	// uncut is the digest the resume workload's journal had before it was
	// torn; the resumed journal must reproduce it.
	uncut string
}

// runRep executes the workload's campaign once. wall covers exactly what
// campaign_s is defined over (see README.md).
func (fx *fixture) runRep(dir string, o repOpts) (*repResult, error) {
	switch fx.wl.kind {
	case kindResume:
		return fx.runResumeRep(dir, o)
	case kindFleet:
		return fx.runFleetRep(dir, o)
	}
	return fx.runCampaign(o)
}

// campaign makes one pool campaign call over the workload's fault list, with
// a span around it and the traced devices' batch spans hung under that, and
// closes the journal the call wrote to (cfg.Journal may be nil).
func (fx *fixture) campaign(o repOpts, cfg hafi.CampaignConfig) (*hafi.CampaignResult, error) {
	cfg.Points, cfg.MATESet, cfg.Obs = fx.points, fx.set, o.obs
	sp := o.rec.begin(o.parent, "hafi.campaign")
	retarget(o.runs, sp)
	res, err := fx.ctls[0].RunCampaignBatchedPoolWithW(cfg, o.runs)
	if err == nil {
		err = cfg.Journal.Close()
	}
	retarget(o.runs, 0)
	o.rec.end(sp)
	return res, err
}

// runCampaign is the single-process path: one pool campaign call over
// caller-owned devices, journaled when o.journal is set.
func (fx *fixture) runCampaign(o repOpts) (*repResult, error) {
	var jw *journal.Writer
	if o.journal != "" {
		var err error
		if jw, err = journal.Create(o.journal, fx.header()); err != nil {
			return nil, err
		}
		defer jw.Close() // error paths; campaign checks Close on the success path
	}
	meter := startMeter()
	res, err := fx.campaign(o, hafi.CampaignConfig{Journal: jw})
	wall, alloc := meter.stop()
	if err != nil {
		return nil, err
	}
	out := &repResult{wall: wall, alloc: alloc, stats: statsOf(res)}
	if o.journal != "" {
		if out.journal, err = readJournal(o.journal); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runResumeRep is the crash-and-resume path of cmd/campaign -journal /
// -resume. The first call journals the whole campaign; the journal then
// loses its second half, cut mid-frame the way a crash tears it;
// journal.Resume drops the torn frame and the second call replays the
// surviving half and re-executes the rest.
//
// The crash is modelled on the file because the engine offers no earlier
// handle: a batch that suspends straggler lanes holds back its own journal
// records and those of every later batch until the plan drains, and on this
// workload a batch at the start of the plan does, so a cancellation from
// the Progress callback (which fires on journaling) arrives when no work is
// left. Cutting the file is deterministic: every rep resumes from the same
// record.
func (fx *fixture) runResumeRep(dir string, o repOpts) (*repResult, error) {
	if o.journal == "" {
		o.journal = filepath.Join(dir, "resume.journal")
	}
	full, err := fx.runCampaign(o)
	if err != nil {
		return nil, err
	}
	info, err := os.Stat(o.journal)
	if err != nil {
		return nil, err
	}

	meter := startMeter()
	if err := os.Truncate(o.journal, info.Size()/2); err != nil {
		return nil, err
	}
	sp := o.rec.begin(o.parent, "journal.resume")
	jw, recovered, err := journal.Resume(o.journal, fx.header())
	o.rec.end(sp)
	if err != nil {
		return nil, err
	}
	defer jw.Close() // error paths; campaign checks Close on the success path
	second, err := fx.campaign(o, hafi.CampaignConfig{Journal: jw, Resume: recovered})
	wall, alloc := meter.stop()
	if err != nil {
		return nil, err
	}
	replayed := len(recovered.ByIndex)
	if !recovered.Torn || replayed == 0 || replayed >= len(fx.points) {
		return nil, fmt.Errorf("%s: the cut left %d of %d records (torn=%v); the workload needs a real resume",
			fx.wl.name, replayed, len(fx.points), recovered.Torn)
	}

	out := &repResult{wall: full.wall + wall, alloc: full.alloc + alloc, stats: statsOf(second), uncut: full.journal.raw}
	// Replayed records carry no convergence credit: the second call counts
	// only what it re-executed, so converged and cycles_saved differ from the
	// first call's by design and are compared among resume reps only.
	out.stats.Replayed = int64(replayed)
	if out.journal, err = readJournal(o.journal); err != nil {
		return nil, err
	}
	return out, nil
}

// meter measures wall time and bytes allocated over one timed region.
type meter struct {
	start time.Time
	alloc uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{start: time.Now(), alloc: ms.TotalAlloc}
}

func (m meter) stop() (time.Duration, uint64) {
	wall := time.Since(m.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return wall, ms.TotalAlloc - m.alloc
}

// simStats are the simulated statistics of one campaign. They are exact
// counts: at one seed two commits must agree on every field.
type simStats struct {
	Points      int64 `json:"points"`
	Pruned      int64 `json:"pruned"`
	Executed    int64 `json:"executed"`
	Converged   int64 `json:"converged"`
	CyclesSaved int64 `json:"cycles_saved"`
	Benign      int64 `json:"benign"`
	SDC         int64 `json:"sdc"`
	Hang        int64 `json:"hang"`
	HarnessErr  int64 `json:"harness_errors"`
	PrunedHits  int64 `json:"pruned_by_mate_sum"`
	// Replayed counts the records a resume took from the journal (resume
	// workload only).
	Replayed int64 `json:"replayed"`
}

func statsOf(r *hafi.CampaignResult) simStats {
	s := simStats{
		Points: int64(r.Total), Pruned: int64(r.Skipped), Executed: int64(r.Executed),
		Converged: int64(r.Converged), CyclesSaved: r.CyclesSaved,
		Benign:     int64(r.ByOutcome[hafi.OutcomeBenign]),
		SDC:        int64(r.ByOutcome[hafi.OutcomeSDC]),
		Hang:       int64(r.ByOutcome[hafi.OutcomeHang]),
		HarnessErr: int64(r.ByOutcome[hafi.OutcomeHarnessError]),
	}
	for _, n := range r.PrunedByMATE {
		s.PrunedHits += n
	}
	return s
}

// journalView is a journal read back: its byte digest, its canonical digest
// and the recovered records.
type journalView struct {
	raw, canon string
	rec        *journal.Recovered
}

// readJournal digests and recovers a complete journal; a damaged one is an
// error.
func readJournal(path string) (*journalView, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return nil, err
	}
	rec, err := journal.Recover(path)
	if err != nil {
		return nil, err
	}
	if rec.Torn || rec.Corrupt {
		return nil, fmt.Errorf("journal %s damaged (torn=%v corrupt=%v)", path, rec.Torn, rec.Corrupt)
	}
	return &journalView{raw: hex.EncodeToString(h.Sum(nil)), canon: canonicalDigest(rec), rec: rec}, nil
}

// canonicalDigest hashes every record (and its MATE attribution) in
// fault-list order. journal.Merge writes in that order while the engine
// writes pruned points first, so this — not the file bytes — is the form in
// which a fleet journal and a single-process journal coincide.
func canonicalDigest(rec *journal.Recovered) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", rec.Header)
	for i := uint64(0); i < rec.Header.NumPoints; i++ {
		r, ok := rec.ByIndex[i]
		if !ok {
			fmt.Fprintf(h, "%d missing\n", i)
			continue
		}
		fmt.Fprintf(h, "%+v", r)
		if hit, ok := rec.HitByIndex[i]; ok && r.Pruned {
			fmt.Fprintf(h, " %+v", hit)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// machineInfo is recorded with every result so a number can be traced to
// the box it was measured on.
type machineInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Degraded   bool   `json:"degraded"` // fewer CPUs than pool devices
}

func machine() machineInfo {
	return machineInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Degraded:   runtime.NumCPU() < poolDevices,
	}
}
