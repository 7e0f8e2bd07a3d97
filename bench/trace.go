package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/hafi"
	"repro/internal/sim"
)

// span is one interval at a layer boundary. Parent 0 means a root span.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Detail  string  `json:"detail,omitempty"`
}

// recorder keeps spans in memory until the run ends. All spans of one
// benchmark run share the recorder's epoch. A nil recorder records nothing,
// so timed reps pass nil and pay a pointer check.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, StartUS: us(now), EndUS: -1})
	return id
}

func (r *recorder) end(id int) { r.endDetail(id, "") }

func (r *recorder) endDetail(id int, detail string) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndUS = us(now)
	r.spans[id-1].Detail = detail
}

// timed runs f inside a root span and returns how long it took, in seconds.
func (r *recorder) timed(name string, f func() error) (float64, error) {
	sp := r.begin(0, name)
	start := time.Now()
	err := f()
	sec := time.Since(start).Seconds()
	r.end(sp)
	return sec, err
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// total sums the durations of the spans called name under parent (any
// parent when parent < 0) and counts them.
func (r *recorder) total(parent int, name string) (sec float64, n int) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.Name == name && s.EndUS >= 0 && (parent < 0 || s.Parent == parent) {
			sec += (s.EndUS - s.StartUS) / 1e6
			n++
		}
	}
	return sec, n
}

// traceFile is what <workload>.trace.json holds: the spans with their
// parent ids plus the leaf-call aggregates that were too many to keep one
// by one.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	Leaves   map[string]leafAgg `json:"leaf_calls"`
}

type leafAgg struct {
	Calls  int64   `json:"calls"`
	BusyUS float64 `json:"busy_us"`
}

func (r *recorder) write(path, workload string, seed int64, leaves map[string]leafAgg) error {
	r.mu.Lock()
	tf := traceFile{Workload: workload, Seed: seed, Spans: r.spans, Leaves: leaves}
	data, err := json.MarshalIndent(tf, "", " ")
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// call is the count and busy time of one decorated device method.
type call struct {
	n    int64
	busy time.Duration
}

func (c *call) add(start time.Time) {
	c.n++
	c.busy += time.Since(start)
}

// The timed device methods other than Step.
const (
	callStepDelta = iota
	callLoadCheckpoint
	callCompactLanes
	callExportLane
	callImportLane
	callSignatureLane
	numCalls
)

var callNames = [numCalls]string{"StepDelta", "LoadCheckpoint", "CompactLanes", "ExportLane", "ImportLane", "SignatureLane"}

// deviceCalls aggregates one device's leaf calls. A traced rep makes about
// a million Step calls, so they are summed here instead of kept as spans.
type deviceCalls struct {
	step       [5]call // by active lane groups at the call, 1..4
	timed      [numCalls]call
	laneCycles int64 // Σ 64 × active groups over Step and StepDelta calls
	flips      int64 // FlipLane calls (counted, not timed)
	batches    int64 // LoadCheckpoint calls
}

func (d *deviceCalls) merge(o *deviceCalls) {
	for g := range d.step {
		d.step[g].n += o.step[g].n
		d.step[g].busy += o.step[g].busy
	}
	for c := range d.timed {
		d.timed[c].n += o.timed[c].n
		d.timed[c].busy += o.timed[c].busy
	}
	d.laneCycles += o.laneCycles
	d.flips += o.flips
	d.batches += o.batches
}

// steps is the count and busy time of Step over all widths.
func (d *deviceCalls) steps() (n int64, busy time.Duration) {
	for _, c := range d.step {
		n += c.n
		busy += c.busy
	}
	return n, busy
}

// deviceBusy is the time spent inside timed device methods.
func (d *deviceCalls) deviceBusy() time.Duration {
	_, busy := d.steps()
	for _, c := range d.timed {
		busy += c.busy
	}
	return busy
}

func (d *deviceCalls) leaves() map[string]leafAgg {
	agg := func(c call) leafAgg { return leafAgg{Calls: c.n, BusyUS: us(c.busy)} }
	m := map[string]leafAgg{"FlipLane": {Calls: d.flips}}
	for c, name := range callNames {
		m[name] = agg(d.timed[c])
	}
	for g := 1; g < len(d.step); g++ {
		m[fmt.Sprintf("Step.g%d", g)] = agg(d.step[g])
	}
	return m
}

// wideDevice is what both in-tree devices are: a RunW with every optional
// capability the engine type-asserts for.
type wideDevice interface {
	hafi.DeltaRunW
	hafi.CompactRunW
	hafi.SuspendRunW
	hafi.GoldenRunW
}

// tracedRunW forwards every device method to the real device and records
// count and busy time for the ones that do work. It implements exactly the
// capabilities of the device it wraps, so the engine's type assertions
// answer as they would without it; trace refuses a device that lacks one.
// The cheap per-lane reads (HaltedMaskG, MemDigestLane, FlipLane) are
// forwarded untimed: a clock read costs as much as they do.
//
// Batch spans are delimited by LoadCheckpoint calls and straggler waves by
// the first ImportLane after anything else; retarget closes the open one.
type tracedRunW struct {
	dev    wideDevice
	mach   *sim.MachineW
	calls  deviceCalls
	rec    *recorder
	parent int
	open   int // the current batch or wave span
	inWave bool
}

func trace(r hafi.RunW, rec *recorder) (*tracedRunW, error) {
	dev, ok := r.(wideDevice)
	if !ok {
		return nil, fmt.Errorf("bench: device %T lacks a capability the tracer would have to fake", r)
	}
	return &tracedRunW{dev: dev, mach: r.MachW(), rec: rec}, nil
}

// retarget closes the open batch span and hangs the following ones under
// parent. Called around every campaign call and shard run.
func (t *tracedRunW) retarget(parent int) {
	t.rec.end(t.open)
	t.open, t.inWave, t.parent = 0, false, parent
}

// retarget applies tracedRunW.retarget to the traced devices of a pool.
func retarget(runs []hafi.RunW, parent int) {
	for _, r := range runs {
		if t, ok := r.(*tracedRunW); ok {
			t.retarget(parent)
		}
	}
}

func (t *tracedRunW) Step() {
	g := t.mach.ActiveGroups()
	start := time.Now()
	t.dev.Step()
	t.calls.step[g].add(start)
	t.calls.laneCycles += int64(64 * g)
}

func (t *tracedRunW) StepDelta() {
	g := t.mach.ActiveGroups()
	start := time.Now()
	t.dev.StepDelta()
	t.calls.timed[callStepDelta].add(start)
	t.calls.laneCycles += int64(64 * g)
}

func (t *tracedRunW) LoadCheckpoint(cp hafi.Checkpoint) {
	t.rec.end(t.open)
	t.open, t.inWave = t.rec.begin(t.parent, "hafi.batch"), false
	t.calls.batches++
	start := time.Now()
	t.dev.LoadCheckpoint(cp)
	t.calls.timed[callLoadCheckpoint].add(start)
}

func (t *tracedRunW) CompactLanes(src []uint16) {
	start := time.Now()
	t.dev.CompactLanes(src)
	t.calls.timed[callCompactLanes].add(start)
}

func (t *tracedRunW) ExportLane(lane int) interface{} {
	start := time.Now()
	s := t.dev.ExportLane(lane)
	t.calls.timed[callExportLane].add(start)
	return s
}

func (t *tracedRunW) ImportLane(lane int, state interface{}) {
	if !t.inWave {
		t.rec.end(t.open)
		t.open, t.inWave = t.rec.begin(t.parent, "hafi.wave"), true
	}
	start := time.Now()
	t.dev.ImportLane(lane, state)
	t.calls.timed[callImportLane].add(start)
}

func (t *tracedRunW) SignatureLane(lane int) uint64 {
	start := time.Now()
	s := t.dev.SignatureLane(lane)
	t.calls.timed[callSignatureLane].add(start)
	return s
}

func (t *tracedRunW) FlipLane(ff, lane int) {
	t.calls.flips++
	t.dev.FlipLane(ff, lane)
}

func (t *tracedRunW) Lanes() int                              { return t.dev.Lanes() }
func (t *tracedRunW) HaltedMaskG(g int) uint64                { return t.dev.HaltedMaskG(g) }
func (t *tracedRunW) HaltedMaskDeltaG(g int) uint64           { return t.dev.HaltedMaskDeltaG(g) }
func (t *tracedRunW) MemDigestLane(lane int) uint64           { return t.dev.MemDigestLane(lane) }
func (t *tracedRunW) MachW() *sim.MachineW                    { return t.mach }
func (t *tracedRunW) InitDelta(tr *sim.Trace) *sim.DeltaState { return t.dev.InitDelta(tr) }
func (t *tracedRunW) EnvW() sim.EnvW                          { return t.dev.EnvW() }
func (t *tracedRunW) CheckpointLane(lane int) hafi.Checkpoint { return t.dev.CheckpointLane(lane) }
