package fleet

import (
	"sync"
	"time"

	"repro/internal/obs/tracefile"
)

// SegmentEventCap bounds the events one shard's trace segment may carry.
// The batched engine emits a handful of spans per batch window, so 4096
// events cover shards far larger than the planner cuts; beyond the cap
// the recorder counts drops instead of growing (the upload stays ~100
// bytes/event ≤ ~500 KB, well under the coordinator's body limit).
const SegmentEventCap = 4096

// SegmentEvent is one span (or instant marker) captured inside a shard
// run, with absolute wall-clock timestamps so the coordinator can place
// it on the stitched campaign timeline regardless of when the worker
// process started.
type SegmentEvent struct {
	Name    string `json:"name"`
	Detail  string `json:"detail,omitempty"`
	StartUS int64  `json:"start_us"` // µs since Unix epoch (worker clock)
	DurUS   int64  `json:"dur_us"`
	Lane    int32  `json:"lane"`
	Instant bool   `json:"instant,omitempty"`
}

// TraceSegment is the bounded trace a worker uploads alongside a shard
// journal: every engine span recorded during that shard's run, stamped
// with the campaign trace ID so the coordinator can verify it stitches
// into the right timeline.
type TraceSegment struct {
	TraceID string         `json:"trace_id"`
	Shard   int            `json:"shard"`
	Worker  string         `json:"worker"`
	Events  []SegmentEvent `json:"events"`
	Dropped int64          `json:"dropped,omitempty"`
}

// SegmentRecorder is a bounded in-memory obs.Tracer. The worker tees it
// next to any operator-attached tracer for the duration of one shard run
// (obs.TeeTracer), then snapshots the recording into the TraceSegment it
// uploads with the shard journal. All methods are safe for concurrent
// use; a nil recorder is the disabled state.
type SegmentRecorder struct {
	mu      sync.Mutex
	events  []SegmentEvent
	max     int
	dropped int64

	// Own lane allocator for when the recorder is the only tracer (no
	// operator -trace file); when teed, the primary's lanes arrive via
	// Complete and this one is unused.
	lanes tracefile.Lanes
}

// NewSegmentRecorder returns a recorder bounded at max events (<=0 uses
// SegmentEventCap).
func NewSegmentRecorder(max int) *SegmentRecorder {
	if max <= 0 {
		max = SegmentEventCap
	}
	return &SegmentRecorder{max: max}
}

// BeginLane implements obs.Tracer.
func (r *SegmentRecorder) BeginLane() int32 {
	if r == nil {
		return 0
	}
	return r.lanes.Begin()
}

// EndLane implements obs.Tracer.
func (r *SegmentRecorder) EndLane(lane int32) {
	if r != nil {
		r.lanes.End(lane)
	}
}

// Complete implements obs.Tracer.
func (r *SegmentRecorder) Complete(name, detail string, start time.Time, dur time.Duration, lane int32) {
	r.add(SegmentEvent{
		Name:    name,
		Detail:  detail,
		StartUS: start.UnixMicro(),
		DurUS:   dur.Microseconds(),
		Lane:    lane,
	})
}

// Instant implements obs.Tracer.
func (r *SegmentRecorder) Instant(name, detail string, at time.Time) {
	r.add(SegmentEvent{Name: name, Detail: detail, StartUS: at.UnixMicro(), Instant: true})
}

func (r *SegmentRecorder) add(ev SegmentEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.events) >= r.max {
		r.dropped++
	} else {
		r.events = append(r.events, ev)
	}
	r.mu.Unlock()
}

// Snapshot freezes the recording into an uploadable segment. Lane numbers
// are compacted to 0..n-1 in order of first appearance so the stitched
// timeline has no gaps regardless of which lanes the worker's own trace
// writer happened to hand out.
func (r *SegmentRecorder) Snapshot(traceID string, shard int, worker string) *TraceSegment {
	seg := &TraceSegment{TraceID: traceID, Shard: shard, Worker: worker}
	if r == nil {
		return seg
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seg.Dropped = r.dropped
	seg.Events = make([]SegmentEvent, len(r.events))
	copy(seg.Events, r.events)
	compact := map[int32]int32{}
	for i := range seg.Events {
		lane := seg.Events[i].Lane
		mapped, ok := compact[lane]
		if !ok {
			mapped = int32(len(compact))
			compact[lane] = mapped
		}
		seg.Events[i].Lane = mapped
	}
	return seg
}

// shardPID maps a shard to its stitched-trace process group. The
// coordinator itself is pid 1; each shard gets its own process row group
// so Perfetto renders one collapsible row block per shard.
func shardPID(shard int) int32 { return int32(100 + shard) }

// stitchSegment writes one shard's trace segment into the coordinator's
// timeline under the shard's process group. Worker events land on
// tid = lane+1 (tid 0 holds the coordinator-side shard span), and every
// timestamp is clamped into the coordinator-observed [grant, complete]
// window: worker clocks may be skewed against the coordinator's, and
// clamping guarantees the stitched spans nest inside their shard span,
// which in turn nests inside the campaign root.
func stitchSegment(tw *tracefile.Writer, seg *TraceSegment, granted, completed time.Time) {
	if tw == nil || seg == nil {
		return
	}
	winLo, winHi := granted.UnixMicro(), completed.UnixMicro()
	pid := shardPID(seg.Shard)
	for _, ev := range seg.Events {
		lo := clampInt64(ev.StartUS, winLo, winHi)
		hi := clampInt64(ev.StartUS+ev.DurUS, lo, winHi)
		at := time.UnixMicro(lo)
		if ev.Instant {
			tw.InstantOn(pid, ev.Lane+1, ev.Name, ev.Detail, at)
			continue
		}
		tw.CompleteOn(pid, ev.Lane+1, ev.Name, ev.Detail, at, time.Duration(hi-lo)*time.Microsecond)
	}
}

func clampInt64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
