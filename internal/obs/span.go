package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// spanStat accumulates the wall-clock accounting for one span path.
type spanStat struct {
	count atomic.Int64
	nanos atomic.Int64
}

// Tracer receives the lifecycle of every span for timeline export. It is
// the seam between the registry and internal/obs/tracefile (which
// implements it): a span acquires a lane when it starts, and reports its
// (path, detail, start, duration) on the lane when it ends, so concurrent
// spans land on distinct timeline rows. Implementations must be safe for
// concurrent use.
type Tracer interface {
	BeginLane() int32
	EndLane(lane int32)
	Complete(name, detail string, start time.Time, dur time.Duration, lane int32)
	Instant(name, detail string, at time.Time)
}

// tracerHolder wraps the Tracer for atomic publication (AttachTracer may
// race with hot-path StartSpan calls in tests).
type tracerHolder struct{ t Tracer }

// AttachTracer starts mirroring every span into t (a tracefile.Writer).
// Metrics accounting is unchanged; tracing is strictly additive. Attaching
// nil detaches the current tracer. Safe on a nil registry (no-op).
func (r *Registry) AttachTracer(t Tracer) {
	if r == nil {
		return
	}
	if t == nil {
		r.tracer.Store(nil)
		return
	}
	r.tracer.Store(&tracerHolder{t: t})
}

// Tracer returns the currently attached tracer (nil when none). The fleet
// worker uses it to tee a bounded per-shard trace segment alongside an
// operator's own -trace file. Safe on a nil registry.
func (r *Registry) Tracer() Tracer {
	if r == nil {
		return nil
	}
	if h := r.tracer.Load(); h != nil {
		return h.t
	}
	return nil
}

// teeTracer fans one span stream out to two tracers. Lanes are allocated
// on the primary (its lane numbers drive any tracefile rows); the
// secondary sees every completion on the primary's lane.
type teeTracer struct{ a, b Tracer }

// TeeTracer returns a tracer feeding both a and b; either may be nil, in
// which case the other is returned unchanged (nil when both are).
func TeeTracer(a, b Tracer) Tracer {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &teeTracer{a: a, b: b}
}

func (t *teeTracer) BeginLane() int32 { return t.a.BeginLane() }
func (t *teeTracer) EndLane(l int32)  { t.a.EndLane(l) }
func (t *teeTracer) Complete(name, detail string, start time.Time, dur time.Duration, lane int32) {
	t.a.Complete(name, detail, start, dur, lane)
	t.b.Complete(name, detail, start, dur, lane)
}
func (t *teeTracer) Instant(name, detail string, at time.Time) {
	t.a.Instant(name, detail, at)
	t.b.Instant(name, detail, at)
}

// Instant emits a zero-duration timeline marker (no metrics accounting).
// Safe on a nil registry or with no tracer attached.
func (r *Registry) Instant(name, detail string) {
	if r == nil {
		return
	}
	if h := r.tracer.Load(); h != nil {
		h.t.Instant(name, detail, time.Now())
	}
}

// Span is one running timed section. Spans form a hierarchy through
// Start: a child's path is "parent/child", so the exporters render a
// per-stage breakdown ("campaign", "campaign/golden", "campaign/batch").
// All methods are safe on a nil receiver (the disabled state).
type Span struct {
	reg    *Registry
	path   string
	detail string
	start  time.Time
	tracer Tracer
	lane   int32
}

// StartSpan begins a top-level timed section. Returns nil on a nil
// registry.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	s := &Span{reg: r, path: name, start: time.Now()}
	if h := r.tracer.Load(); h != nil {
		s.tracer = h.t
		s.lane = s.tracer.BeginLane()
	}
	return s
}

// Start begins a child section of s. Returns nil on a nil receiver.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{reg: s.reg, path: s.path + "/" + name, start: time.Now(), tracer: s.tracer}
	if c.tracer != nil {
		c.lane = c.tracer.BeginLane()
	}
	return c
}

// Detail annotates the span's timeline event with a formatted string (e.g.
// the wire name a search span works on). Metrics aggregation ignores the
// detail — span paths stay low-cardinality. Free (not even formatted) when
// no tracer is attached; safe on a nil receiver.
func (s *Span) Detail(format string, args ...interface{}) *Span {
	if s == nil || s.tracer == nil {
		return s
	}
	s.detail = fmt.Sprintf(format, args...)
	return s
}

// End stops the section and accounts its duration under the span path.
// It returns the elapsed time (0 on a nil receiver) and may be called at
// most once per span.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	s.reg.mu.Lock()
	st, ok := s.reg.spans[s.path]
	if !ok {
		st = &spanStat{}
		s.reg.spans[s.path] = st
	}
	s.reg.mu.Unlock()
	st.count.Add(1)
	st.nanos.Add(int64(d))
	if s.tracer != nil {
		s.tracer.Complete(s.path, s.detail, s.start, d, s.lane)
		s.tracer.EndLane(s.lane)
	}
	return d
}
