// Package tracefile writes execution timelines in the Chrome trace-event
// JSON format (the "trace_event" format consumed by Perfetto, chrome://
// tracing and speedscope). The pruning pipeline's timed spans — cone
// analysis per wire, MATE search per flip-flop, campaign batches, journal
// appends — become complete events ("ph":"X") on a set of virtual lanes,
// so a `-trace campaign.json` file drops straight into ui.perfetto.dev and
// shows where campaign wall-clock actually goes.
//
// The writer is deliberately decoupled from package obs (obs imports
// tracefile, never the reverse): it only deals in names, wall-clock
// timestamps and lane numbers. Lanes play the role of thread ids in the
// trace: a span acquires the lowest free lane when it starts and releases
// it when it completes, so concurrent spans render side by side instead of
// overlapping on one row.
//
// Buffering is bounded: events accumulate in a fixed-size in-memory buffer
// and are flushed to the underlying file whenever the buffer fills, so a
// million-event campaign costs bounded memory (the file grows instead).
// Close flushes the tail and terminates the JSON document; a file from a
// crashed process (no Close) is still salvageable because Perfetto
// tolerates a truncated trailing event list.
package tracefile

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultBufferEvents is the default bound on buffered events before a
// flush to the underlying writer (~100 bytes/event → a few MB of memory).
const DefaultBufferEvents = 16384

// event is one buffered trace event.
type event struct {
	name   string
	detail string
	ph     byte  // 'X' complete, 'i' instant, 'M' metadata
	ts     int64 // µs since writer start
	dur    int64 // µs ('X' only)
	lane   int32 // trace tid
	pid    int32 // trace pid (0 = the default process 1)
	meta   string
}

// Writer emits one Chrome trace-event JSON document. All methods are safe
// for concurrent use and safe on a nil receiver (the disabled state), so
// callers can thread an optional *Writer without nil checks.
type Writer struct {
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	start   time.Time
	buf     []event
	max     int
	wrote   int64 // events written to the file so far
	dropped int64 // events lost to write errors
	err     error // first write error (sticky)
	closed  bool
	lanes   Lanes
}

// Lanes hands out trace lanes lowest-free first, so concurrent spans
// occupy distinct rows and a released row is reused before a new one
// opens. The zero value is ready to use and safe for concurrent use.
type Lanes struct {
	mu       sync.Mutex
	used     []bool // used[i]: lane i is held
	freeHint int32  // the lowest lane that might be free
}

// Begin reserves the lowest free lane.
func (l *Lanes) Begin() int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := int(l.freeHint); i < len(l.used); i++ {
		if !l.used[i] {
			l.used[i] = true
			l.freeHint = int32(i) + 1
			return int32(i)
		}
	}
	l.used = append(l.used, true)
	lane := int32(len(l.used) - 1)
	l.freeHint = lane + 1
	return lane
}

// End returns lane to the free pool.
func (l *Lanes) End(lane int32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if int(lane) < len(l.used) {
		l.used[lane] = false
		if lane < l.freeHint {
			l.freeHint = lane
		}
	}
}

// Create opens (or truncates) path and starts a trace document.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	w := &Writer{
		f:     f,
		w:     bufio.NewWriterSize(f, 1<<16),
		start: time.Now(),
		max:   DefaultBufferEvents,
	}
	// The object form (vs the bare array) lets us carry displayTimeUnit and
	// keeps the document extensible; Perfetto accepts both.
	if _, err := w.w.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		f.Close()
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	return w, nil
}

// BeginLane reserves the lowest free lane for a starting span. Lanes map to
// trace thread ids, so concurrent spans occupy distinct rows in the viewer.
// Returns 0 on a nil receiver.
func (w *Writer) BeginLane() int32 {
	if w == nil {
		return 0
	}
	return w.lanes.Begin()
}

// EndLane returns a lane to the free pool. Safe on a nil receiver.
func (w *Writer) EndLane(lane int32) {
	if w != nil {
		w.lanes.End(lane)
	}
}

// Complete records one finished span as a complete ("X") event on the given
// lane. Safe on a nil receiver.
func (w *Writer) Complete(name, detail string, start time.Time, dur time.Duration, lane int32) {
	if w == nil {
		return
	}
	w.add(event{
		name:   name,
		detail: detail,
		ph:     'X',
		ts:     start.Sub(w.start).Microseconds(),
		dur:    dur.Microseconds(),
		lane:   lane,
	})
}

// Instant records a zero-duration marker ("i") event on lane 0. Safe on a
// nil receiver.
func (w *Writer) Instant(name, detail string, at time.Time) {
	if w == nil {
		return
	}
	w.add(event{name: name, detail: detail, ph: 'i', ts: at.Sub(w.start).Microseconds()})
}

// CompleteOn records one complete ("X") event on an explicit (pid, tid)
// pair — the raw emission the fleet coordinator uses to stitch worker
// trace segments into one timeline (one process group per shard, one
// thread per worker lane). pid <= 0 falls back to the default process 1.
// Safe on a nil receiver.
func (w *Writer) CompleteOn(pid, tid int32, name, detail string, start time.Time, dur time.Duration) {
	if w == nil {
		return
	}
	w.add(event{
		name:   name,
		detail: detail,
		ph:     'X',
		ts:     start.Sub(w.start).Microseconds(),
		dur:    dur.Microseconds(),
		lane:   tid,
		pid:    pid,
	})
}

// InstantOn records a zero-duration marker on an explicit (pid, tid)
// pair. Safe on a nil receiver.
func (w *Writer) InstantOn(pid, tid int32, name, detail string, at time.Time) {
	if w == nil {
		return
	}
	w.add(event{name: name, detail: detail, ph: 'i', ts: at.Sub(w.start).Microseconds(), lane: tid, pid: pid})
}

// ProcessName emits the process_name metadata event labelling pid's row
// group in the viewer. Safe on a nil receiver.
func (w *Writer) ProcessName(pid int32, name string) {
	if w == nil {
		return
	}
	w.add(event{name: "process_name", ph: 'M', pid: pid, meta: name})
}

// ThreadName emits the thread_name metadata event labelling (pid, tid)'s
// row in the viewer. Safe on a nil receiver.
func (w *Writer) ThreadName(pid, tid int32, name string) {
	if w == nil {
		return
	}
	w.add(event{name: "thread_name", ph: 'M', pid: pid, lane: tid, meta: name})
}

func (w *Writer) add(ev event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		w.dropped++
		return
	}
	w.buf = append(w.buf, ev)
	if len(w.buf) >= w.max {
		w.flushLocked()
	}
}

// flushLocked encodes and writes every buffered event. Events are sorted by
// timestamp within the batch so the file stays roughly time-ordered (the
// format does not require it, but it keeps diffs and partial reads sane).
func (w *Writer) flushLocked() {
	if len(w.buf) == 0 || w.err != nil {
		w.buf = w.buf[:0]
		return
	}
	sort.SliceStable(w.buf, func(i, j int) bool { return w.buf[i].ts < w.buf[j].ts })
	var sb strings.Builder
	for _, ev := range w.buf {
		if w.wrote > 0 {
			sb.WriteString(",\n")
		}
		w.wrote++
		pid := ev.pid
		if pid <= 0 {
			pid = 1
		}
		fmt.Fprintf(&sb, `{"name":%s,"ph":"%c","ts":%d,"pid":%d,"tid":%d`,
			quote(ev.name), ev.ph, ev.ts, pid, ev.lane)
		if ev.ph == 'X' {
			fmt.Fprintf(&sb, `,"dur":%d`, ev.dur)
		}
		if ev.ph == 'i' {
			sb.WriteString(`,"s":"g"`)
		}
		switch {
		case ev.ph == 'M':
			fmt.Fprintf(&sb, `,"args":{"name":%s}`, quote(ev.meta))
		case ev.detail != "":
			fmt.Fprintf(&sb, `,"args":{"detail":%s}`, quote(ev.detail))
		}
		sb.WriteString("}")
	}
	if _, err := w.w.WriteString(sb.String()); err != nil && w.err == nil {
		w.err = err
		w.dropped += int64(len(w.buf))
	}
	w.buf = w.buf[:0]
}

// Flush forces buffered events to the underlying file. Safe on a nil
// receiver.
func (w *Writer) Flush() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flushLocked()
	if err := w.w.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	return w.err
}

// Events returns how many events were written and how many were dropped
// (write errors or events arriving after Close). Safe on a nil receiver.
func (w *Writer) Events() (written, dropped int64) {
	if w == nil {
		return 0, 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.wrote, w.dropped
}

// Close flushes the tail, terminates the JSON document and closes the file.
// Safe on a nil receiver; idempotent.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.closed = true
	w.flushLocked()
	if _, err := w.w.WriteString("\n]}\n"); err != nil && w.err == nil {
		w.err = err
	}
	if err := w.w.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = err
	}
	return w.err
}

// quote renders s as a JSON string without pulling in encoding/json on the
// flush path. The span names and details we emit are ASCII identifiers and
// wire names; anything unprintable is escaped numerically.
func quote(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			sb.WriteByte('\\')
			sb.WriteByte(c)
		case c < 0x20:
			fmt.Fprintf(&sb, `\u%04x`, c)
		default:
			sb.WriteByte(c)
		}
	}
	sb.WriteByte('"')
	return sb.String()
}
