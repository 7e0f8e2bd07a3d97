package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Level grades event-log entries. The event log is for operational events
// (lease granted, shard merged, anomaly raised), not per-point metrics —
// metrics stay in the registry.
type Level int8

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// ParseLevel maps a -log-level string onto a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
}

// eventLine is the wire shape of one event-log entry: a single JSON object
// per line, so the log is greppable (`grep '"event":"anomaly.straggler"'`)
// and machine-readable (jq, Loki, …) at the same time.
type eventLine struct {
	TS        string          `json:"ts"`
	Level     string          `json:"level"`
	Component string          `json:"component,omitempty"`
	Event     string          `json:"event"`
	Msg       string          `json:"msg,omitempty"`
	Fields    json.RawMessage `json:"fields,omitempty"`
}

// EventLog is a leveled, structured JSONL event log: every entry is one
// complete JSON object on one line. It replaces ad-hoc stderr prints on
// the fleet coordinator and worker so a campaign's operational history is
// machine-parseable. All methods are safe for concurrent use and safe on
// a nil receiver (the disabled state, like every obs handle).
type EventLog struct {
	mu        sync.Mutex
	w         io.Writer
	min       Level
	component string
	now       func() time.Time // injectable for tests
}

// NewEventLog writes events at or above min to w, stamping each line with
// component (e.g. "campaignd", "campaignworker").
func NewEventLog(w io.Writer, component string, min Level) *EventLog {
	return &EventLog{w: w, min: min, component: component, now: time.Now}
}

// Event appends one event line. event is the stable machine key, dotted
// by convention ("lease.grant", "anomaly.straggler"); msg is the human
// half; fields is an even-length key/value list whose values are
// JSON-encoded. Entries below the log's minimum level are dropped. Safe
// on a nil receiver.
func (l *EventLog) Event(level Level, event, msg string, fields ...interface{}) {
	if l == nil || level < l.min {
		return
	}
	line := eventLine{
		Level:     level.String(),
		Component: l.component,
		Event:     event,
		Msg:       msg,
	}
	if len(fields) > 1 {
		m := make(map[string]interface{}, len(fields)/2)
		for i := 0; i+1 < len(fields); i += 2 {
			k, ok := fields[i].(string)
			if !ok {
				k = fmt.Sprint(fields[i])
			}
			m[k] = fields[i+1]
		}
		if raw, err := json.Marshal(m); err == nil {
			line.Fields = raw
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	line.TS = l.now().UTC().Format(time.RFC3339Nano)
	data, err := json.Marshal(line)
	if err != nil {
		return
	}
	data = append(data, '\n')
	_, _ = l.w.Write(data)
}
