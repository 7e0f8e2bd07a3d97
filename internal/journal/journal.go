// Package journal provides the durable campaign journal: an append-only,
// length-prefixed, CRC-checksummed record log (write-ahead-log style) that
// the HAFI campaign controller writes once per classified injection point.
// A campaign killed by SIGINT, OOM or a crashing worker leaves a journal
// from which `campaign -resume` reproduces the exact same CampaignResult
// as an uninterrupted run, re-executing only the points that never made it
// into the log.
//
// On-disk format:
//
//	magic "HAFIWAL1"
//	record*     where record = u32le length | body | u32le CRC32-C(body)
//	            and body     = u8 type | payload
//
// Record types: 0 = campaign header (golden signature, fault-list size and
// hash — the campaign identity a resume is checked against), 1 = one
// classified injection point, 2 = one MATE attribution hit (format v2:
// which MATE pruned which point, written immediately before the point's
// pruned experiment record), 3 = one classified injection point of a
// non-SEU fault model (format v3: the v2 payload plus the model tag and
// its operands). Recovery walks the log front to back and
// stops at the first frame that is incomplete (a torn tail from a crash
// mid-write — tolerated, the tail is dropped) or fails its checksum (a
// corrupt record — rejected, together with everything after it, since a
// damaged log has no trustworthy resynchronisation point). Either way the
// recovered prefix only ever contains records that were durably and intact
// on disk: recovery never claims an experiment that did not run.
//
// Versioning: v1 journals (headers + experiment records only, as written
// before MATE attribution existed) recover unchanged — the hit index is
// simply empty. v2 journals interleave type-2 records; a reader of either
// version accepts both, and a hit whose experiment record was lost to a
// torn tail is an orphan that consumers ignore (the point re-runs on
// resume and re-appends both records; the per-index maps keep the last).
// v3 journals additionally interleave type-3 records for points of non-SEU
// fault models; SEU points keep the v2 encoding even in a v3 journal, so a
// campaign of classic single-bit upsets writes a byte-identical v2 journal
// and every pre-v3 journal recovers, resumes and diffs exactly as before.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"repro/internal/obs"
)

const magic = "HAFIWAL1"

const (
	recHeader       = 0
	recExperiment   = 1
	recMATEHit      = 2 // format v2: per-MATE pruning attribution
	recExperimentV3 = 3 // format v3: experiment record with a fault-model tag

	headerPayloadLen     = 24 // 3 × u64
	experimentPayloadLen = 22 // u64 index + 3 × u32 + outcome + flags
	mateHitPayloadLen    = 18 // u64 index + 2 × u32 + u16 width
	// experimentV3PayloadLen extends the v2 payload with the fault-model
	// operands: u8 model + u8 model flags + u16 span + u16 period +
	// u16 target count + u64 target-set hash.
	experimentV3PayloadLen = experimentPayloadLen + 16

	// maxBodyLen bounds the length prefix; anything larger is garbage, not
	// a record (the largest real body is 1+experimentV3PayloadLen bytes).
	maxBodyLen = 256

	flagPruned       = 1 << 0
	flagSkippedWrong = 1 << 1

	// flags2StuckHigh lives in the v3 model-flags byte.
	flags2StuckHigh = 1 << 0
)

// crcTable is Castagnoli — hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Header identifies the campaign a journal belongs to. Resume refuses a
// journal whose header does not match the campaign being resumed: a stale
// journal from a different workload, netlist or fault list must never be
// merged into a fresh run.
type Header struct {
	// GoldenSignature is the fault-free result signature of the golden run.
	GoldenSignature uint64
	// NumPoints is the fault-list length.
	NumPoints uint64
	// FaultListHash fingerprints the exact (FF, cycle, duration) sequence.
	FaultListHash uint64
}

// Record is one classified injection point. FF, Cycle and Duration echo
// the fault point so recovery can verify the record against the fault list
// it is resumed into; Outcome uses the hafi outcome codes (benign=0, sdc=1,
// hang=2, harness-error=3) and is meaningful only for executed points.
type Record struct {
	// Index is the point's position in the campaign fault list.
	Index    uint64
	FF       uint32
	Cycle    uint32
	Duration uint32
	// Outcome is the classification of an executed point (hafi.Outcome).
	Outcome uint8
	// Pruned marks a point a MATE proved benign without execution.
	Pruned bool
	// SkippedWrong marks a validated-skipped point that was NOT benign on
	// re-execution (a MATE soundness violation).
	SkippedWrong bool

	// Fault-model fields (format v3). An all-zero set of model fields is a
	// classic SEU and encodes as a v2 experiment record, so SEU campaigns
	// keep writing byte-identical journals; any nonzero field selects the
	// v3 encoding. Model uses the hafi.ModelID codes (seu=0, mbu=1, set=2,
	// intermittent=3, stuck-at=4).
	Model uint8
	// Span is the MBU burst width, Period the intermittent re-flip period
	// (both normalised to >= 1 for non-SEU records).
	Span   uint16
	Period uint16
	// StuckHigh is the stuck-at level.
	StuckHigh bool
	// NumTargets and TargetsHash identify a SET record's flip set: the
	// journal stays fixed-width by storing the set's size and FNV
	// fingerprint rather than the member list (resume verifies them
	// against the reconstructed fault list).
	NumTargets  uint16
	TargetsHash uint64
}

// legacySEU reports whether the record encodes as a v2 experiment frame
// (all fault-model fields zero — the classic SEU shape).
func (rec Record) legacySEU() bool {
	return rec.Model == 0 && rec.Span == 0 && rec.Period == 0 && !rec.StuckHigh &&
		rec.NumTargets == 0 && rec.TargetsHash == 0
}

// MATEHit is one per-MATE pruning attribution (record type 2, format v2):
// the campaign controller proved point Index benign using MATE number MATE
// of the campaign's MATE set. Width echoes the MATE's literal count so the
// paper's cost/benefit metric (points pruned per term literal) can be
// recomputed from the journal alone, without the MATE-set file.
type MATEHit struct {
	// Index is the pruned point's position in the campaign fault list.
	Index uint64
	// FF is the pruned point's flip-flop (echoed for self-description).
	FF uint32
	// MATE is the crediting MATE's index in the campaign MATE set — the
	// MATE that fired first on the injection cycle.
	MATE uint32
	// Width is the crediting MATE's literal (input) count.
	Width uint16
}

// Writer appends records to a journal file. It is safe for concurrent use
// by the campaign worker shards: each Append is one mutex-guarded write of
// one complete frame, so records from different shards never interleave.
type Writer struct {
	mu      sync.Mutex
	f       *os.File
	scratch []byte
	// SyncEvery fsyncs the file every N appends (0 = never; the OS page
	// cache already survives a process crash, fsync additionally survives
	// power loss at a heavy per-record cost).
	SyncEvery int
	appended  int
	// appendsC/bytesC count durable appends and bytes when the writer is
	// instrumented (Instrument); nil-safe no-ops otherwise. reg additionally
	// times every append as a "journal/append" span (and thus a timeline
	// event when a tracer is attached).
	appendsC *obs.Counter
	bytesC   *obs.Counter
	reg      *obs.Registry
}

// Instrument attaches observability counters (journal_appends_total,
// journal_bytes_total) and the "journal/append" timing span to the writer.
// Safe on a nil writer or registry.
func (w *Writer) Instrument(reg *obs.Registry) {
	if w == nil || reg == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.appendsC = reg.Counter("journal_appends_total")
	w.bytesC = reg.Counter("journal_bytes_total")
	w.reg = reg
}

// Create creates (or truncates) a journal file and writes its campaign
// header record.
func Create(path string, h Header) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	w := &Writer{f: f}
	frame := appendFrame(nil, headerBody(h))
	if _, err := f.Write(append([]byte(magic), frame...)); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: write header: %w", err)
	}
	return w, nil
}

// Append durably logs one classified point. SEU records (all model fields
// zero) are written as v2 frames, byte-identical to pre-fault-model
// journals; records of other models are written as v3 frames.
func (w *Writer) Append(rec Record) error {
	return w.appendBody(recordBody(rec))
}

// AppendMATEHit durably logs one per-MATE pruning attribution. Callers
// append the hit immediately before the pruned point's experiment record:
// a crash between the two leaves an orphan hit (ignored on recovery), never
// a pruned point without attribution.
func (w *Writer) AppendMATEHit(hit MATEHit) error {
	return w.appendBody(mateHitBody(hit))
}

func (w *Writer) appendBody(body []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	sp := w.reg.StartSpan("journal/append")
	defer sp.End()
	w.scratch = appendFrame(w.scratch[:0], body)
	if _, err := w.f.Write(w.scratch); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	w.appendsC.Inc()
	w.bytesC.Add(int64(len(w.scratch)))
	w.appended++
	if w.SyncEvery > 0 && w.appended%w.SyncEvery == 0 {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
	}
	return nil
}

// Sync flushes the journal to stable storage.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Sync()
}

// Close syncs and closes the journal file. Safe to call on a nil Writer.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Recovered is the result of reading a journal back: the validated record
// prefix plus a diagnosis of how the log ended.
type Recovered struct {
	Header    Header
	HasHeader bool
	// Records holds every intact record in log order. ByIndex holds the
	// same records keyed by fault-list index; a point classified twice
	// (possible if a previous resume re-ran an in-flight point) keeps the
	// last record.
	Records []Record
	ByIndex map[uint64]Record
	// MATEHits holds every intact per-MATE attribution record in log order
	// (empty for v1 journals). HitByIndex keys the same hits by fault-list
	// index, keeping the last per point.
	MATEHits   []MATEHit
	HitByIndex map[uint64]MATEHit
	// Torn reports an incomplete final frame — the normal signature of a
	// crash mid-write. The torn bytes are dropped.
	Torn bool
	// Corrupt reports a complete frame that failed its checksum or decoded
	// to nonsense; it and everything after it are dropped.
	Corrupt bool
	// DroppedBytes counts the bytes discarded from the tail.
	DroppedBytes int64

	goodSize int64 // file offset of the end of the validated prefix
}

// Recover reads a journal file, tolerating a torn tail and rejecting
// corrupt records as described in the package comment.
func Recover(path string) (*Recovered, error) {
	return RecoverInstrumented(path, nil)
}

// RecoverInstrumented is Recover with observability: it counts recovery
// attempts (journal_recoveries_total), recovered records
// (journal_recovered_records_total) and tail bytes dropped
// (journal_dropped_bytes_total) on the given registry (nil = disabled).
func RecoverInstrumented(path string, reg *obs.Registry) (*Recovered, error) {
	reg.Counter("journal_recoveries_total").Inc()
	r, err := recoverFile(path)
	if err != nil {
		return nil, err
	}
	reg.Counter("journal_recovered_records_total").Add(int64(len(r.Records)))
	reg.Counter("journal_dropped_bytes_total").Add(r.DroppedBytes)
	return r, nil
}

func recoverFile(path string) (*Recovered, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return decode(data, path)
}

// decode recovers the journal image data (named name in errors). The
// damage-walk tests call it directly, so each mutated image is checked
// without a round trip through the file system.
func decode(data []byte, name string) (*Recovered, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("journal: %s is not a campaign journal (bad magic)", name)
	}
	r := &Recovered{ByIndex: map[uint64]Record{}, HitByIndex: map[uint64]MATEHit{}}
	off := len(magic)
	for off < len(data) {
		if len(data)-off < 4 {
			r.Torn = true
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n < 1 || n > maxBodyLen {
			r.Corrupt = true
			break
		}
		if off+4+n+4 > len(data) {
			r.Torn = true
			break
		}
		body := data[off+4 : off+4+n]
		sum := binary.LittleEndian.Uint32(data[off+4+n:])
		if crc32.Checksum(body, crcTable) != sum {
			r.Corrupt = true
			break
		}
		if !r.decodeBody(body) {
			r.Corrupt = true
			break
		}
		off += 4 + n + 4
	}
	r.DroppedBytes = int64(len(data) - off)
	r.goodSize = int64(off)
	return r, nil
}

// decodeBody appends one checksum-validated record body; false means the
// body is structurally invalid (treated as corruption by the caller).
func (r *Recovered) decodeBody(body []byte) bool {
	switch body[0] {
	case recHeader:
		if len(body) != 1+headerPayloadLen || r.HasHeader || len(r.Records) > 0 {
			return false // header must be the unique first record
		}
		p := body[1:]
		r.Header = Header{
			GoldenSignature: binary.LittleEndian.Uint64(p[0:]),
			NumPoints:       binary.LittleEndian.Uint64(p[8:]),
			FaultListHash:   binary.LittleEndian.Uint64(p[16:]),
		}
		r.HasHeader = true
		return true
	case recExperiment:
		if len(body) != 1+experimentPayloadLen || !r.HasHeader {
			return false
		}
		p := body[1:]
		rec := Record{
			Index:        binary.LittleEndian.Uint64(p[0:]),
			FF:           binary.LittleEndian.Uint32(p[8:]),
			Cycle:        binary.LittleEndian.Uint32(p[12:]),
			Duration:     binary.LittleEndian.Uint32(p[16:]),
			Outcome:      p[20],
			Pruned:       p[21]&flagPruned != 0,
			SkippedWrong: p[21]&flagSkippedWrong != 0,
		}
		if rec.Index >= r.Header.NumPoints {
			return false // claims a point outside the recorded fault list
		}
		r.Records = append(r.Records, rec)
		r.ByIndex[rec.Index] = rec
		return true
	case recExperimentV3:
		if len(body) != 1+experimentV3PayloadLen || !r.HasHeader {
			return false
		}
		p := body[1:]
		rec := Record{
			Index:        binary.LittleEndian.Uint64(p[0:]),
			FF:           binary.LittleEndian.Uint32(p[8:]),
			Cycle:        binary.LittleEndian.Uint32(p[12:]),
			Duration:     binary.LittleEndian.Uint32(p[16:]),
			Outcome:      p[20],
			Pruned:       p[21]&flagPruned != 0,
			SkippedWrong: p[21]&flagSkippedWrong != 0,
			Model:        p[22],
			StuckHigh:    p[23]&flags2StuckHigh != 0,
			Span:         binary.LittleEndian.Uint16(p[24:]),
			Period:       binary.LittleEndian.Uint16(p[26:]),
			NumTargets:   binary.LittleEndian.Uint16(p[28:]),
			TargetsHash:  binary.LittleEndian.Uint64(p[30:]),
		}
		if rec.Index >= r.Header.NumPoints {
			return false // claims a point outside the recorded fault list
		}
		if rec.legacySEU() {
			return false // an all-zero model block belongs in a v2 frame
		}
		r.Records = append(r.Records, rec)
		r.ByIndex[rec.Index] = rec
		return true
	case recMATEHit:
		if len(body) != 1+mateHitPayloadLen || !r.HasHeader {
			return false
		}
		p := body[1:]
		hit := MATEHit{
			Index: binary.LittleEndian.Uint64(p[0:]),
			FF:    binary.LittleEndian.Uint32(p[8:]),
			MATE:  binary.LittleEndian.Uint32(p[12:]),
			Width: binary.LittleEndian.Uint16(p[16:]),
		}
		if hit.Index >= r.Header.NumPoints {
			return false // claims a point outside the recorded fault list
		}
		r.MATEHits = append(r.MATEHits, hit)
		r.HitByIndex[hit.Index] = hit
		return true
	}
	return false // unknown record type
}

// Resume reopens an existing journal for a resumed campaign: it recovers
// the validated prefix, verifies the header matches the campaign at hand,
// truncates any torn or corrupt tail so new records append at a clean
// frame boundary, and returns a Writer positioned at the end.
func Resume(path string, h Header) (*Writer, *Recovered, error) {
	return ResumeInstrumented(path, h, nil)
}

// ResumeInstrumented is Resume with observability: recovery counters are
// recorded on reg (see RecoverInstrumented) and the returned Writer is
// instrumented. A nil registry disables both.
func ResumeInstrumented(path string, h Header, reg *obs.Registry) (*Writer, *Recovered, error) {
	rec, err := RecoverInstrumented(path, reg)
	if err != nil {
		return nil, nil, err
	}
	if !rec.HasHeader {
		return nil, nil, fmt.Errorf("journal: %s has no intact campaign header", path)
	}
	if rec.Header != h {
		return nil, nil, fmt.Errorf("journal: %s belongs to a different campaign (header %+v, want %+v)", path, rec.Header, h)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if err := f.Truncate(rec.goodSize); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: truncate tail: %w", err)
	}
	if _, err := f.Seek(rec.goodSize, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	w := &Writer{f: f}
	w.Instrument(reg)
	return w, rec, nil
}

// appendFrame appends length | body | crc to dst.
func appendFrame(dst, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = append(dst, body...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(body, crcTable))
}

func headerBody(h Header) []byte {
	b := make([]byte, 0, 1+headerPayloadLen)
	b = append(b, recHeader)
	b = binary.LittleEndian.AppendUint64(b, h.GoldenSignature)
	b = binary.LittleEndian.AppendUint64(b, h.NumPoints)
	return binary.LittleEndian.AppendUint64(b, h.FaultListHash)
}

// recordBody chooses the experiment encoding: v2 for legacy SEU records,
// v3 for model-tagged records. Every writer path (Append, Merge) funnels
// through it so the two-format invariant holds everywhere.
func recordBody(rec Record) []byte {
	if rec.legacySEU() {
		return experimentBody(rec)
	}
	return experimentV3Body(rec)
}

func experimentBody(rec Record) []byte {
	var flags byte
	if rec.Pruned {
		flags |= flagPruned
	}
	if rec.SkippedWrong {
		flags |= flagSkippedWrong
	}
	b := make([]byte, 0, 1+experimentPayloadLen)
	b = append(b, recExperiment)
	b = binary.LittleEndian.AppendUint64(b, rec.Index)
	b = binary.LittleEndian.AppendUint32(b, rec.FF)
	b = binary.LittleEndian.AppendUint32(b, rec.Cycle)
	b = binary.LittleEndian.AppendUint32(b, rec.Duration)
	return append(b, rec.Outcome, flags)
}

func experimentV3Body(rec Record) []byte {
	var flags byte
	if rec.Pruned {
		flags |= flagPruned
	}
	if rec.SkippedWrong {
		flags |= flagSkippedWrong
	}
	var flags2 byte
	if rec.StuckHigh {
		flags2 |= flags2StuckHigh
	}
	b := make([]byte, 0, 1+experimentV3PayloadLen)
	b = append(b, recExperimentV3)
	b = binary.LittleEndian.AppendUint64(b, rec.Index)
	b = binary.LittleEndian.AppendUint32(b, rec.FF)
	b = binary.LittleEndian.AppendUint32(b, rec.Cycle)
	b = binary.LittleEndian.AppendUint32(b, rec.Duration)
	b = append(b, rec.Outcome, flags, rec.Model, flags2)
	b = binary.LittleEndian.AppendUint16(b, rec.Span)
	b = binary.LittleEndian.AppendUint16(b, rec.Period)
	b = binary.LittleEndian.AppendUint16(b, rec.NumTargets)
	return binary.LittleEndian.AppendUint64(b, rec.TargetsHash)
}

func mateHitBody(hit MATEHit) []byte {
	b := make([]byte, 0, 1+mateHitPayloadLen)
	b = append(b, recMATEHit)
	b = binary.LittleEndian.AppendUint64(b, hit.Index)
	b = binary.LittleEndian.AppendUint32(b, hit.FF)
	b = binary.LittleEndian.AppendUint32(b, hit.MATE)
	return binary.LittleEndian.AppendUint16(b, hit.Width)
}
