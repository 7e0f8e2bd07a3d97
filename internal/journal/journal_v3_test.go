package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// modelRecord builds a deterministic record for point i, cycling through
// the fault models with each model's operands populated the way the hafi
// campaign writer normalises them (span/period >= 1 on non-SEU records).
func modelRecord(i int) Record {
	rec := Record{
		Index:    uint64(i),
		FF:       uint32(i * 3),
		Cycle:    uint32(i * 7),
		Duration: 1,
		Outcome:  uint8(i % 4),
		Pruned:   i%5 == 0,
	}
	switch i % 5 {
	case 0: // classic SEU — stays a v2 frame
	case 1: // mbu
		rec.Model, rec.Span, rec.Period = 1, 3, 1
	case 2: // set
		rec.Model, rec.Span, rec.Period = 2, 1, 1
		rec.NumTargets = uint16(2 + i%3)
		rec.TargetsHash = 0x9e3779b97f4a7c15 * uint64(i+1)
	case 3: // intermittent
		rec.Model, rec.Span, rec.Period = 3, 1, 2
		rec.Duration = 8
	case 4: // stuck-at
		rec.Model, rec.Span, rec.Period = 4, 1, 1
		rec.Duration = 4
		rec.StuckHigh = i%2 == 0
	}
	return rec
}

// writeModelJournal creates a journal mixing v2 (plain SEU) and v3
// (model-tagged) experiment frames, with a MATE hit before each pruned
// record, and returns its path plus the records written.
func writeModelJournal(t testing.TB, n int) (string, []Record) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.journal")
	w, err := Create(path, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = modelRecord(i)
		if recs[i].Pruned {
			if err := w.AppendMATEHit(MATEHit{Index: uint64(i), FF: recs[i].FF, MATE: uint32(i % 3), Width: 4}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, recs
}

// frameTypes walks the raw frames of a journal file and returns the record
// type byte of each frame.
func frameTypes(t testing.TB, path string) []uint8 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var types []uint8
	for pos := len(magic); pos+8 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[pos:]))
		types = append(types, data[pos+4])
		pos += 8 + n
	}
	return types
}

// TestV3RoundTrip: records of every fault model survive Append/Recover
// bit-exactly, plain-SEU records still encode as v2 frames, and only
// model-tagged records use the v3 frame type.
func TestV3RoundTrip(t *testing.T) {
	path, recs := writeModelJournal(t, 50)
	r, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Torn || r.Corrupt || r.DroppedBytes != 0 {
		t.Fatalf("clean journal diagnosed damaged: %+v", r)
	}
	if len(r.Records) != len(recs) {
		t.Fatalf("recovered %d of %d records", len(r.Records), len(recs))
	}
	for i, rec := range r.Records {
		if rec != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, rec, recs[i])
		}
	}

	types := frameTypes(t, path)
	i := 0 // experiment counter (skips header and hit frames)
	for _, typ := range types {
		switch typ {
		case recHeader, recMATEHit:
			continue
		case recExperiment:
			if !recs[i].legacySEU() {
				t.Fatalf("model-tagged record %d written as a v2 frame", i)
			}
		case recExperimentV3:
			if recs[i].legacySEU() {
				t.Fatalf("plain-SEU record %d written as a v3 frame", i)
			}
		default:
			t.Fatalf("unknown frame type %d", typ)
		}
		i++
	}
	if i != len(recs) {
		t.Fatalf("saw %d experiment frames for %d records", i, len(recs))
	}
}

// TestV3TornTail is the truncation boundary walk over a journal mixing v2,
// v3 and MATE-hit frames: every mid-frame cut must be diagnosed, and the
// recovered prefix must match the written records exactly.
func TestV3TornTail(t *testing.T) {
	path, recs := writeModelJournal(t, 20)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boundary := map[int]bool{len(magic): true}
	for pos := len(magic); pos+8 <= len(data); {
		pos += 8 + int(binary.LittleEndian.Uint32(data[pos:]))
		boundary[pos] = true
	}
	for n := len(magic); n < len(data); n++ {
		r, err := decode(data[:n], "cut.journal")
		if err != nil {
			t.Fatalf("cut at %d: %v", n, err)
		}
		if !boundary[n] && !r.Torn && !r.Corrupt {
			t.Fatalf("cut at %d: mid-frame truncation not diagnosed (%d records)", n, len(r.Records))
		}
		for i, rec := range r.Records {
			if rec != recs[i] {
				t.Fatalf("cut at %d: record %d = %+v, want %+v", n, i, rec, recs[i])
			}
		}
	}
}

// TestV3BitFlips flips every bit of a mixed-version journal: recovery must
// never fabricate or alter a record, whatever the damage.
func TestV3BitFlips(t *testing.T) {
	path, recs := writeModelJournal(t, 20)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(data); pos++ {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(data)
			mut[pos] ^= 1 << bit
			r, err := decode(mut, "flipped.journal")
			if err != nil {
				continue // flip inside the magic
			}
			for _, rec := range r.Records {
				if rec.Index >= uint64(len(recs)) || rec != recs[rec.Index] {
					t.Fatalf("flip at byte %d bit %d: recovered fabricated record %+v", pos, bit, rec)
				}
			}
			if r.HasHeader && r.Header != testHeader {
				t.Fatalf("flip at byte %d bit %d: header silently altered", pos, bit)
			}
		}
	}
}

// TestV3GarbageAppend: junk after a mixed-version journal is dropped and
// diagnosed without touching the valid records.
func TestV3GarbageAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		path, recs := writeModelJournal(t, 10)
		junk := make([]byte, 1+rng.Intn(200))
		rng.Read(junk)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(junk)
		f.Close()
		r, err := Recover(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Records) != len(recs) {
			t.Fatalf("trial %d: garbage destroyed valid records (%d of %d)", trial, len(r.Records), len(recs))
		}
		for i, rec := range r.Records {
			if rec != recs[i] {
				t.Fatalf("trial %d: record %d altered", trial, i)
			}
		}
		if !r.Torn && !r.Corrupt {
			t.Fatalf("trial %d: %d junk bytes not diagnosed", trial, len(junk))
		}
	}
}

// TestV3Resume: a model journal with a torn tail resumes at a clean frame
// boundary and reads back clean after the re-appended record.
func TestV3Resume(t *testing.T) {
	path, recs := writeModelJournal(t, 10)
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	w, r, err := Resume(path, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Torn {
		t.Fatalf("torn tail not diagnosed: %+v", r)
	}
	last := recs[len(recs)-1]
	if err := w.Append(last); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Torn || r2.Corrupt || len(r2.Records) != len(recs) {
		t.Fatalf("after resume-append: torn=%v corrupt=%v records=%d", r2.Torn, r2.Corrupt, len(r2.Records))
	}
	for i, rec := range r2.Records {
		if rec != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, rec, recs[i])
		}
	}
}

// TestV3CanonicalEncodingRejected: a v3 frame whose model block is all
// zero describes a plain SEU, which the writer always encodes as a v2
// frame. A well-checksummed v3 frame with a zero model block can therefore
// only come from a foreign or tampered writer and must be treated as
// corruption, so every record keeps exactly one on-disk encoding.
func TestV3CanonicalEncodingRejected(t *testing.T) {
	path, recs := writeJournal(t, 3)

	body := make([]byte, 1+experimentV3PayloadLen)
	body[0] = recExperimentV3
	binary.LittleEndian.PutUint64(body[1:], 3) // index inside the fault list
	binary.LittleEndian.PutUint32(body[9:], 9) // ff
	// model block (bytes 23..38 of the body) left all zero: non-canonical.
	frame := appendFrame(nil, body)
	if crc32.Checksum(body, crcTable) == 0 {
		t.Fatal("degenerate checksum")
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Corrupt {
		t.Fatal("non-canonical v3 frame accepted")
	}
	if len(r.Records) != len(recs) {
		t.Fatalf("valid prefix damaged: %d of %d records", len(r.Records), len(recs))
	}
	if _, ok := r.ByIndex[3]; ok {
		t.Fatal("the non-canonical record leaked into the index")
	}
}

// TestLegacyJournalStaysV2: a journal written purely from legacy-shaped
// records must contain no v3 frames at all — the on-disk format of every
// pre-fault-model campaign is preserved bit for bit.
func TestLegacyJournalStaysV2(t *testing.T) {
	path, recs := writeJournal(t, 25)
	for _, typ := range frameTypes(t, path) {
		if typ == recExperimentV3 {
			t.Fatal("legacy records produced a v3 frame")
		}
	}
	r, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range r.Records {
		if !rec.legacySEU() {
			t.Fatalf("legacy record %d recovered with model fields: %+v", i, rec)
		}
		if rec != recs[i] {
			t.Fatalf("record %d altered", i)
		}
	}
}
