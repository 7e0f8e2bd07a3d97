package journal

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var testHeader = Header{GoldenSignature: 0xdeadbeefcafe, NumPoints: 1000, FaultListHash: 0x1234567890ab}

// writeJournal creates a journal with n experiment records and returns its
// path plus the records written.
func writeJournal(t testing.TB, n int) (string, []Record) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.journal")
	w, err := Create(path, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Index:        uint64(i),
			FF:           uint32(i * 3),
			Cycle:        uint32(i * 7),
			Duration:     1,
			Outcome:      uint8(i % 4),
			Pruned:       i%5 == 0,
			SkippedWrong: i%25 == 0,
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

func TestRoundTrip(t *testing.T) {
	path, recs := writeJournal(t, 50)
	r, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasHeader || r.Header != testHeader {
		t.Fatalf("header = %+v, %v", r.Header, r.HasHeader)
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
	if len(r.ByIndex) != len(recs) {
		t.Fatalf("ByIndex has %d entries", len(r.ByIndex))
	}
}

// TestTornTail truncates the journal at every possible byte boundary: the
// reader must always recover a clean prefix of the written records and
// never claim an experiment whose record was not fully on disk.
func TestTornTail(t *testing.T) {
	path, recs := writeJournal(t, 20)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries: a cut exactly between frames is indistinguishable
	// from a journal whose campaign stopped there, so only cuts inside a
	// frame must be diagnosed as torn.
	boundary := map[int]bool{len(magic): true}
	for pos := len(magic); pos+8 <= len(data); {
		pos += 8 + int(binary.LittleEndian.Uint32(data[pos:]))
		boundary[pos] = true
	}
	for n := 0; n < len(data); n++ {
		r, err := decode(data[:n], "cut.journal")
		if n < len(magic) {
			if err == nil {
				t.Fatalf("cut at %d: expected bad-magic error", n)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut at %d: %v", n, err)
		}
		if !boundary[n] && !r.Torn && !r.Corrupt {
			t.Fatalf("cut at %d: mid-frame truncation not diagnosed (%d records)", n, len(r.Records))
		}
		// The recovered prefix must match the written records one for one.
		for i, rec := range r.Records {
			if rec != recs[i] {
				t.Fatalf("cut at %d: record %d = %+v, want %+v", n, i, rec, recs[i])
			}
		}
	}
}

// TestBitFlips flips every bit of the file in turn: the CRC must reject
// the damaged record, and recovery must still return only records that
// were actually written (a prefix, since recovery stops at the damage).
func TestBitFlips(t *testing.T) {
	path, recs := writeJournal(t, 20)
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
				continue // flip inside the magic — rejected outright, fine
			}
			// Whatever survives must be records we actually wrote, with
			// intact content: recovery never fabricates or alters results.
			for _, rec := range r.Records {
				if rec.Index >= uint64(len(recs)) || rec != recs[rec.Index] {
					t.Fatalf("flip at byte %d bit %d: recovered fabricated record %+v", pos, bit, rec)
				}
			}
			if r.HasHeader && r.Header != testHeader {
				t.Fatalf("flip at byte %d bit %d: header silently altered to %+v", pos, bit, r.Header)
			}
		}
	}
}

// TestGarbageAppend appends random junk: the valid records all survive and
// the junk is dropped and diagnosed.
func TestGarbageAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		path, recs := writeJournal(t, 10)
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

func TestRecordOutsideFaultListRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.journal")
	w, err := Create(path, Header{NumPoints: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Index: 2}); err != nil {
		t.Fatal(err)
	}
	// Index 7 is beyond the declared fault list: a valid frame carrying an
	// impossible claim must be treated as corruption.
	if err := w.Append(Record{Index: 7}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	r, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Records) != 1 || !r.Corrupt {
		t.Fatalf("out-of-range record not rejected: %+v", r)
	}
}

func TestResume(t *testing.T) {
	path, recs := writeJournal(t, 10)

	// Damage the tail: drop the last 3 bytes (torn final record).
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	w, r, err := Resume(path, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Torn || len(r.Records) != len(recs)-1 {
		t.Fatalf("resume diagnosis: torn=%v records=%d", r.Torn, len(r.Records))
	}
	// Append past the truncated tail; the file must read back clean.
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
		t.Fatalf("after resume-append: %+v", r2)
	}
	if r2.Records[len(recs)-1] != last {
		t.Fatal("resumed append did not land at a clean boundary")
	}
}

func TestResumeHeaderMismatch(t *testing.T) {
	path, _ := writeJournal(t, 3)
	other := testHeader
	other.FaultListHash++
	if _, _, err := Resume(path, other); err == nil {
		t.Fatal("resume accepted a journal from a different campaign")
	}
}

func TestResumeMissingFile(t *testing.T) {
	if _, _, err := Resume(filepath.Join(t.TempDir(), "nope.journal"), testHeader); err == nil {
		t.Fatal("resume accepted a missing journal")
	}
}

func TestRecoverNotAJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x")
	os.WriteFile(path, []byte("definitely not a journal"), 0o644)
	if _, err := Recover(path); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conc.journal")
	w, err := Create(path, Header{NumPoints: 1000})
	if err != nil {
		t.Fatal(err)
	}
	const shards, per = 8, 50
	done := make(chan error, shards)
	for s := 0; s < shards; s++ {
		go func(s int) {
			for i := 0; i < per; i++ {
				if err := w.Append(Record{Index: uint64(s*per + i)}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(s)
	}
	for s := 0; s < shards; s++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	r, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Records) != shards*per || r.Torn || r.Corrupt {
		t.Fatalf("concurrent appends interleaved: %d records, torn=%v corrupt=%v", len(r.Records), r.Torn, r.Corrupt)
	}
	seen := map[uint64]bool{}
	for _, rec := range r.Records {
		if seen[rec.Index] {
			t.Fatalf("record %d duplicated", rec.Index)
		}
		seen[rec.Index] = true
	}
}

// FuzzRecover: arbitrary bytes must never panic the reader, and whatever
// it returns must obey the recovery contract (records only with a header,
// indices inside the declared fault list).
func FuzzRecover(f *testing.F) {
	path, _ := writeJournal(f, 5)
	if data, err := os.ReadFile(path); err == nil {
		f.Add(data)
		f.Add(data[:len(data)-2])
		f.Add(append(data, 0xff, 0x00, 0x17))
	}
	// Format v3 seeds: a journal mixing v2, v3 and MATE-hit frames, whole,
	// torn and with a junk tail.
	v3path, _ := writeModelJournal(f, 7)
	if data, err := os.ReadFile(v3path); err == nil {
		f.Add(data)
		f.Add(data[:len(data)-5])
		f.Add(append(data, 0x03, 0x00, 0x00, 0x00))
	}
	f.Add([]byte(magic))
	f.Add([]byte("HAFIWAL1\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decode(data, "fuzz.journal")
		if err != nil {
			return
		}
		for _, rec := range r.Records {
			if !r.HasHeader {
				t.Fatal("experiment record without a campaign header")
			}
			if rec.Index >= r.Header.NumPoints {
				t.Fatalf("record index %d outside declared fault list %d", rec.Index, r.Header.NumPoints)
			}
			// The canonical-encoding rule: a record that decodes to the
			// legacy SEU shape can only have come from a v2 frame, and its
			// re-encoding is that same v2 frame — so every recovered record
			// round-trips to exactly one byte encoding.
			if got := len(recordBody(rec)); rec.legacySEU() {
				if got != 1+experimentPayloadLen {
					t.Fatalf("legacy record re-encodes to %d bytes", got)
				}
			} else if got != 1+experimentV3PayloadLen {
				t.Fatalf("v3 record re-encodes to %d bytes", got)
			}
		}
		for _, hit := range r.MATEHits {
			if !r.HasHeader {
				t.Fatal("MATE hit without a campaign header")
			}
			if hit.Index >= r.Header.NumPoints {
				t.Fatalf("hit index %d outside declared fault list %d", hit.Index, r.Header.NumPoints)
			}
		}
	})
}
