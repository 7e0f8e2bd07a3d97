package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/obs"
)

var testHeader = journal.Header{GoldenSignature: 0xfeed, NumPoints: 40, FaultListHash: 0xbeef}

// point describes one synthetic classified point for buildJournal.
type point struct {
	idx     uint64
	ff      uint32
	cycle   uint32
	outcome uint8
	pruned  bool
	wrong   bool
	mate    int // attribution when pruned; -1 writes no hit (v1 style)
	width   uint16
}

func buildJournal(t *testing.T, hdr journal.Header, pts []point) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.journal")
	w, err := journal.Create(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.pruned && p.mate >= 0 {
			hit := journal.MATEHit{Index: p.idx, FF: p.ff, MATE: uint32(p.mate), Width: p.width}
			if err := w.AppendMATEHit(hit); err != nil {
				t.Fatal(err)
			}
		}
		rec := journal.Record{Index: p.idx, FF: p.ff, Cycle: p.cycle, Duration: 1,
			Outcome: p.outcome, Pruned: p.pruned, SkippedWrong: p.wrong}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// basePoints is a small campaign with every verdict class represented:
// executed benign/sdc/hang, attributed pruned points over two MATEs, one
// unattributed (v1-style) pruned point, one soundness violation.
func basePoints() []point {
	return []point{
		{idx: 0, ff: 1, cycle: 0, outcome: 0},
		{idx: 1, ff: 1, cycle: 10, outcome: 1},
		{idx: 2, ff: 2, cycle: 20, outcome: 2},
		{idx: 3, ff: 2, cycle: 30, pruned: true, mate: 0, width: 2},
		{idx: 4, ff: 3, cycle: 40, pruned: true, mate: 0, width: 2},
		{idx: 5, ff: 3, cycle: 50, pruned: true, mate: 0, width: 2},
		{idx: 6, ff: 4, cycle: 60, pruned: true, mate: 5, width: 1},
		{idx: 7, ff: 4, cycle: 70, pruned: true, mate: -1}, // pre-attribution record
		{idx: 8, ff: 5, cycle: 79, pruned: true, wrong: true, mate: 5, width: 1},
	}
}

func loadBase(t *testing.T) *Campaign {
	t.Helper()
	c, err := Load(buildJournal(t, testHeader, basePoints()), "")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSummary(t *testing.T) {
	s := loadBase(t).Summary()
	if s.Points != 40 || s.Classified != 9 || s.Pruned != 6 || s.Executed != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Outcomes != [4]int{1, 1, 1, 0} {
		t.Fatalf("outcomes = %v", s.Outcomes)
	}
	if s.SkippedWrong != 1 {
		t.Fatalf("skipped-wrong = %d", s.SkippedWrong)
	}
	if s.AttributedPruned != 5 {
		t.Fatalf("attributed = %d (the v1-style point must not count)", s.AttributedPruned)
	}
	if got := s.Coverage(); got != 9.0/40 {
		t.Fatalf("coverage = %v", got)
	}
	if got := s.PrunedFraction(); got != 6.0/9 {
		t.Fatalf("pruned fraction = %v", got)
	}
}

// TestMATETableSumsToAttributed: the table's Points column must partition
// the attributed pruned points exactly, ranked by cost/benefit.
func TestMATETableSumsToAttributed(t *testing.T) {
	c := loadBase(t)
	rows := c.MATETable()
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	var sum int64
	for _, r := range rows {
		sum += r.Points
	}
	if want := int64(c.Summary().AttributedPruned); sum != want {
		t.Fatalf("table sums to %d, attributed = %d", sum, want)
	}
	// MATE 5: 2 points / width 1 = 2.0 beats MATE 0: 3 points / width 2 = 1.5.
	if rows[0].MATE != 5 || rows[0].Points != 2 || rows[1].MATE != 0 || rows[1].Points != 3 {
		t.Fatalf("ranking = %+v", rows)
	}
	if rows[0].CostBenefit() != 2.0 || rows[1].CostBenefit() != 1.5 {
		t.Fatalf("cost/benefit = %v, %v", rows[0].CostBenefit(), rows[1].CostBenefit())
	}
}

// TestMATETableIgnoresOrphanHits: a hit whose point was later re-executed
// (resume re-ran an in-flight point) must not inflate the table.
func TestMATETableIgnoresOrphanHits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "o.journal")
	w, err := journal.Create(path, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	// Crash left a hit for point 0; the resume re-executed it as SDC.
	if err := w.AppendMATEHit(journal.MATEHit{Index: 0, FF: 1, MATE: 3, Width: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(journal.Record{Index: 0, FF: 1, Cycle: 5, Duration: 1, Outcome: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := Load(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if rows := c.MATETable(); len(rows) != 0 {
		t.Fatalf("orphan hit produced rows: %+v", rows)
	}
	if s := c.Summary(); s.AttributedPruned != 0 {
		t.Fatalf("orphan hit counted as attributed: %+v", s)
	}
}

func TestHeatmap(t *testing.T) {
	c := loadBase(t)
	h := c.BuildHeatmap(8)
	if h == nil {
		t.Fatal("nil heatmap")
	}
	if h.CycleLo != 0 || h.CycleHi != 79 {
		t.Fatalf("cycle range %d-%d", h.CycleLo, h.CycleHi)
	}
	if h.BinWidth != 10 {
		t.Fatalf("bin width = %d", h.BinWidth)
	}
	if len(h.FFs) != 5 || len(h.Cells) != 5 {
		t.Fatalf("rows = %v", h.FFs)
	}
	// Every classified point lands in exactly one cell.
	n := 0
	for _, row := range h.Cells {
		for _, cell := range row {
			n += cell.Count()
		}
	}
	if n != 9 {
		t.Fatalf("cells hold %d points, classified 9", n)
	}
	// ff=1 row: benign at cycle 0, sdc at cycle 10.
	if g := h.Cells[0][0].Glyph(); g != '.' {
		t.Fatalf("ff1 bin0 glyph %q", g)
	}
	if g := h.Cells[0][1].Glyph(); g != 'S' {
		t.Fatalf("ff1 bin1 glyph %q", g)
	}
	// ff=5 row: the soundness violation dominates.
	if g := h.Cells[4][7].Glyph(); g != '!' {
		t.Fatalf("ff5 bin7 glyph %q", g)
	}
	if c.BuildHeatmap(0) != nil {
		t.Fatal("bins=0 must disable the heatmap")
	}
}

// TestDiffSelfClean: a campaign diffed against itself reports zero
// regressions — the acceptance gate the smoke script leans on.
func TestDiffSelfClean(t *testing.T) {
	c := loadBase(t)
	d, err := Diff(c, c)
	if err != nil {
		t.Fatal(err)
	}
	if d.Regressions() != 0 || d.Agree != 9 || d.PruningFlips != 0 || d.CoverageGains != 0 {
		t.Fatalf("self diff = %+v", d)
	}
}

// TestDiffFindsRegressions: drop one point and flip one verdict in the
// candidate; the diff must flag both and nothing else.
func TestDiffFindsRegressions(t *testing.T) {
	a := loadBase(t)

	mod := basePoints()
	mod = mod[:len(mod)-1] // drop point 8: coverage regression
	mod[1].outcome = 2     // point 1 sdc -> hang: classification regression
	mod[0].pruned = true   // point 0 executed-benign -> pruned: informational flip
	mod[0].mate, mod[0].width = 9, 3
	b, err := Load(buildJournal(t, testHeader, mod), "")
	if err != nil {
		t.Fatal(err)
	}

	d, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Regressions() != 2 {
		t.Fatalf("regressions = %d (%+v)", d.Regressions(), d)
	}
	if len(d.CoverageRegressions) != 1 || d.CoverageRegressions[0] != 8 {
		t.Fatalf("coverage regressions = %v", d.CoverageRegressions)
	}
	if len(d.ClassificationRegressions) != 1 {
		t.Fatalf("classification regressions = %+v", d.ClassificationRegressions)
	}
	ch := d.ClassificationRegressions[0]
	if ch.Index != 1 || ch.From != "sdc" || ch.To != "hang" {
		t.Fatalf("change = %+v", ch)
	}
	if d.PruningFlips != 1 {
		t.Fatalf("pruning flips = %d (benign verdict flip must be informational)", d.PruningFlips)
	}
	if d.Agree != 7 {
		t.Fatalf("agree = %d", d.Agree)
	}
}

func TestDiffRejectsMismatchedCampaigns(t *testing.T) {
	a := loadBase(t)
	other := testHeader
	other.FaultListHash++
	b, err := Load(buildJournal(t, other, nil), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Diff(a, b); err == nil {
		t.Fatal("diff of unrelated campaigns must error")
	}
}

// TestRenderers: each format stays well-formed and carries the attribution.
func TestRenderers(t *testing.T) {
	c := loadBase(t)
	doc := BuildDocument(c, 8)

	var text bytes.Buffer
	if err := doc.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"40 points, 9 classified",
		"UNSOUND:    1 validated-skipped",
		"attribution: 5/6 pruned points credited to 2 MATEs",
		"heatmap: cycles 0-79",
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, text.String())
		}
	}

	var js bytes.Buffer
	if err := doc.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var round Document
	if err := json.Unmarshal(js.Bytes(), &round); err != nil {
		t.Fatalf("JSON report does not round-trip: %v", err)
	}
	if !reflect.DeepEqual(round.Summary, doc.Summary) || len(round.MATEs) != len(doc.MATEs) {
		t.Fatalf("JSON round-trip = %+v", round)
	}

	var buf bytes.Buffer
	if err := WriteCSV(&buf, c); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+9 {
		t.Fatalf("CSV has %d rows", len(rows))
	}
	// Point 3 (first data row index 4): pruned with attribution.
	r := rows[4]
	if r[0] != "3" || r[4] != "seu" || r[5] != "benign" || r[6] != "true" || r[7] != "0" || r[8] != "2" {
		t.Fatalf("CSV row = %v", r)
	}
	// Point 7: pruned without attribution leaves mate/width empty.
	r = rows[8]
	if r[0] != "7" || r[7] != "" || r[8] != "" {
		t.Fatalf("unattributed CSV row = %v", r)
	}
}

func TestDiffRenderers(t *testing.T) {
	a := loadBase(t)
	mod := basePoints()[:8]
	b, err := Load(buildJournal(t, testHeader, mod), "")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}

	var text bytes.Buffer
	if err := d.WriteDiffText(&text, a.Path, b.Path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "regressions: 1") {
		t.Fatalf("diff text = %s", text.String())
	}

	var js bytes.Buffer
	if err := d.WriteDiffJSON(&js); err != nil {
		t.Fatal(err)
	}
	var round DiffResult
	if err := json.Unmarshal(js.Bytes(), &round); err != nil {
		t.Fatal(err)
	}
	if round.Regressions() != 1 {
		t.Fatalf("diff JSON round-trip = %+v", round)
	}

	var buf bytes.Buffer
	if err := d.WriteDiffCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1][0] != "coverage" || rows[1][1] != "8" {
		t.Fatalf("diff CSV = %v", rows)
	}
}

// TestLoadRequiresHeader: a journal too damaged to carry its header is
// useless for reporting and must be rejected up front.
func TestLoadRequiresHeader(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.journal"), ""); err == nil {
		t.Fatal("missing journal must error")
	}
}

func TestLoadStats(t *testing.T) {
	statsPath := filepath.Join(t.TempDir(), "run.stats")
	if err := os.WriteFile(statsPath, []byte(`{"uptime_seconds": 1.5, "counters": {"campaign_batches_total": 7}, "spans": {"campaign": {"runs": 1, "seconds": 1.2}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(buildJournal(t, testHeader, basePoints()), statsPath)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats == nil || c.Stats.UptimeSeconds != 1.5 || c.Stats.Counters["campaign_batches_total"] != 7 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	var text bytes.Buffer
	if err := BuildDocument(c, 0).WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "campaign span 1.2s") || !strings.Contains(text.String(), "7 batches") {
		t.Fatalf("stats enrichment missing:\n%s", text.String())
	}
}

// TestLoadReadsObsDump: Load decodes a dump the obs exporter wrote into
// the very document the registry reports.
func TestLoadReadsObsDump(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("campaign_held_total").Add(3)
	reg.Counter("fleet_worker_points_total", "worker", "w1").Add(40)
	reg.Gauge("campaign_lanes").Set(64)
	reg.Histogram("campaign_batch_seconds", obs.ExpBuckets(1e-4, 2, 16)).Observe(0.01)
	reg.StartSpan("campaign").End()
	statsPath := filepath.Join(t.TempDir(), "run.stats")
	f, err := os.Create(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSON(f, reg); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := Load(buildJournal(t, testHeader, basePoints()), statsPath)
	if err != nil {
		t.Fatal(err)
	}
	want := reg.Stats()
	c.Stats.UptimeSeconds, want.UptimeSeconds = 0, 0
	if !reflect.DeepEqual(c.Stats, want) {
		t.Fatalf("loaded stats differ from the registry's:\n got %+v\nwant %+v", *c.Stats, *want)
	}
}
