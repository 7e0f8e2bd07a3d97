package hafi

import (
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
)

// sumCredits folds a per-MATE credit map.
func sumCredits(m map[int]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}

// checkAttribution verifies the exact-partition invariant and that every
// credited MATE exists in the set.
func checkAttribution(t *testing.T, res *CampaignResult, set *core.MATESet) {
	t.Helper()
	if got := sumCredits(res.PrunedByMATE); got != int64(res.Skipped) {
		t.Fatalf("per-MATE credits sum to %d, skipped = %d (%v)", got, res.Skipped, res.PrunedByMATE)
	}
	for m, n := range res.PrunedByMATE {
		if m < 0 || m >= len(set.MATEs) {
			t.Fatalf("credit for MATE %d outside the %d-MATE set", m, len(set.MATEs))
		}
		if n <= 0 {
			t.Fatalf("non-positive credit for MATE %d: %d", m, n)
		}
	}
}

// TestAttributionSequential: sequential engine credits partition the skipped
// points, deterministically, and the journal carries one hit per pruned
// point.
func TestAttributionSequential(t *testing.T) {
	c, _, g, r := goldenAVR(t)
	set := core.Search(c.NL, c.NL.FFQWires(), core.DefaultSearchParams()).Set
	ctl := NewController(r, g)
	points := SampledFaultList(c.NL, g.HaltCycle, 5)

	path := filepath.Join(t.TempDir(), "attr.journal")
	jw, err := journal.Create(path, ctl.JournalHeader(points))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := CampaignConfig{Points: points, MATESet: set, Journal: jw, Obs: reg}
	res, err := ctl.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Skipped == 0 {
		t.Fatal("pruning did not fire; attribution untestable")
	}
	checkAttribution(t, res, set)

	// Journal: exactly one hit per pruned record, agreeing with the result.
	rec, err := journal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	fromJournal := map[int]int64{}
	for idx, jr := range rec.ByIndex {
		hit, ok := rec.HitByIndex[idx]
		if jr.Pruned != ok {
			t.Fatalf("point %d: pruned=%v but hit present=%v", idx, jr.Pruned, ok)
		}
		if ok {
			if hit.FF != jr.FF {
				t.Fatalf("point %d: hit FF %d, record FF %d", idx, hit.FF, jr.FF)
			}
			if int(hit.Width) != len(set.MATEs[hit.MATE].Literals) {
				t.Fatalf("point %d: hit width %d, MATE %d has %d literals",
					idx, hit.Width, hit.MATE, len(set.MATEs[hit.MATE].Literals))
			}
			fromJournal[int(hit.MATE)]++
		}
	}
	if !reflect.DeepEqual(fromJournal, res.PrunedByMATE) {
		t.Fatalf("journal attribution %v != result attribution %v", fromJournal, res.PrunedByMATE)
	}

	// Labeled live counters mirror the credits.
	var live int64
	for m := range res.PrunedByMATE {
		live += reg.Counter("campaign_mate_pruned_total",
			"mate", strconv.Itoa(m), "width", strconv.Itoa(len(set.MATEs[m].Literals))).Value()
	}
	if live != int64(res.Skipped) {
		t.Fatalf("labeled counters sum to %d, skipped = %d", live, res.Skipped)
	}

	// Determinism: a second run credits identically.
	res2, err := ctl.RunCampaign(CampaignConfig{Points: points, MATESet: set})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.PrunedByMATE, res2.PrunedByMATE) {
		t.Fatalf("attribution not deterministic: %v vs %v", res.PrunedByMATE, res2.PrunedByMATE)
	}
}

// TestAttributionBatchedMatchesSequential: both engines and the validated
// path credit identically (the rule depends only on the MATE set and golden
// trace, not the execution strategy).
func TestAttributionBatchedMatchesSequential(t *testing.T) {
	c, prog, g, r := goldenAVR(t)
	set := core.Search(c.NL, c.NL.FFQWires(), core.DefaultSearchParams()).Set
	ctl := NewController(r, g)
	points := SampledFaultList(c.NL, g.HaltCycle, 5)

	seq, err := ctl.RunCampaign(CampaignConfig{Points: points, MATESet: set})
	if err != nil {
		t.Fatal(err)
	}
	run64, err := NewAVRRunW(c, prog, 64)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := ctl.RunCampaignBatchedPoolWithW(CampaignConfig{Points: points, MATESet: set}, []RunW{run64})
	if err != nil {
		t.Fatal(err)
	}
	val, err := ctl.RunCampaignBatchedPoolWithW(CampaignConfig{Points: points, MATESet: set, ValidateSkipped: true}, []RunW{run64})
	if err != nil {
		t.Fatal(err)
	}
	checkAttribution(t, seq, set)
	if !reflect.DeepEqual(seq.PrunedByMATE, bat.PrunedByMATE) {
		t.Fatalf("batched attribution %v != sequential %v", bat.PrunedByMATE, seq.PrunedByMATE)
	}
	if !reflect.DeepEqual(seq.PrunedByMATE, val.PrunedByMATE) {
		t.Fatalf("validated attribution %v != sequential %v", val.PrunedByMATE, seq.PrunedByMATE)
	}
}

// TestAttributionResumeFromV1Journal: resuming a pre-attribution journal
// (pruned records without hits) must not fabricate credits — replayed v1
// points stay unattributed, newly classified points are credited.
func TestAttributionResumeFromV1Journal(t *testing.T) {
	c, _, g, r := goldenAVR(t)
	set := core.Search(c.NL, c.NL.FFQWires(), core.DefaultSearchParams()).Set
	ctl := NewController(r, g)
	points := SampledFaultList(c.NL, g.HaltCycle, 5)

	// Find the points the campaign would prune, to forge a faithful v1 log.
	full, err := ctl.RunCampaign(CampaignConfig{Points: points, MATESet: set})
	if err != nil {
		t.Fatal(err)
	}
	if full.Skipped < 2 {
		t.Fatal("need at least two pruned points")
	}

	// v1 journal covering the first half of the fault list: pruned records
	// carry no attribution hits, exactly as written before format v2.
	path := filepath.Join(t.TempDir(), "v1.journal")
	jw, err := journal.Create(path, ctl.JournalHeader(points))
	if err != nil {
		t.Fatal(err)
	}
	v1Pruned := 0
	for i := 0; i < len(points)/2; i++ {
		p := points[i]
		rec := journal.Record{Index: uint64(i), FF: uint32(p.FF), Cycle: uint32(p.Cycle), Duration: uint32(p.duration())}
		if _, ok := ctl.provedBenign(p); ok {
			rec.Pruned = true
			v1Pruned++
		} else {
			rec.Outcome = uint8(OutcomeBenign)
		}
		if err := jw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if v1Pruned == 0 {
		t.Fatal("first half pruned nothing; widen the fault list")
	}

	jw, rec, err := journal.Resume(path, ctl.JournalHeader(points))
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	res, err := ctl.RunCampaign(CampaignConfig{Points: points, MATESet: set, Journal: jw, Resume: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != full.Skipped {
		t.Fatalf("resumed skipped %d, full run %d", res.Skipped, full.Skipped)
	}
	if got, want := sumCredits(res.PrunedByMATE), int64(full.Skipped-v1Pruned); got != want {
		t.Fatalf("credits = %d, want %d (v1 replays must stay unattributed)", got, want)
	}
}
