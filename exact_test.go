package repro

// Heuristic-vs-exact cross-checks on the real cores, the acceptance tests
// of the exact verification engine:
//
//  1. every MATE the heuristic search emits must be independently re-proved
//     by the BDD engine (zero violations on both CPUs),
//  2. merging the exact prime-implicant terms must strictly increase the
//     number of pruned fault-space points on both CPUs, and
//  3. a campaign pruned with the exact-augmented set must classify exactly
//     like the unpruned full reference run — every additionally pruned
//     point is provably benign.
//
// The tests run with a deliberately small BDD node budget (1<<14): big
// register-file cones fall back gracefully (unproven / heuristic-only),
// which keeps the suite fast while still proving thousands of pairs and a
// strict pruning win. EXPERIMENTS.md records the default-budget numbers.

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/hafi"
	"repro/internal/journal"
	"repro/internal/netlist"
	"repro/internal/prune"
	"repro/internal/sim"
)

// testExactBudget keeps the tier-1 suite fast; see the package comment.
const testExactBudget = 1 << 14

func writeMATESetFile(path string, nl *netlist.Netlist, set *core.MATESet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := core.WriteMATESet(f, nl, set); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readMATESetFile(path string, nl *netlist.Netlist) (*core.MATESet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ReadMATESet(f, nl)
}

func maskedPoints(set *core.MATESet, tr *sim.Trace, wires []netlist.WireID) int {
	grid := prune.MaskedGrid(set, tr, wires)
	n := 0
	for _, row := range grid {
		for _, v := range row {
			if v {
				n++
			}
		}
	}
	return n
}

func TestExactVerifyHeuristicMATEsBothCores(t *testing.T) {
	if testing.Short() {
		t.Skip("exact verification of the real cores is not short")
	}
	for _, tc := range []struct {
		name string
		prep func() *experiments.CPUCase
	}{
		{"avr", experiments.PrepareAVR},
		{"msp430", experiments.PrepareMSP430},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.prep()
			set := core.Search(c.NL, c.FaultAll, core.DefaultSearchParams()).Set
			res := exact.VerifyMATESet(c.NL, set, exact.Options{NodeBudget: testExactBudget})
			if !res.Sound() {
				t.Fatalf("heuristic MATEs disproved: %d violations, %d bad certificates: %v",
					len(res.Violations), len(res.BadCertificates), res.Violations)
			}
			if res.PairsChecked == 0 || res.PairsProved != res.PairsChecked {
				t.Fatalf("proof coverage broken: %d/%d pairs proved", res.PairsProved, res.PairsChecked)
			}
			t.Logf("%s: %d MATEs, %d (MATE, wire) pairs proved sound, %d wires over the node budget (unproven)",
				tc.name, set.Size(), res.PairsProved, len(res.Unproven))
		})
	}
}

func TestExactTermsStrictlyIncreasePruning(t *testing.T) {
	if testing.Short() {
		t.Skip("exact term extraction on the real cores is not short")
	}
	for _, tc := range []struct {
		name string
		prep func() *experiments.CPUCase
	}{
		{"avr", experiments.PrepareAVR},
		{"msp430", experiments.PrepareMSP430},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.prep()
			set := core.Search(c.NL, c.FaultAll, core.DefaultSearchParams()).Set
			heurMasked := maskedPoints(set, c.TraceFib, c.FaultAll)

			fr := exact.FindExactTerms(c.NL, c.FaultAll, set, exact.Options{NodeBudget: testExactBudget})
			if fr.TermsFound == 0 {
				t.Fatal("exact search found no terms the heuristic missed")
			}
			created := fr.MergeInto(set)
			if created == 0 {
				t.Fatal("merge created no new MATEs")
			}
			exactMasked := maskedPoints(set, c.TraceFib, c.FaultAll)
			if exactMasked <= heurMasked {
				t.Fatalf("exact terms did not increase pruning: %d -> %d masked points", heurMasked, exactMasked)
			}

			// Certificates must be consistent with the merged set: a wire
			// proven unmaskable cannot be covered by any MATE.
			certified := set.CertifiedUnmaskable()
			for _, m := range set.MATEs {
				for _, w := range m.Masks {
					if certified[w] {
						t.Fatalf("wire %s is certified unmaskable but a MATE masks it", c.NL.WireName(w))
					}
				}
			}

			// The augmented set must survive a round trip through the MATE
			// set file format, certificates included.
			dir := t.TempDir()
			path := filepath.Join(dir, "exact.mates")
			if err := writeMATESetFile(path, c.NL, set); err != nil {
				t.Fatal(err)
			}
			parsed, err := readMATESetFile(path, c.NL)
			if err != nil {
				t.Fatal(err)
			}
			if parsed.Size() != set.Size() || len(parsed.Certificates) != len(set.Certificates) {
				t.Fatalf("round trip lost data: %d/%d MATEs, %d/%d certificates",
					parsed.Size(), set.Size(), len(parsed.Certificates), len(set.Certificates))
			}
			t.Logf("%s: +%d terms (+%d MATEs), %d certificates, masked points %d -> %d (+%.1f%%)",
				tc.name, fr.TermsFound, created, len(fr.Certificates),
				heurMasked, exactMasked, 100*float64(exactMasked-heurMasked)/float64(heurMasked))
		})
	}
}

// TestDifferentialExactPruneCampaign is the exact-set differential: a
// campaign pruned with the exact-augmented MATE set must classify exactly
// like the unpruned full reference — in particular, every point the exact
// terms additionally prune is OutcomeBenign in the reference run.
func TestDifferentialExactPruneCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("differential campaign comparison is not short")
	}
	c := experiments.PrepareAVR()
	prog := c.FibProg

	run := c.NewRun(prog)
	golden, err := hafi.RecordGolden(run, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	heur := core.Search(c.NL, c.FaultAll, core.DefaultSearchParams()).Set
	heurGrid := prune.MaskedGrid(heur, golden.Trace, c.FaultAll)

	fr := exact.FindExactTerms(c.NL, c.FaultAll, heur, exact.Options{NodeBudget: testExactBudget})
	fr.MergeInto(heur)
	exactSet := heur

	points := hafi.SampledFaultList(c.NL, golden.HaltCycle, 2000)
	if len(points) < 100 {
		t.Fatalf("fault list too small: %d points", len(points))
	}

	dir := t.TempDir()
	runEngine := func(name string, set *core.MATESet) ([]journal.Record, *hafi.CampaignResult) {
		t.Helper()
		path := filepath.Join(dir, name+".journal")
		ctl := hafi.NewControllerPool(func() hafi.Run { return c.NewRun(prog) }, golden)
		jw, err := journal.Create(path, ctl.JournalHeader(points))
		if err != nil {
			t.Fatal(err)
		}
		res, err := runPool64(c, prog, golden, hafi.CampaignConfig{
			Points:  points,
			MATESet: set,
			Journal: jw,
		}, runtime.NumCPU())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		rec, err := journal.Recover(path)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]journal.Record, len(points))
		for idx, r := range rec.ByIndex {
			out[idx] = r
		}
		return out, res
	}

	exactRecs, exactRes := runEngine("exact", exactSet)
	fullRecs, fullRes := runEngine("reference", nil)

	if fullRes.Skipped != 0 {
		t.Fatalf("reference run pruned %d points; it must execute everything", fullRes.Skipped)
	}
	extra := 0
	for i, p := range points {
		e, f := exactRecs[i], fullRecs[i]
		if e.Pruned {
			if f.Outcome != uint8(hafi.OutcomeBenign) {
				t.Errorf("point %d (ff=%d cycle=%d): exact-pruned but reference outcome %d (UNSOUND)",
					i, p.FF, p.Cycle, f.Outcome)
			}
			if !heurGrid[p.Cycle][p.FF] {
				extra++ // pruned only thanks to the exact terms
			}
			continue
		}
		if e.Outcome != f.Outcome {
			t.Errorf("point %d (ff=%d cycle=%d): exact-campaign outcome %d != reference %d",
				i, p.FF, p.Cycle, e.Outcome, f.Outcome)
		}
		if t.Failed() && i > 20 {
			t.Fatal("aborting after repeated divergence")
		}
	}
	if exactRes.Skipped == 0 {
		t.Error("exact-augmented set pruned nothing on the sampled list")
	}
	t.Logf("%d points: %d pruned with the exact set (%d beyond the heuristic grid), %d executed, reference outcomes %v",
		exactRes.Total, exactRes.Skipped, extra, exactRes.Executed, fullRes.ByOutcome)
}
