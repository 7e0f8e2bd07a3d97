package repro

// Cross-model differential test: for every fault model, every campaign
// engine — sequential scalar, 64-lane batched, pooled batched — with the
// convergence early-exit on and off must journal record-for-record
// identical verdicts, and the pruned/early-exiting campaigns must classify
// point for point like an unpruned full-run scalar reference (a pruned
// point is sound only if the reference executed it to a benign verdict).
// The engines share the model's Inject implementation but nothing of their
// scheduling, batching or early-exit machinery, so agreement here pins the
// model semantics across the whole execution stack.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hafi"
	"repro/internal/journal"
)

func TestDifferentialFaultModels(t *testing.T) {
	if testing.Short() {
		t.Skip("differential campaign comparison is not short")
	}
	c := experiments.PrepareAVR()
	prog := c.FibProg

	golden, err := hafi.RecordGolden(c.NewRun(prog), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	set := core.Search(c.NL, c.FaultAll, core.DefaultSearchParams()).Set

	specs := []hafi.ModelSpec{
		{Model: hafi.ModelSEU},
		{Model: hafi.ModelMBU, Span: 2},
		{Model: hafi.ModelSET},
		{Model: hafi.ModelIntermittent, Period: 2, Window: 6},
		{Model: hafi.ModelStuckAt, Window: 3, StuckHigh: true},
	}
	totalPruned := 0
	for _, spec := range specs {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			// Thin the model's fault list to keep the scalar full-run
			// reference (the slow side) test-suite friendly while preserving
			// cycle and site diversity.
			const stride = 4000
			full := hafi.ModelFaultList(c.NL, golden.HaltCycle, stride, spec)
			var points []hafi.FaultPoint
			for i := 0; i < len(full); i += 5 {
				points = append(points, full[i])
			}
			if len(points) < 50 {
				t.Fatalf("fault list too small for a meaningful comparison: %d points", len(points))
			}

			dir := t.TempDir()
			runJournaled := func(name string, mates *core.MATESet, exec func(cfg hafi.CampaignConfig) (*hafi.CampaignResult, error)) []journal.Record {
				t.Helper()
				path := filepath.Join(dir, name+".journal")
				ctl := hafi.NewController(c.NewRun(prog), golden)
				jw, err := journal.Create(path, ctl.JournalHeader(points))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := exec(hafi.CampaignConfig{Points: points, MATESet: mates, Journal: jw}); err != nil {
					t.Fatalf("%s campaign: %v", name, err)
				}
				if err := jw.Close(); err != nil {
					t.Fatal(err)
				}
				rec, err := journal.Recover(path)
				if err != nil {
					t.Fatalf("%s journal recovery: %v", name, err)
				}
				if len(rec.ByIndex) != len(points) {
					t.Fatalf("%s journal has %d records, want %d", name, len(rec.ByIndex), len(points))
				}
				out := make([]journal.Record, len(points))
				for idx, r := range rec.ByIndex {
					out[idx] = r
				}
				return out
			}

			// The reference: scalar sequential, no pruning, no early-exit —
			// every point executed to halt or timeout.
			ref := runJournaled("reference", nil, func(cfg hafi.CampaignConfig) (*hafi.CampaignResult, error) {
				cfg.DisableEarlyExit = true
				return hafi.NewController(c.NewRun(prog), golden).RunCampaign(cfg)
			})

			// Every engine × early-exit combination, all with pruning on.
			variants := []struct {
				name string
				exec func(cfg hafi.CampaignConfig) (*hafi.CampaignResult, error)
			}{
				{"sequential-early", func(cfg hafi.CampaignConfig) (*hafi.CampaignResult, error) {
					return hafi.NewController(c.NewRun(prog), golden).RunCampaign(cfg)
				}},
				{"sequential-full", func(cfg hafi.CampaignConfig) (*hafi.CampaignResult, error) {
					cfg.DisableEarlyExit = true
					return hafi.NewController(c.NewRun(prog), golden).RunCampaign(cfg)
				}},
				{"batched-early", func(cfg hafi.CampaignConfig) (*hafi.CampaignResult, error) {
					return runPool64(c, prog, golden, cfg, 1)
				}},
				{"batched-full", func(cfg hafi.CampaignConfig) (*hafi.CampaignResult, error) {
					cfg.DisableEarlyExit = true
					return runPool64(c, prog, golden, cfg, 1)
				}},
				{"pooled-early", func(cfg hafi.CampaignConfig) (*hafi.CampaignResult, error) {
					return runPool64(c, prog, golden, cfg, runtime.NumCPU())
				}},
				{"pooled-full", func(cfg hafi.CampaignConfig) (*hafi.CampaignResult, error) {
					cfg.DisableEarlyExit = true
					return runPool64(c, prog, golden, cfg, runtime.NumCPU())
				}},
			}

			var first []journal.Record
			for _, v := range variants {
				recs := runJournaled(v.name, set, v.exec)
				if first == nil {
					first = recs
					// Against the reference: a pruned point must have executed
					// benign in the unpruned run; an executed point must agree.
					for i, r := range recs {
						p := points[i]
						if r.Pruned {
							totalPruned++
							if ref[i].Outcome != 0 {
								t.Errorf("point %d (ff=%d cycle=%d): pruned, but the unpruned reference says outcome %d",
									i, p.FF, p.Cycle, ref[i].Outcome)
							}
							continue
						}
						if r.Outcome != ref[i].Outcome {
							t.Errorf("point %d (ff=%d cycle=%d): %s outcome %d != reference outcome %d",
								i, p.FF, p.Cycle, v.name, r.Outcome, ref[i].Outcome)
						}
					}
					continue
				}
				// Engines and early-exit settings must agree record for
				// record — journal.Record is comparable by design, so this
				// covers the model operand fields too.
				for i := range recs {
					if recs[i] != first[i] {
						t.Errorf("point %d (ff=%d cycle=%d): %s record %+v != %s record %+v",
							i, points[i].FF, points[i].Cycle, v.name, recs[i], variants[0].name, first[i])
					}
					if t.Failed() && i > 20 {
						t.Fatal("aborting after repeated divergence")
					}
				}
			}

			// Journaled model operands must identify the fault point.
			for i, r := range first {
				p := points[i]
				wantModel := uint8(p.Model)
				if spec.Model == hafi.ModelSEU {
					if r.Model != 0 || r.Span != 0 || r.Period != 0 {
						t.Fatalf("point %d: SEU record carries model fields: %+v", i, r)
					}
					continue
				}
				if r.Model != wantModel {
					t.Fatalf("point %d: journaled model %d, want %d", i, r.Model, wantModel)
				}
				if spec.Model == hafi.ModelSET && int(r.NumTargets) != len(p.Targets) {
					t.Fatalf("point %d: journaled %d targets, fault point has %d", i, r.NumTargets, len(p.Targets))
				}
			}

			// The non-SEU-equivalent models must never be pruned (their
			// shapes are outside the MATE masking argument).
			if spec.Model == hafi.ModelMBU || spec.Model == hafi.ModelStuckAt {
				for i, r := range first {
					if r.Pruned {
						t.Fatalf("point %d: %s point pruned", i, spec)
					}
				}
			}

			outcomes := map[uint8]int{}
			pruned := 0
			for _, r := range first {
				if r.Pruned {
					pruned++
				} else {
					outcomes[r.Outcome]++
				}
			}
			t.Logf("%s: %d points, %d pruned, outcomes %v", spec, len(points), pruned, fmt.Sprint(outcomes))
		})
	}
	if totalPruned == 0 {
		t.Error("no point pruned under any model — the pruned-vs-reference comparison never fired")
	}
}
