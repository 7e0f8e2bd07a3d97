package repro

// Lane-scheduler differential matrix: for every fault model, on both cores,
// the batched campaign must journal byte-identical streams across
//
//   - device width: 64-, 128- and 256-lane devices,
//   - pool size: one, two and three devices sharing the plan,
//   - early-exit: convergence retirement on and off,
//
// in both pruning modes (pruned points skipped, and ValidateSkipped, which
// sends them through the scheduler as a second plan), and every record must
// be the one the sequential scalar controller journals for that point. The
// plan order is independent of lane count, pool size and timing (stable
// cycle-major order, per-point record emission), so the batched journals are
// compared as raw bytes — any divergence in planning, refill, tail handling
// or classification breaks the equality. The scalar engine journals in
// fault-list order, so it is compared record by record.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hafi"
	"repro/internal/journal"
)

func TestDifferentialWideDeltaMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("differential campaign comparison is not short")
	}
	specs := []hafi.ModelSpec{
		{Model: hafi.ModelSEU},
		{Model: hafi.ModelMBU, Span: 2},
		{Model: hafi.ModelSET},
		{Model: hafi.ModelIntermittent, Period: 2, Window: 6},
		{Model: hafi.ModelStuckAt, Window: 3, StuckHigh: true},
	}
	lanes := []int{64, 128, 256}
	const maxWorkers = 3

	type coreCase struct {
		c      *experiments.CPUCase
		golden *hafi.Golden
		set    *core.MATESet
		// pool[lanes] holds maxWorkers devices, reused by every campaign at
		// that width (a campaign loads a checkpoint into every lane it uses).
		pool map[int][]hafi.RunW
	}
	var cores []*coreCase
	for _, c := range []*experiments.CPUCase{experiments.PrepareAVR(), experiments.PrepareMSP430()} {
		golden, err := hafi.RecordGolden(c.Fib.NewRun(), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		cc := &coreCase{c: c, golden: golden, pool: map[int][]hafi.RunW{},
			set: core.Search(c.NL, c.FaultAll, core.DefaultSearchParams()).Set}
		for _, n := range lanes {
			for w := 0; w < maxWorkers; w++ {
				r, err := c.Fib.NewRunW(n)
				if err != nil {
					t.Fatal(err)
				}
				cc.pool[n] = append(cc.pool[n], r)
			}
		}
		cores = append(cores, cc)
	}

	for _, spec := range specs {
		t.Run(spec.String(), func(t *testing.T) {
			for _, cc := range cores {
				t.Run(cc.c.Name, func(t *testing.T) {
					c, golden := cc.c, cc.golden
					// Three injection cycles, thinned so the scalar anchor (the
					// slow side, two thirds of this test's time) stays affordable;
					// the MSP430 list still has more points per cycle than a
					// 64-lane device has lanes.
					full := hafi.ModelFaultList(c.NL, golden.HaltCycle, 4000, spec)
					var points []hafi.FaultPoint
					for i := 0; i < len(full); i += 5 {
						points = append(points, full[i])
					}
					if len(points) < 60 {
						t.Fatalf("fault list too small for a meaningful comparison: %d points", len(points))
					}

					dir := t.TempDir()
					runJournaled := func(name string, validate bool, exec func(ctl *hafi.Controller, cfg hafi.CampaignConfig) (*hafi.CampaignResult, error)) ([]byte, *journal.Recovered) {
						t.Helper()
						path := filepath.Join(dir, name+".journal")
						ctl := hafi.NewController(c.Fib.NewRun(), golden)
						jw, err := journal.Create(path, ctl.JournalHeader(points))
						if err != nil {
							t.Fatal(err)
						}
						res, err := exec(ctl, hafi.CampaignConfig{Points: points, MATESet: cc.set, ValidateSkipped: validate, Journal: jw})
						if err != nil {
							t.Fatalf("%s campaign: %v", name, err)
						}
						if res.SkippedWrong != 0 {
							t.Fatalf("%s campaign: %d pruned points are not benign", name, res.SkippedWrong)
						}
						if err := jw.Close(); err != nil {
							t.Fatal(err)
						}
						raw, err := os.ReadFile(path)
						if err != nil {
							t.Fatal(err)
						}
						rec, err := journal.Recover(path)
						if err != nil {
							t.Fatalf("%s journal recovery: %v", name, err)
						}
						if len(rec.ByIndex) != len(points) {
							t.Fatalf("%s journal has %d records, want %d", name, len(rec.ByIndex), len(points))
						}
						return raw, rec
					}

					// The anchor: the sequential scalar controller, validating its
					// pruned points. No pruned point is wrong (checked above), so
					// its records are also the ones the pruning mode must journal.
					_, scalar := runJournaled("scalar", true, func(ctl *hafi.Controller, cfg hafi.CampaignConfig) (*hafi.CampaignResult, error) {
						return ctl.RunCampaign(cfg)
					})

					for _, validate := range []bool{false, true} {
						var firstName string
						var firstRaw []byte
						for _, n := range lanes {
							for workers := 1; workers <= maxWorkers; workers++ {
								for _, early := range []bool{true, false} {
									name := fmt.Sprintf("lanes=%d-workers=%d-early=%v-validate=%v", n, workers, early, validate)
									raw, rec := runJournaled(name, validate, func(ctl *hafi.Controller, cfg hafi.CampaignConfig) (*hafi.CampaignResult, error) {
										cfg.DisableEarlyExit = !early
										return ctl.RunCampaignBatchedPoolWithW(cfg, cc.pool[n][:workers])
									})
									for i := range points {
										idx := uint64(i)
										if rec.ByIndex[idx] != scalar.ByIndex[idx] || rec.HitByIndex[idx] != scalar.HitByIndex[idx] {
											t.Fatalf("%s: point %d (ff=%d cycle=%d) journaled %+v %+v, the scalar engine %+v %+v", name, i,
												points[i].FF, points[i].Cycle, rec.ByIndex[idx], rec.HitByIndex[idx], scalar.ByIndex[idx], scalar.HitByIndex[idx])
										}
									}
									if firstRaw == nil {
										firstName, firstRaw = name, raw
									} else if !bytes.Equal(raw, firstRaw) {
										t.Fatalf("%s journal bytes differ from %s although the records agree — emission order or framing drift", name, firstName)
									}
								}
							}
						}
					}
					pruned := 0
					for _, r := range scalar.ByIndex {
						if r.Pruned {
							pruned++
						}
					}
					t.Logf("%s on %s: %d points, %d pruned", spec, c.Name, len(points), pruned)
				})
			}
		})
	}
}
