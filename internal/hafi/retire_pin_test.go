package hafi

import (
	"testing"
)

// TestRetirementCountsPinned pins what the retirement check decides on four
// coarse fault lists: how many experiments converged, the cycles that
// saved, how many the held rule retired and every outcome count. The order
// of the check's filters (digest mask, active window, witness, scan) is a
// matter of cost; the numbers were taken with the witness loaded first and
// must not move. The sort list's intermittent faults keep lanes inside
// their active window for eight cycles, and the mbu:2 list puts two flips
// into one lane, which is held only once one of them is gone.
func TestRetirementCountsPinned(t *testing.T) {
	type counts struct {
		converged, held         int
		saved                   int64
		benign, sdc, hang, harn int
	}
	for _, tc := range []struct {
		cpu, prog, model string
		stride           int
		want             counts
	}{
		{"avr", "fib", "seu", 120, counts{4675, 5978, 23408358, 12142, 4432, 441, 0}},
		{"avr", "sort", "intermittent:2,8", 150, counts{9445, 16, 44570562, 12004, 772, 139, 0}},
		{"msp430", "conv", "seu", 700, counts{4963, 0, 45217590, 6145, 1279, 1276, 0}},
		{"avr", "fib", "mbu:2", 130, counts{3793, 101, 19201643, 10484, 4205, 480, 0}},
	} {
		name := tc.cpu + "-" + tc.prog + "-" + tc.model
		t.Run(name, func(t *testing.T) {
			tg, err := NewTarget(tc.cpu, tc.prog)
			if err != nil {
				t.Fatal(err)
			}
			golden, err := tg.Golden()
			if err != nil {
				t.Fatal(err)
			}
			spec, err := ParseModelSpec(tc.model)
			if err != nil {
				t.Fatal(err)
			}
			points := ModelFaultList(tg.NL, golden.HaltCycle, tc.stride, spec)
			runs, err := tg.Pool(DefaultCampaignLanes, 2, len(points))
			if err != nil {
				t.Fatal(err)
			}
			res, err := NewController(tg.NewRun(), golden).RunCampaignBatchedPoolWithW(CampaignConfig{Points: points}, runs)
			if err != nil {
				t.Fatal(err)
			}
			got := counts{res.Converged, res.Held, res.CyclesSaved,
				res.ByOutcome[OutcomeBenign], res.ByOutcome[OutcomeSDC], res.ByOutcome[OutcomeHang], res.ByOutcome[OutcomeHarnessError]}
			t.Logf("%s: %d points: %+v", name, len(points), got)
			if got != tc.want {
				t.Errorf("%s: %+v, want %+v", name, got, tc.want)
			}
		})
	}
}
