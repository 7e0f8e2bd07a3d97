package intercycle_test

import (
	"testing"

	"repro/internal/cpu/avr"
	"repro/internal/hafi"
	"repro/internal/intercycle"
)

// TestBenignVerdictsMatchCampaign is the ground-truth validation: every
// point the offline analysis declares benign must come out benign in an
// actual injection campaign run to completion.
func TestBenignVerdictsMatchCampaign(t *testing.T) {
	c := avr.NewCore()
	prog := avr.MustAssemble(`
	    ldi r1, 6
	    ldi r2, 0
	loop:
	    add r2, r1
	    dec r1
	    brne loop
	    ldi r3, 16
	    st (r3), r2
	    out r2
	    halt
	`)
	run := hafi.NewAVRRun(c, prog)
	golden, err := hafi.RecordGolden(run, 10000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := intercycle.Analyze(c.NL, golden.Trace, c.NL.FFQWires())
	if err != nil {
		t.Fatal(err)
	}
	if res.Benign == 0 {
		t.Fatal("expected some benign points on the real core")
	}

	// Ground truth: run every benign-declared point through the campaign.
	var points []hafi.FaultPoint
	for wi, verdicts := range res.PerWire {
		q := c.NL.FFQWires()[wi]
		ff := c.NL.FFByQ(q)
		for cyc, v := range verdicts {
			if v == intercycle.VerdictBenign {
				points = append(points, hafi.FaultPoint{FF: ff, Cycle: cyc})
			}
		}
	}
	ctl := hafi.NewController(run, golden)
	camp, err := ctl.RunCampaign(hafi.CampaignConfig{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	if camp.ByOutcome[hafi.OutcomeSDC] != 0 || camp.ByOutcome[hafi.OutcomeHang] != 0 {
		t.Fatalf("offline-benign points were effective: %v", camp.ByOutcome)
	}
	t.Logf("validated %d offline-benign points against full injection: all benign", camp.Total)
}
