package main

import (
	"testing"

	"repro/internal/hafi"
	"repro/internal/netlist/nltest"
)

// TestStimulusWritesInputsOnly: the example's environment drives primary
// inputs and nothing else (the contract of sim.Env) from reset to done.
func TestStimulusWritesInputsOnly(t *testing.T) {
	nl, _, _, _ := buildEngine()
	drive, done := stimulus(nl)
	run := hafi.NewNetlistRun(nl, done, drive)
	m, env := run.Machine(), nltest.InputsOnly(t, run.Env())
	for !run.Halted() {
		if m.Cycle == 1000 {
			t.Fatal("no halt")
		}
		m.Settle(env)
		m.CommitFFs()
	}
}
