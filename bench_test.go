package repro

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus ablation benches for the heuristic knobs called out in
// DESIGN.md. Each benchmark regenerates its experiment from scratch per
// iteration (the per-CPU traces are prepared once and shared), so -bench
// output measures the cost of the reproduced pipeline stage itself:
//
//	BenchmarkFigure1a        — fault-cone + MATE search on the example circuit
//	BenchmarkTable1_*        — heuristic MATE search per CPU × fault set
//	BenchmarkTable2_AVR      — AVR fault-space reduction + top-N selection
//	BenchmarkTable3_MSP430   — MSP430 fault-space reduction + top-N selection
//	BenchmarkLUTCost         — Section 6.1 FPGA cost model
//	BenchmarkCampaign        — HAFI campaign with online pruning
//	BenchmarkCampaignWide    — the wide engine on one device of 64, 128, 256 lanes
//	BenchmarkCampaignPool    — the pool the CLIs build (256-lane devices)
//	BenchmarkAblation*       — search-depth / term-count ablations
//	BenchmarkExactVerify     — BDD re-proof of the heuristic MATE set
//	BenchmarkExactFind       — exact prime-implicant term extraction
//	BenchmarkEvalComb        — one dense gate pass of the 256-lane device, per active-group count
//	BenchmarkCommitFFs       — one flip-flop commit, per active-group count
//	BenchmarkStep            — one Settle + commit of the 256-lane device, per active-group count
//	BenchmarkFetch           — one memory-environment call, per count of distinct PCs
//	BenchmarkRecordGolden    — scalar and wide golden recording, per golden cycle
//
// Run everything with:  go test -bench=. -benchmem
import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/collapse"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/hafi"
	"repro/internal/intercycle"
	"repro/internal/netlist"
	"repro/internal/prune"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// BenchmarkFigure1a regenerates the worked example of Figure 1: cone
// analysis and MATE search for all inputs of the example circuit.
func BenchmarkFigure1a(b *testing.B) {
	nl, w := experiments.Figure1Circuit()
	inputs := []netlist.WireID{w["a"], w["b"], w["c"], w["d"], w["e"], w["h"]}
	params := core.DefaultSearchParams()
	params.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Search(nl, inputs, params)
		if res.Set.Size() == 0 {
			b.Fatal("no MATEs")
		}
	}
}

func benchTable1(b *testing.B, c *experiments.CPUCase, noRF bool) {
	b.Helper()
	wires := c.FaultAll
	if noRF {
		wires = c.FaultNoRF
	}
	params := core.DefaultSearchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Search(c.NL, wires, params)
		if res.Set.Size() == 0 {
			b.Fatal("no MATEs")
		}
	}
}

// BenchmarkTable1_* regenerate the four columns of Table 1 (the heuristic
// MATE search itself; the paper reports its run time in this table).
func BenchmarkTable1_AVR_FF(b *testing.B)      { benchTable1(b, experiments.PrepareAVR(), false) }
func BenchmarkTable1_AVR_NoRF(b *testing.B)    { benchTable1(b, experiments.PrepareAVR(), true) }
func BenchmarkTable1_MSP430_FF(b *testing.B)   { benchTable1(b, experiments.PrepareMSP430(), false) }
func BenchmarkTable1_MSP430_NoRF(b *testing.B) { benchTable1(b, experiments.PrepareMSP430(), true) }

func benchPerf(b *testing.B, c *experiments.CPUCase) {
	b.Helper()
	params := core.DefaultSearchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := experiments.Perf(c, params)
		if t.Cells["fib"]["FF"].MaskedComplete <= 0 {
			b.Fatal("no reduction")
		}
	}
}

// BenchmarkTable2_AVR regenerates Table 2: complete-set evaluation, top-N
// hit-counter selection on both traces and cross-validation for the AVR.
func BenchmarkTable2_AVR(b *testing.B) { benchPerf(b, experiments.PrepareAVR()) }

// BenchmarkTable3_MSP430 regenerates Table 3 for the MSP430.
func BenchmarkTable3_MSP430(b *testing.B) { benchPerf(b, experiments.PrepareMSP430()) }

// BenchmarkReplayEvaluate isolates the per-cycle MATE evaluation that an
// online HAFI integration performs in hardware: one complete 8500-cycle
// replay of the full AVR MATE set.
func BenchmarkReplayEvaluate(b *testing.B) {
	c := experiments.PrepareAVR()
	set := core.Search(c.NL, c.FaultAll, core.DefaultSearchParams()).Set
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := prune.Evaluate(set, c.TraceFib, c.FaultAll)
		if res.MaskedPoints == 0 {
			b.Fatal("no masking")
		}
	}
}

// BenchmarkTopNSelection isolates the hit-counter selection step.
func BenchmarkTopNSelection(b *testing.B) {
	c := experiments.PrepareAVR()
	set := core.Search(c.NL, c.FaultAll, core.DefaultSearchParams()).Set
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel := prune.SelectTopN(set, c.TraceFib, c.FaultAll, 50)
		if sel.Size() == 0 {
			b.Fatal("empty selection")
		}
	}
}

// BenchmarkLUTCost regenerates the Section 6.1 cost table.
func BenchmarkLUTCost(b *testing.B) {
	c := experiments.PrepareAVR()
	params := core.DefaultSearchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.LUTCosts(c, params)
		if len(rows) == 0 || rows[0].LUTs == 0 {
			b.Fatal("no cost")
		}
	}
}

// BenchmarkCampaign runs a sampled HAFI campaign with online MATE pruning
// on the AVR (the abstract's headline use case: fewer FI experiments).
func BenchmarkCampaign(b *testing.B) {
	c := experiments.PrepareAVR()
	params := core.DefaultSearchParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := experiments.Campaign(context.Background(), c, "fib", 500, params, false)
		if err != nil {
			b.Fatal(err)
		}
		if row.Result.Total == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// campaignBenchInputs prepares what the engine benchmarks share — golden
// run, MATE search and fault list of AVR fib at stride 500 — outside the
// timed loop, so the measured cost is experiment execution alone.
func campaignBenchInputs(b *testing.B) (*experiments.CPUCase, *hafi.Controller, hafi.CampaignConfig) {
	c := experiments.PrepareAVR()
	run := c.Fib.NewRun()
	golden, err := hafi.RecordGolden(run, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	return c, hafi.NewController(run, golden), hafi.CampaignConfig{
		Points:  hafi.SampledFaultList(c.NL, golden.HaltCycle, 500),
		MATESet: core.Search(c.NL, c.FaultAll, core.DefaultSearchParams()).Set,
	}
}

// benchCampaign times the wide engine's one entry point on a prepared pool.
func benchCampaign(b *testing.B, ctl *hafi.Controller, cfg hafi.CampaignConfig, runs []hafi.RunW) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ctl.RunCampaignBatchedPoolWithW(cfg, runs)
		if err != nil {
			b.Fatal(err)
		}
		if res.Total == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// BenchmarkCampaignWide sweeps the width of a single device, 64 lanes
// (W=1) included: the W ablation EXPERIMENTS.md tracks.
func BenchmarkCampaignWide(b *testing.B) {
	c, ctl, cfg := campaignBenchInputs(b)
	for _, lanes := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			runw, err := c.Fib.NewRunW(lanes)
			if err != nil {
				b.Fatal(err)
			}
			benchCampaign(b, ctl, cfg, []hafi.RunW{runw})
		})
	}
}

// BenchmarkCampaignPool measures the pool the CLIs build: devices of
// hafi.DefaultCampaignLanes lanes, one per logical CPU but no more than the
// fault list can fill at once (same prepared inputs as
// BenchmarkCampaignWide; the delta to lanes=256 is the multi-core scaling).
func BenchmarkCampaignPool(b *testing.B) {
	c, ctl, cfg := campaignBenchInputs(b)
	runs, err := c.Fib.Pool(hafi.DefaultCampaignLanes, runtime.GOMAXPROCS(0), len(cfg.Points))
	if err != nil {
		b.Fatal(err)
	}
	benchCampaign(b, ctl, cfg, runs)
}

// --- ablation benches for the heuristic knobs (DESIGN.md §6) -------------

// BenchmarkAblationDepth sweeps the path-enumeration depth.
func BenchmarkAblationDepth(b *testing.B) {
	c := experiments.PrepareAVR()
	for _, depth := range []int{2, 4, 8, 12} {
		b.Run(benchName("depth", depth), func(b *testing.B) {
			params := core.DefaultSearchParams()
			params.Depth = depth
			for i := 0; i < b.N; i++ {
				core.Search(c.NL, c.FaultAll, params)
			}
		})
	}
}

// BenchmarkAblationTerms sweeps the maximum number of gate-masking terms.
func BenchmarkAblationTerms(b *testing.B) {
	c := experiments.PrepareAVR()
	for _, terms := range []int{1, 2, 4, 6} {
		b.Run(benchName("terms", terms), func(b *testing.B) {
			params := core.DefaultSearchParams()
			params.MaxTerms = terms
			for i := 0; i < b.N; i++ {
				core.Search(c.NL, c.FaultAll, params)
			}
		})
	}
}

// BenchmarkExactVerify measures the BDD-backed re-proof of the heuristic
// MATE set (internal/exact.VerifyMATESet) per CPU, at the node budget the
// tier-1 tests use and one tier up. Cones over the budget fall back to
// unproven, so the budget sweep doubles as a coverage-vs-cost ablation.
func BenchmarkExactVerify(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    *experiments.CPUCase
	}{
		{"avr", experiments.PrepareAVR()},
		{"msp430", experiments.PrepareMSP430()},
	} {
		set := core.Search(tc.c.NL, tc.c.FaultAll, core.DefaultSearchParams()).Set
		for _, budget := range []int{1 << 14, 1 << 16} {
			b.Run(fmt.Sprintf("%s/budget=%d", tc.name, budget), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := exact.VerifyMATESet(tc.c.NL, set, exact.Options{NodeBudget: budget})
					if !res.Sound() {
						b.Fatal("heuristic set disproved")
					}
				}
			})
		}
	}
}

// BenchmarkExactFind measures the prime-implicant term extraction
// (internal/exact.FindExactTerms) over every faulty wire, same budget sweep.
func BenchmarkExactFind(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    *experiments.CPUCase
	}{
		{"avr", experiments.PrepareAVR()},
		{"msp430", experiments.PrepareMSP430()},
	} {
		set := core.Search(tc.c.NL, tc.c.FaultAll, core.DefaultSearchParams()).Set
		for _, budget := range []int{1 << 14, 1 << 16} {
			b.Run(fmt.Sprintf("%s/budget=%d", tc.name, budget), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := exact.FindExactTerms(tc.c.NL, tc.c.FaultAll, set, exact.Options{NodeBudget: budget})
					if res.TermsFound == 0 {
						b.Fatal("no exact terms found")
					}
				}
			})
		}
	}
}

// BenchmarkInterCycle measures the offline inter-cycle analysis (DESIGN.md
// extension; paper §6.3 complement) over the AVR register file.
func BenchmarkInterCycle(b *testing.B) {
	c := experiments.PrepareAVR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := intercycle.Analyze(c.NL, c.TraceFib, c.FaultNoRF)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalPoints == 0 {
			b.Fatal("empty analysis")
		}
	}
}

// BenchmarkFaultCollapse measures the structural stuck-at collapsing of
// the related-work complement on the AVR netlist.
func BenchmarkFaultCollapse(b *testing.B) {
	c := experiments.PrepareAVR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := collapse.Collapse(c.NL)
		if r.Classes == 0 {
			b.Fatal("no classes")
		}
	}
}

// BenchmarkVerilogRoundTrip measures netlist export + re-import.
func BenchmarkVerilogRoundTrip(b *testing.B) {
	c := experiments.PrepareAVR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := verilog.Write(&buf, c.NL); err != nil {
			b.Fatal(err)
		}
		if _, err := verilog.Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGateLevelSim measures the raw simulation substrate: cycles per
// second of the AVR core under the fib workload (the cost HAFI platforms
// avoid by emulating in hardware).
func BenchmarkGateLevelSim(b *testing.B) {
	c := experiments.PrepareAVR()
	run := c.Fib.NewRun()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.Step()
	}
}

// BenchmarkRecordGolden records the golden run of AVR fib and MSP430 conv
// with the scalar recorder (RecordGolden on a Run) and the wide one
// (RecordGoldenW on a 64-lane device), reporting the cost per golden cycle:
// wall time and bytes allocated while recording. Building the device is
// neither timed nor counted.
func BenchmarkRecordGolden(b *testing.B) {
	for _, w := range []struct{ cpu, prog string }{{"avr", "fib"}, {"msp430", "conv"}} {
		t, err := hafi.NewTarget(w.cpu, w.prog)
		if err != nil {
			b.Fatal(err)
		}
		recorders := []struct {
			name  string
			build func() func() (*hafi.Golden, error) // a fresh device, ready to record
		}{
			{"scalar", func() func() (*hafi.Golden, error) {
				r := t.NewRun()
				return func() (*hafi.Golden, error) { return hafi.RecordGolden(r, 1<<20) }
			}},
			{"wide", func() func() (*hafi.Golden, error) {
				r, err := t.NewRunW(64)
				if err != nil {
					b.Fatal(err)
				}
				return func() (*hafi.Golden, error) { return hafi.RecordGoldenW(r, 1<<20) }
			}},
		}
		for _, rec := range recorders {
			b.Run(w.cpu+"-"+w.prog+"/"+rec.name, func(b *testing.B) {
				var ms0, ms1 runtime.MemStats
				cycles, bytes := 0, uint64(0)
				b.StopTimer()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					record := rec.build()
					runtime.ReadMemStats(&ms0)
					b.StartTimer()
					g, err := record()
					b.StopTimer()
					runtime.ReadMemStats(&ms1)
					if err != nil {
						b.Fatal(err)
					}
					cycles += g.HaltCycle
					bytes += ms1.TotalAlloc - ms0.TotalAlloc
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
				b.ReportMetric(float64(bytes)/float64(cycles), "B/cycle")
			})
		}
	}
}

// stepLayerCalls is the number of device calls one op of the Step-layer
// benchmarks below makes: a single call is a few microseconds, which the
// 1x snapshots bench-compare takes could not resolve.
const stepLayerCalls = 4096

// benchStepLayer runs f on both cores with a 256-lane device in the state
// of a full batch right after injection — golden checkpoint at half the
// run, flip-flop l mod #FF flipped in lane l — compacted to ag groups. mem
// is the device's memory environment: its ports, ROM and RAM; load puts
// the device back into that state.
func benchStepLayer(b *testing.B, ags []int, f func(b *testing.B, dev hafi.RunW, mem *sim.LaneMemory, ag int, load func())) {
	avrCase, mspCase := experiments.PrepareAVR(), experiments.PrepareMSP430()
	for _, cpu := range []struct {
		c      *experiments.CPUCase
		target *hafi.Target
	}{
		{avrCase, avrCase.Fib},
		{mspCase, mspCase.Conv},
	} {
		c, target := cpu.c, cpu.target
		golden, err := hafi.RecordGolden(target.NewRun(), 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		dev, err := target.NewRunW(256)
		if err != nil {
			b.Fatal(err)
		}
		for _, ag := range ags {
			src := make([]uint16, 64*ag)
			for i := range src {
				src[i] = uint16(i)
			}
			load := func() {
				dev.LoadCheckpoint(golden.Checkpoints[golden.HaltCycle/2])
				for l := 0; l < dev.Lanes(); l++ {
					dev.FlipLane(l%len(c.NL.FFs), l)
				}
				if 64*ag < dev.Lanes() {
					dev.CompactLanes(src)
				}
			}
			b.Run(c.Name+"/"+benchName("ag", ag), func(b *testing.B) {
				load()
				f(b, dev, dev.EnvW().(*sim.LaneMemory), ag, load)
			})
		}
	}
}

// BenchmarkEvalComb measures one dense pass of the device program (the
// resolved kernels); gate-evals/s counts the ops that program evaluates.
// The program leaves the hold muxes to the commit, so only BenchmarkStep
// compares across a change that moves work between the two.
func BenchmarkEvalComb(b *testing.B) {
	benchStepLayer(b, []int{1, 2, 3, 4}, func(b *testing.B, dev hafi.RunW, _ *sim.LaneMemory, ag int, _ func()) {
		m := dev.MachW()
		b.ResetTimer()
		for i := 0; i < b.N*stepLayerCalls; i++ {
			m.EvalComb()
		}
		evals := float64(m.Shape().Ops) * float64(64*ag) * float64(b.N*stepLayerCalls)
		b.ReportMetric(evals/b.Elapsed().Seconds(), "gate-evals/s")
	})
}

// BenchmarkCommitFFs measures one flip-flop commit.
func BenchmarkCommitFFs(b *testing.B) {
	benchStepLayer(b, []int{1, 2, 3, 4}, func(b *testing.B, dev hafi.RunW, _ *sim.LaneMemory, _ int, _ func()) {
		m := dev.MachW()
		b.ResetTimer()
		for i := 0; i < b.N*stepLayerCalls; i++ {
			m.CommitFFs()
		}
	})
}

// BenchmarkStep measures a device Step: Settle (the program around the
// memory environment's call) and the commit, over the first
// stepLayerCalls cycles after injection, each op from the same state.
func BenchmarkStep(b *testing.B) {
	benchStepLayer(b, []int{1, 2, 3, 4}, func(b *testing.B, dev hafi.RunW, mem *sim.LaneMemory, _ int, load func()) {
		m := dev.MachW()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			load()
			b.StartTimer()
			for j := 0; j < stepLayerCalls; j++ {
				m.Settle(mem)
				m.CommitFFs()
			}
		}
	})
}

// BenchmarkFetch measures one memory-environment call at four groups with
// the lanes spread round-robin over a given number of PCs, all of them
// below the power of two that covers the ROM (18 words on the AVR, 41 on
// the MSP430; a count past the ROM runs on the ROM repeated up to that
// many words, so that every PC is a cluster of its own): one cluster is
// the fault-free device, 13 the median of a campaign cycle, 32 to 256 the
// wide fetches a device of scattered start cycles can meet, 256 one
// cluster per lane. tails=19 sends 19 lanes beyond the ROM, each to a PC
// of its own — the hung lanes a campaign device carries, which must not
// cost a cluster each. The data-memory half of the call does not depend
// on either count.
func BenchmarkFetch(b *testing.B) {
	benchStepLayer(b, []int{4}, func(b *testing.B, dev hafi.RunW, mem *sim.LaneMemory, _ int, _ func()) {
		m := dev.MachW()
		m.EvalComb()
		pcs := make([]uint16, dev.Lanes())
		rom := mem.ROM
		defer func() { mem.ROM = rom }()
		for _, c := range []struct{ clusters, tails int }{{1, 0}, {13, 0}, {13, 19}, {32, 0}, {64, 0}, {256, 0}} {
			name := benchName("clusters", c.clusters)
			if c.tails > 0 {
				name += "/" + benchName("tails", c.tails)
			}
			mem.ROM = rom
			if len(rom) < c.clusters {
				mem.ROM = make([]uint16, c.clusters)
				for a := range mem.ROM {
					mem.ROM[a] = rom[a%len(rom)]
				}
			}
			b.Run(name, func(b *testing.B) {
				for l := range pcs {
					pcs[l] = uint16(l % c.clusters)
					if l%13 == 5 && l/13 < c.tails {
						pcs[l] = uint16(1<<(len(mem.FetchAddr)-1) + 37*l)
					}
				}
				m.ScatterLanes(mem.FetchAddr, pcs)
				for i := 0; i < b.N*stepLayerCalls; i++ {
					mem.SetInputsW(m)
				}
			})
		}
	})
}

// BenchmarkDataMem measures the data-memory half of the environment call
// (MachineW.AccessRAM) at four groups with the lanes spread round-robin
// over a given number of addresses — a campaign cycle has a median of 1 to
// 9 and at most 32, 256 is every lane on its own — and no, eight or all
// lanes storing (each address cluster one value): the cost curve of the
// cluster loop, which has no dense fallback.
func BenchmarkDataMem(b *testing.B) {
	benchStepLayer(b, []int{4}, func(b *testing.B, dev hafi.RunW, mem *sim.LaneMemory, ag int, _ func()) {
		m := dev.MachW()
		m.EvalComb()
		vals := make([]uint16, dev.Lanes())
		for _, clusters := range []int{1, 4, 16, 64, 256} {
			for l := range vals {
				vals[l] = uint16(l % clusters)
			}
			m.ScatterLanes(mem.Addr, vals)
			m.ScatterLanes(mem.WData, vals)
			for _, w := range []struct {
				name string
				we   uint64 // per lane group
			}{{"0", 0}, {"few", 1<<13 | 1<<47}, {"all", ^uint64(0)}} {
				b.Run(benchName("clusters", clusters)+"/writers="+w.name, func(b *testing.B) {
					for g := 0; g < ag; g++ {
						m.SetLaneWord(mem.WE, g, w.we)
					}
					for i := 0; i < b.N*stepLayerCalls; i++ {
						m.AccessRAM(mem.RAM, mem.Addr, mem.WE, mem.WData, mem.RData, mem.Digest)
					}
				})
			}
		}
	})
}

func benchName(key string, v int) string {
	return key + "=" + strconv.Itoa(v)
}
