// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 5) against the rebuilt substrate: it prepares the two
// processor cases (netlist + fib/conv traces), runs the MATE search with
// the paper's heuristic parameters, performs the trace-driven MATE
// selection and fault-space accounting behind Tables 2 and 3, and provides
// the Figure 1 example and the Section 6.1 LUT-cost summary. The cmd/
// tools, the benchmark harness and the reproduction tests all build on this
// package so that every consumer reports identical numbers.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
	"repro/internal/hafi"
	"repro/internal/intercycle"
	"repro/internal/isafi"
	"repro/internal/netlist"
	"repro/internal/progs"
	"repro/internal/prune"
	"repro/internal/sim"
)

// CPUCase bundles one processor with its two recorded workload traces.
type CPUCase struct {
	Name       string
	NL         *netlist.Netlist
	FaultAll   []netlist.WireID // every flip-flop ("FF")
	FaultNoRF  []netlist.WireID // excluding the register file ("FF w/o RF")
	TraceFib   *sim.Trace
	TraceConv  *sim.Trace
	NewRun     func(prog []uint16) hafi.Run
	NewRunW    func(prog []uint16, lanes int) (hafi.RunW, error)
	FibProg    []uint16
	ConvProg   []uint16
	RegGroup   string
	TotalFFs   int
	RegFileFFs int
}

// NewPool builds the device pool the campaign front-ends build for a fault
// list of the given size: up to workers devices of the given lane count,
// and no more than the points can fill at once.
func (c *CPUCase) NewPool(prog []uint16, lanes, workers, points int) ([]hafi.RunW, error) {
	runs := make([]hafi.RunW, max(1, min(workers, (points+lanes-1)/lanes)))
	for i := range runs {
		var err error
		if runs[i], err = c.NewRunW(prog, lanes); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

var (
	prepOnce sync.Once
	prepAVR  *CPUCase
	prepMSP  *CPUCase
)

// PrepareAVR builds the AVR-class case: core netlist plus 8500-cycle fib
// and conv traces. Results are cached process-wide (construction is
// deterministic).
func PrepareAVR() *CPUCase {
	prepare()
	return prepAVR
}

// PrepareMSP430 builds the MSP430-class case.
func PrepareMSP430() *CPUCase {
	prepare()
	return prepMSP
}

func prepare() {
	prepOnce.Do(func() {
		ac := avr.NewCore()
		fib := progs.AVRFib()
		conv := progs.AVRConv()
		prepAVR = &CPUCase{
			Name:      "AVR",
			NL:        ac.NL,
			FaultAll:  ac.NL.FFQWires(),
			FaultNoRF: ac.NL.FFQWires(avr.GroupRegFile),
			TraceFib:  avr.NewSystem(ac, fib).Record(progs.TraceCycles),
			TraceConv: avr.NewSystem(avr.NewCore(), conv).Record(progs.TraceCycles),
			NewRun:    func(p []uint16) hafi.Run { return hafi.NewAVRRun(avr.NewCore(), p) },
			NewRunW:   func(p []uint16, lanes int) (hafi.RunW, error) { return hafi.NewAVRRunW(avr.NewCore(), p, lanes) },
			FibProg:   fib, ConvProg: conv,
			RegGroup: avr.GroupRegFile,
		}
		prepAVR.TotalFFs = len(ac.NL.FFs)
		prepAVR.RegFileFFs = prepAVR.TotalFFs - len(prepAVR.FaultNoRF)

		mc := msp430.NewCore()
		mfib := progs.MSP430Fib()
		mconv := progs.MSP430Conv()
		prepMSP = &CPUCase{
			Name:      "MSP430",
			NL:        mc.NL,
			FaultAll:  mc.NL.FFQWires(),
			FaultNoRF: mc.NL.FFQWires(msp430.GroupRegFile),
			TraceFib:  msp430.NewSystem(mc, mfib).Record(progs.TraceCycles),
			TraceConv: msp430.NewSystem(msp430.NewCore(), mconv).Record(progs.TraceCycles),
			NewRun:    func(p []uint16) hafi.Run { return hafi.NewMSP430Run(msp430.NewCore(), p) },
			NewRunW:   func(p []uint16, lanes int) (hafi.RunW, error) { return hafi.NewMSP430RunW(msp430.NewCore(), p, lanes) },
			FibProg:   mfib, ConvProg: mconv,
			RegGroup: msp430.GroupRegFile,
		}
		prepMSP.TotalFFs = len(mc.NL.FFs)
		prepMSP.RegFileFFs = prepMSP.TotalFFs - len(prepMSP.FaultNoRF)
	})
}

// ---------------------------------------------------------------------------
// Table 1: statistics of the heuristic MATE search.
// ---------------------------------------------------------------------------

// Table1Row is one column of the paper's Table 1 (one CPU × one fault set).
type Table1Row struct {
	CPU         string
	FaultSet    string // "FF" or "FF w/o RF"
	FaultyWires int
	AvgCone     float64
	MedianCone  int
	RunTime     time.Duration
	Unmaskable  int
	Candidates  int64
	MATEs       int

	Result *core.SearchResult
}

// Table1 runs the MATE search for both fault sets of one CPU.
func Table1(c *CPUCase, params core.SearchParams) []Table1Row {
	var rows []Table1Row
	for _, fs := range []struct {
		name  string
		wires []netlist.WireID
	}{{"FF", c.FaultAll}, {"FF w/o RF", c.FaultNoRF}} {
		res := core.Search(c.NL, fs.wires, params)
		rows = append(rows, Table1Row{
			CPU:         c.Name,
			FaultSet:    fs.name,
			FaultyWires: len(fs.wires),
			AvgCone:     res.AvgConeGates(),
			MedianCone:  res.MedianConeGates(),
			RunTime:     res.Elapsed,
			Unmaskable:  res.Unmaskable,
			Candidates:  res.TotalCandidates,
			MATEs:       res.Set.Size(),
			Result:      res,
		})
	}
	return rows
}

// FormatTable1 renders rows in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1: Statistics for the heuristic MATE search.\n")
	fmt.Fprintf(&sb, "%-28s", "")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%18s", r.CPU+" "+r.FaultSet)
	}
	sb.WriteByte('\n')
	line := func(label string, f func(Table1Row) string) {
		fmt.Fprintf(&sb, "%-28s", label)
		for _, r := range rows {
			fmt.Fprintf(&sb, "%18s", f(r))
		}
		sb.WriteByte('\n')
	}
	line("Faulty Wires", func(r Table1Row) string { return fmt.Sprint(r.FaultyWires) })
	line("Avg. Cone [#gates]", func(r Table1Row) string { return fmt.Sprintf("%.0f", r.AvgCone) })
	line("Med. Cone [#gates]", func(r Table1Row) string { return fmt.Sprint(r.MedianCone) })
	line("Run Time [s]", func(r Table1Row) string { return fmt.Sprintf("%.3f", r.RunTime.Seconds()) })
	line("#Unmaskable", func(r Table1Row) string { return fmt.Sprint(r.Unmaskable) })
	line("#MATE candid.", func(r Table1Row) string { return fmt.Sprint(r.Candidates) })
	line("#MATE", func(r Table1Row) string { return fmt.Sprint(r.MATEs) })
	return sb.String()
}

// ---------------------------------------------------------------------------
// Tables 2 and 3: MATE performance (fault-space reduction).
// ---------------------------------------------------------------------------

// TopNs are the selection sizes evaluated in the paper.
var TopNs = []int{10, 50, 100, 200}

// PerfCell is one (program × fault set) column of Table 2/3.
type PerfCell struct {
	EffectiveMATEs int
	AvgInputs      float64
	StdInputs      float64
	MaskedComplete float64 // fraction, complete MATE set
	// TopSelFib[n] / TopSelConv[n]: reduction with the top-n set selected
	// on the fib (resp. conv) trace, evaluated on THIS column's trace.
	TopSelFib  map[int]float64
	TopSelConv map[int]float64
}

// PerfTable is the full Table 2 (AVR) or Table 3 (MSP430).
type PerfTable struct {
	CPU string
	// Cells indexed by [program][faultset]: program "fib"/"conv",
	// faultset "FF"/"FF w/o RF".
	Cells map[string]map[string]*PerfCell
}

// Perf computes the paper's Table 2/3 for one CPU: complete-set reduction,
// hit-counter top-N selection on each trace, and cross-validation of the
// selected sets on the other trace.
func Perf(c *CPUCase, params core.SearchParams) *PerfTable {
	setAll := core.Search(c.NL, c.FaultAll, params).Set
	setNoRF := core.Search(c.NL, c.FaultNoRF, params).Set

	table := &PerfTable{CPU: c.Name, Cells: map[string]map[string]*PerfCell{
		"fib": {}, "conv": {},
	}}
	traces := map[string]*sim.Trace{"fib": c.TraceFib, "conv": c.TraceConv}
	faultSets := map[string][]netlist.WireID{"FF": c.FaultAll, "FF w/o RF": c.FaultNoRF}
	sets := map[string]*core.MATESet{"FF": setAll, "FF w/o RF": setNoRF}

	// Pre-select top-N sets per (fault set × selection trace).
	type selKey struct{ fs, prog string }
	selected := map[selKey]map[int]*core.MATESet{}
	for fs, set := range sets {
		for prog, tr := range traces {
			m := map[int]*core.MATESet{}
			for _, n := range TopNs {
				m[n] = prune.SelectTopN(set, tr, faultSets[fs], n)
			}
			selected[selKey{fs, prog}] = m
		}
	}

	for prog, tr := range traces {
		for fs, wires := range faultSets {
			res := prune.Evaluate(sets[fs], tr, wires)
			cellv := &PerfCell{
				EffectiveMATEs: res.EffectiveMATEs,
				AvgInputs:      res.AvgInputs,
				StdInputs:      res.StdInputs,
				MaskedComplete: res.Reduction(),
				TopSelFib:      map[int]float64{},
				TopSelConv:     map[int]float64{},
			}
			for _, n := range TopNs {
				cellv.TopSelFib[n] = prune.Evaluate(selected[selKey{fs, "fib"}][n], tr, wires).Reduction()
				cellv.TopSelConv[n] = prune.Evaluate(selected[selKey{fs, "conv"}][n], tr, wires).Reduction()
			}
			table.Cells[prog][fs] = cellv
		}
	}
	return table
}

// FormatPerf renders a PerfTable in the paper's Table 2/3 layout.
func FormatPerf(t *PerfTable, tableNo int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table %d: %s MATE Performance (8500-cycle traces).\n", tableNo, t.CPU)
	fmt.Fprintf(&sb, "%-26s%12s%14s%12s%14s\n", "", "fib FF", "fib FF w/o RF", "conv FF", "conv FF w/o RF")
	cellOf := func(prog, fs string) *PerfCell { return t.Cells[prog][fs] }
	line := func(label string, f func(c *PerfCell) string) {
		fmt.Fprintf(&sb, "%-26s%12s%14s%12s%14s\n", label,
			f(cellOf("fib", "FF")), f(cellOf("fib", "FF w/o RF")),
			f(cellOf("conv", "FF")), f(cellOf("conv", "FF w/o RF")))
	}
	line("#Effective MATEs", func(c *PerfCell) string { return fmt.Sprint(c.EffectiveMATEs) })
	line("Avg. #inputs", func(c *PerfCell) string { return fmt.Sprintf("%.1f±%.1f", c.AvgInputs, c.StdInputs) })
	line("Masked Faults", func(c *PerfCell) string { return fmt.Sprintf("%.2f%%", 100*c.MaskedComplete) })
	for _, n := range TopNs {
		n := n
		line(fmt.Sprintf("sel. fib  Top %d", n), func(c *PerfCell) string {
			return fmt.Sprintf("%.2f%%", 100*c.TopSelFib[n])
		})
	}
	for _, n := range TopNs {
		n := n
		line(fmt.Sprintf("sel. conv Top %d", n), func(c *PerfCell) string {
			return fmt.Sprintf("%.2f%%", 100*c.TopSelConv[n])
		})
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 1: the worked example.
// ---------------------------------------------------------------------------

// Figure1Circuit builds the paper's Figure 1a example circuit and returns
// the netlist plus the wire map (inputs a..e,h; internal f,g,j; outputs
// k,l,m).
func Figure1Circuit() (*netlist.Netlist, map[string]netlist.WireID) {
	b := netlist.NewBuilder("fig1a")
	w := map[string]netlist.WireID{}
	for _, n := range []string{"a", "b", "c", "d", "e", "h"} {
		w[n] = b.Input(n)
	}
	w["j"] = b.GateNamed("j", cell.NAND2, w["a"], w["b"])
	w["f"] = b.GateNamed("f", cell.OR2, w["j"], w["e"])
	w["g"] = b.GateNamed("g", cell.XOR2, w["c"], w["d"])
	w["k"] = b.GateNamed("k", cell.AND2, w["g"], w["f"])
	w["l"] = b.GateNamed("l", cell.OR2, w["g"], w["h"])
	w["m"] = b.GateNamed("m", cell.XOR2, w["e"], w["c"])
	b.MarkOutput(w["k"])
	b.MarkOutput(w["l"])
	b.MarkOutput(w["m"])
	return b.MustNetlist(), w
}

// Figure1 reproduces both halves of Figure 1: the fault-cone/MATE analysis
// of the example circuit (1a) and a pruned fault-space grid over a short
// random stimulus (1b). The returned string is the rendered figure.
func Figure1(cycles int) string {
	nl, w := Figure1Circuit()
	var sb strings.Builder

	inputs := []netlist.WireID{w["a"], w["b"], w["c"], w["d"], w["e"], w["h"]}
	res := core.Search(nl, inputs, core.DefaultSearchParams())

	sb.WriteString("Figure 1a: fault cones and MATEs of the example circuit\n")
	cone := core.ComputeCone(nl, w["d"])
	var coneNames, borderNames []string
	for id := netlist.WireID(0); int(id) < nl.NumWires(); id++ {
		if cone.InCone[id] {
			coneNames = append(coneNames, nl.WireName(id))
		}
	}
	for _, bw := range cone.BorderWires(nl) {
		borderNames = append(borderNames, nl.WireName(bw))
	}
	fmt.Fprintf(&sb, "  cone(d)   = {%s}, border = {%s}\n",
		strings.Join(coneNames, ", "), strings.Join(borderNames, ", "))
	for _, m := range res.Set.MATEs {
		var masks []string
		for _, mw := range m.Masks {
			masks = append(masks, nl.WireName(mw))
		}
		fmt.Fprintf(&sb, "  MATE %-14s masks {%s}\n", m.String(nl), strings.Join(masks, ", "))
	}
	for i, rep := range res.Reports {
		if rep.Unmaskable {
			fmt.Fprintf(&sb, "  no MATE for %s (unmaskable path)\n", nl.WireName(inputs[i]))
		}
	}

	// Figure 1b: per-cycle pruning grid under a deterministic stimulus.
	sb.WriteString("\nFigure 1b: fault-space pruning over the trace (X = pruned/benign, . = possibly effective)\n")
	m := sim.New(nl)
	cnt := 0
	env := sim.EnvFunc(func(m *sim.Machine) {
		for i, in := range inputs {
			m.SetValue(in, (cnt>>uint(i))&1 == 1)
		}
		cnt++
	})
	tr := sim.Record(m, env, cycles)
	grid := prune.MaskedGrid(res.Set, tr, inputs)
	names := []string{"a", "b", "c", "d", "e", "h"}
	for i, name := range names {
		fmt.Fprintf(&sb, "  wire %-2s |", name)
		for cyc := 0; cyc < tr.NumCycles(); cyc++ {
			if grid[cyc][i] {
				sb.WriteString(" X")
			} else {
				sb.WriteString(" .")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Section 6.1: FPGA LUT costs.
// ---------------------------------------------------------------------------

// LUTRow summarises the hardware cost of a top-N MATE set.
type LUTRow struct {
	CPU      string
	TopN     int
	LUTs     int
	VsSmall  float64 // fraction of a 1500-LUT FI controller
	VsLarge  float64 // fraction of a 6000-LUT FI controller
	VsDevice float64 // fraction of a midrange Virtex-6
}

// LUTCosts computes the Section 6.1 cost table for one CPU using the
// fib-selected top-N sets over all flip-flops.
func LUTCosts(c *CPUCase, params core.SearchParams) []LUTRow {
	set := core.Search(c.NL, c.FaultAll, params).Set
	var rows []LUTRow
	for _, n := range TopNs {
		sel := prune.SelectTopN(set, c.TraceFib, c.FaultAll, n)
		cost := hafi.LUTCost(sel)
		rows = append(rows, LUTRow{
			CPU:      c.Name,
			TopN:     n,
			LUTs:     cost,
			VsSmall:  float64(cost) / hafi.FIControllerLUTsLow,
			VsLarge:  float64(cost) / hafi.FIControllerLUTsHigh,
			VsDevice: float64(cost) / hafi.Virtex6LUTs,
		})
	}
	return rows
}

// FormatLUT renders the LUT-cost rows.
func FormatLUT(rows []LUTRow) string {
	var sb strings.Builder
	sb.WriteString("Section 6.1: FPGA cost of selected MATE sets (6-input LUTs)\n")
	fmt.Fprintf(&sb, "%-8s%8s%8s%16s%16s%16s\n", "CPU", "Top-N", "LUTs",
		"vs 1.5k ctrl", "vs 6k ctrl", "vs Virtex-6")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s%8d%8d%15.2f%%%15.2f%%%15.3f%%\n",
			r.CPU, r.TopN, r.LUTs, 100*r.VsSmall, 100*r.VsLarge, 100*r.VsDevice)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Campaign reduction (abstract / Section 8 claim).
// ---------------------------------------------------------------------------

// CampaignRow summarises a HAFI campaign with and without online pruning.
type CampaignRow struct {
	CPU      string
	Workload string
	Result   *hafi.CampaignResult
}

// Campaign runs a sampled fault-injection campaign on the given CPU and
// workload, with MATE-based online pruning, and (optionally) validates
// every skipped point. The context cancels both the MATE search and the
// campaign gracefully (the row then carries a partial, Interrupted
// result). The campaign runs on the pooled wide engine (256 lanes per
// device) with one worker per available CPU; the result is identical to
// the single-instance engine's.
func Campaign(ctx context.Context, c *CPUCase, workload string, stride int, params core.SearchParams, validate bool) (*CampaignRow, error) {
	prog := c.FibProg
	if workload == "conv" {
		prog = c.ConvProg
	}
	run := c.NewRun(prog)
	// The golden reference is recorded on a 64-lane wide device (lane 0
	// carries the run): identical Golden, an order of magnitude cheaper
	// than the scalar gate walk.
	grun, err := c.NewRunW(prog, 64)
	if err != nil {
		return nil, err
	}
	gsp := params.Obs.StartSpan("golden")
	golden, err := hafi.RecordGoldenW(grun, 1<<20)
	gsp.End()
	if err != nil {
		return nil, err
	}
	params.Context = ctx
	set := core.Search(c.NL, c.FaultAll, params).Set
	ctl := hafi.NewController(run, golden)
	points := hafi.SampledFaultList(c.NL, golden.HaltCycle, stride)
	runs, err := c.NewPool(prog, hafi.DefaultCampaignLanes, runtime.GOMAXPROCS(0), len(points))
	if err != nil {
		return nil, err
	}
	res, err := ctl.RunCampaignBatchedPoolWithW(hafi.CampaignConfig{
		Points:          points,
		MATESet:         set,
		ValidateSkipped: validate,
		Context:         ctx,
		Obs:             params.Obs,
	}, runs)
	if err != nil {
		return nil, err
	}
	return &CampaignRow{CPU: c.Name, Workload: workload, Result: res}, nil
}

// FormatCampaign renders campaign rows.
func FormatCampaign(rows []*CampaignRow) string {
	var sb strings.Builder
	sb.WriteString("HAFI campaign with online MATE pruning\n")
	fmt.Fprintf(&sb, "%-8s%-10s%10s%10s%10s%10s%8s%8s\n",
		"CPU", "workload", "points", "pruned", "executed", "benign", "sdc", "hang")
	for _, r := range rows {
		res := r.Result
		fmt.Fprintf(&sb, "%-8s%-10s%10d%10d%10d%10d%8d%8d\n",
			r.CPU, r.Workload, res.Total, res.Skipped, res.Executed,
			res.ByOutcome[hafi.OutcomeBenign], res.ByOutcome[hafi.OutcomeSDC],
			res.ByOutcome[hafi.OutcomeHang])
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Offline inter-cycle pruning (paper Section 6.3 / introduction).
// ---------------------------------------------------------------------------

// InterCycleRow compares online MATE pruning with the offline inter-cycle
// analysis on the same trace and fault set.
type InterCycleRow struct {
	CPU        string
	FaultSet   string
	MATEs      float64 // fraction pruned by the complete MATE set
	InterCycle float64 // fraction provably benign offline
	OpenEnded  int64
}

// InterCycle computes the comparison for one CPU on its fib trace.
func InterCycle(c *CPUCase, params core.SearchParams) ([]InterCycleRow, error) {
	var rows []InterCycleRow
	for _, fs := range []struct {
		name  string
		wires []netlist.WireID
	}{{"FF", c.FaultAll}, {"FF w/o RF", c.FaultNoRF}} {
		set := core.Search(c.NL, fs.wires, params).Set
		mates := prune.Evaluate(set, c.TraceFib, fs.wires)
		inter, err := intercycle.Analyze(c.NL, c.TraceFib, fs.wires)
		if err != nil {
			return nil, err
		}
		rows = append(rows, InterCycleRow{
			CPU:        c.Name,
			FaultSet:   fs.name,
			MATEs:      mates.Reduction(),
			InterCycle: inter.Reduction(),
			OpenEnded:  inter.OpenEnd,
		})
	}
	return rows, nil
}

// FormatInterCycle renders the comparison.
func FormatInterCycle(rows []InterCycleRow) string {
	var sb strings.Builder
	sb.WriteString("Intra-cycle MATEs (online) vs inter-cycle analysis (offline), fib trace\n")
	fmt.Fprintf(&sb, "%-8s%-12s%14s%16s%12s\n", "CPU", "fault set", "MATEs", "inter-cycle", "open-ended")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s%-12s%13.2f%%%15.2f%%%12d\n",
			r.CPU, r.FaultSet, 100*r.MATEs, 100*r.InterCycle, r.OpenEnded)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Cross-layer comparison (paper Section 1 / 6.3).
// ---------------------------------------------------------------------------

// CrossLayerRow reports the effective-fault fraction at one injection
// level for one CPU/workload.
type CrossLayerRow struct {
	CPU         string
	Level       string // "ISA" or "FF"
	Experiments int
	Effective   float64
}

// CrossLayer runs matched ISA-level and flip-flop-level campaigns on the
// fib workload.
func CrossLayer(c *CPUCase, stride int) ([]CrossLayerRow, error) {
	var rows []CrossLayerRow

	var target isafi.Target
	switch c.Name {
	case "AVR":
		target = isafi.NewAVRTarget(c.FibProg)
	default:
		target = isafi.NewMSP430Target(c.FibProg)
	}
	target.Reset()
	instrs := 0
	for !target.Halted() && instrs < 1<<22 {
		target.Step()
		instrs++
	}
	isaStride := instrs / (len(c.NL.FFs)/target.NumBits()*stride/2 + stride)
	if isaStride < 1 {
		isaStride = 1
	}
	isaRes, err := isafi.Campaign(target, isafi.FullFaultList(target, instrs, isaStride), 1<<22)
	if err != nil {
		return nil, err
	}
	rows = append(rows, CrossLayerRow{
		CPU: c.Name, Level: "ISA", Experiments: isaRes.Total,
		Effective: isaRes.EffectiveFraction(),
	})

	run := c.NewRun(c.FibProg)
	golden, err := hafi.RecordGolden(run, 1<<20)
	if err != nil {
		return nil, err
	}
	ctl := hafi.NewController(run, golden)
	dev, err := c.NewRunW(c.FibProg, hafi.DefaultCampaignLanes)
	if err != nil {
		return nil, err
	}
	ffRes, err := ctl.RunCampaignBatchedPoolWithW(hafi.CampaignConfig{
		Points: hafi.SampledFaultList(c.NL, golden.HaltCycle, stride),
	}, []hafi.RunW{dev})
	if err != nil {
		return nil, err
	}
	eff := float64(ffRes.ByOutcome[hafi.OutcomeSDC]+ffRes.ByOutcome[hafi.OutcomeHang]) / float64(ffRes.Total)
	rows = append(rows, CrossLayerRow{
		CPU: c.Name, Level: "FF", Experiments: ffRes.Total, Effective: eff,
	})
	return rows, nil
}

// FormatCrossLayer renders the comparison.
func FormatCrossLayer(rows []CrossLayerRow) string {
	var sb strings.Builder
	sb.WriteString("Cross-layer effectiveness on fib (share of experiments that are SDC or hang)\n")
	fmt.Fprintf(&sb, "%-8s%-6s%14s%12s\n", "CPU", "level", "experiments", "effective")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s%-6s%14d%11.1f%%\n", r.CPU, r.Level, r.Experiments, 100*r.Effective)
	}
	return sb.String()
}
