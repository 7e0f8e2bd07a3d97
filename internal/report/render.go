package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/obs"
)

// Document is the single-campaign report: everything the text, JSON and CSV
// renderers draw from.
type Document struct {
	Path    string     `json:"journal"`
	Summary Summary    `json:"summary"`
	MATEs   []MATERow  `json:"mates"`
	Heatmap *Heatmap   `json:"heatmap,omitempty"`
	Stats   *obs.Stats `json:"stats,omitempty"`
}

// BuildDocument assembles the report of one campaign. bins parameterises
// the heatmap (0 disables it).
func BuildDocument(c *Campaign, bins int) *Document {
	return &Document{
		Path:    c.Path,
		Summary: c.Summary(),
		MATEs:   c.MATETable(),
		Heatmap: c.BuildHeatmap(bins),
		Stats:   c.Stats,
	}
}

// WriteText renders the report for humans.
func (d *Document) WriteText(w io.Writer) error {
	s := d.Summary
	fmt.Fprintf(w, "campaign:   %s\n", d.Path)
	fmt.Fprintf(w, "fault list: %d points, %d classified (%.2f%% coverage)\n",
		s.Points, s.Classified, 100*s.Coverage())
	fmt.Fprintf(w, "pruned:     %d (%.2f%% of classified), %d executed\n",
		s.Pruned, 100*s.PrunedFraction(), s.Executed)
	fmt.Fprintf(w, "outcomes:   benign=%d sdc=%d hang=%d harness-error=%d\n",
		s.Outcomes[0], s.Outcomes[1], s.Outcomes[2], s.Outcomes[3])
	if len(s.Models) > 0 {
		names := make([]string, 0, len(s.Models))
		for name := range s.Models {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "models:")
		for _, name := range names {
			m := s.Models[name]
			fmt.Fprintf(w, "  %-12s %d classified, %d pruned, %d executed (benign=%d sdc=%d hang=%d harness-error=%d)\n",
				name, m.Classified, m.Pruned, m.Executed,
				m.Outcomes[0], m.Outcomes[1], m.Outcomes[2], m.Outcomes[3])
		}
	}
	if s.SkippedWrong > 0 {
		fmt.Fprintf(w, "UNSOUND:    %d validated-skipped points were NOT benign\n", s.SkippedWrong)
	}
	if s.Torn || s.Corrupt {
		fmt.Fprintf(w, "journal:    tail damaged (torn=%v corrupt=%v, %d bytes dropped)\n",
			s.Torn, s.Corrupt, s.DroppedBytes)
	}

	var attributed int64
	for _, row := range d.MATEs {
		attributed += row.Points
	}
	fmt.Fprintf(w, "attribution: %d/%d pruned points credited to %d MATEs\n",
		attributed, s.Pruned, len(d.MATEs))
	if len(d.MATEs) > 0 {
		fmt.Fprintln(w, "\n  mate   width  points   cost/benefit")
		for _, row := range d.MATEs {
			fmt.Fprintf(w, "  #%-5d %-6d %-8d %.1f\n", row.MATE, row.Width, row.Points, row.CostBenefit())
		}
	}

	if h := d.Heatmap; h != nil {
		fmt.Fprintf(w, "\nheatmap: cycles %d-%d, %d cycles per column\n", h.CycleLo, h.CycleHi, h.BinWidth)
		fmt.Fprintln(w, "  (S=sdc H=hang E=harness-error .=benign p=pruned !=unsound)")
		for i, ff := range h.FFs {
			row := make([]byte, len(h.Cells[i]))
			for j, cell := range h.Cells[i] {
				row[j] = cell.Glyph()
			}
			fmt.Fprintf(w, "  ff %-5d |%s|\n", ff, row)
		}
	}

	if st := d.Stats; st != nil {
		fmt.Fprintf(w, "\nruntime (from -stats-json): %.1fs", st.UptimeSeconds)
		if sp, ok := st.Spans["campaign"]; ok {
			fmt.Fprintf(w, ", campaign span %.1fs", sp.Seconds)
		}
		if n, ok := st.Counters["campaign_batches_total"]; ok {
			fmt.Fprintf(w, ", %d batches", n)
		}
		fmt.Fprintln(w)
		if n, ok := st.Counters["campaign_converged_total"]; ok && n > 0 {
			fmt.Fprintf(w, "convergence: %d experiments retired early", n)
			if s, ok := st.Counters["campaign_cycles_saved_total"]; ok {
				fmt.Fprintf(w, ", %d simulation cycles saved", s)
			}
			fmt.Fprintln(w)
		}
		if n := st.Counters["campaign_held_total"]; n > 0 {
			fmt.Fprintf(w, "held:       %d experiments retired at once, golden but for one flip-flop held to the halt\n", n)
		}
		// Older dumps (pre-wide engines) carry no lane gauge and print nothing.
		if lanes := st.Gauges["campaign_lanes"]; lanes > 0 {
			fmt.Fprintf(w, "simulation: %d lanes\n", lanes)
		}
		// Per-experiment and per-batch latency percentiles, bucket-estimated
		// by the exporter from the engine's duration histograms.
		if h, ok := st.Histograms["campaign_experiment_seconds"]; ok && h.Count > 0 {
			fmt.Fprintf(w, "latency:    experiment p50=%s p95=%s p99=%s (%d samples)\n",
				fmtSeconds(h.P50), fmtSeconds(h.P95), fmtSeconds(h.P99), h.Count)
		}
		if h, ok := st.Histograms["campaign_batch_seconds"]; ok && h.Count > 0 {
			fmt.Fprintf(w, "            batch      p50=%s p95=%s p99=%s (%d samples)\n",
				fmtSeconds(h.P50), fmtSeconds(h.P95), fmtSeconds(h.P99), h.Count)
		}
		if n, ok := st.Counters["fleet_leases_granted_total"]; ok {
			// A fleet-merged campaign: surface the coordinator's recovery
			// counters (how contested the leases were, what fencing stopped).
			fmt.Fprintf(w, "fleet:      %d leases granted, %d expired, %d re-leased", n,
				st.Counters["fleet_lease_expiries_total"], st.Counters["fleet_lease_regrants_total"])
			if s := st.Counters["fleet_completions_stale_total"]; s > 0 {
				fmt.Fprintf(w, ", %d stale completions fenced off", s)
			}
			if s := st.Counters["fleet_completions_invalid_total"]; s > 0 {
				fmt.Fprintf(w, ", %d invalid uploads rejected", s)
			}
			if m := st.Counters["fleet_merges_total"]; m > 0 {
				fmt.Fprintf(w, ", merged %d×", m)
			}
			fmt.Fprintln(w)
		}
		// A coordinator dump carries per-worker point counters folded from
		// heartbeat telemetry: render the fleet's workload split.
		if byWorker := st.LabeledCounters("fleet_worker_points_total", "worker"); len(byWorker) > 0 {
			names := make([]string, 0, len(byWorker))
			var total int64
			for name, n := range byWorker {
				names = append(names, name)
				total += n
			}
			sort.Slice(names, func(i, j int) bool {
				if byWorker[names[i]] != byWorker[names[j]] {
					return byWorker[names[i]] > byWorker[names[j]]
				}
				return names[i] < names[j]
			})
			fmt.Fprintf(w, "workers:    %d contributed points\n", len(names))
			for _, name := range names {
				share := 0.0
				if total > 0 {
					share = 100 * float64(byWorker[name]) / float64(total)
				}
				fmt.Fprintf(w, "  %-24s %8d points (%.1f%%)\n", name, byWorker[name], share)
			}
		}
		terms, hasTerms := st.Counters["exact_terms_found_total"]
		certs, hasCerts := st.Counters["exact_unmaskable_total"]
		if hasTerms || hasCerts {
			fmt.Fprintf(w, "exact:      %d BDD-derived terms, %d certified-unmaskable flip-flops",
				terms, certs)
			if n, ok := st.Counters["exact_bdd_nodes_total"]; ok {
				fmt.Fprintf(w, ", %d BDD nodes", n)
			}
			if n, ok := st.Counters["exact_truncated_total"]; ok && n > 0 {
				fmt.Fprintf(w, ", %d cones over budget", n)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// fmtSeconds renders a duration in seconds with a unit that keeps small
// latencies readable (µs/ms below a second).
func fmtSeconds(s float64) string {
	switch {
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

// WriteJSON renders the report as one JSON document.
func (d *Document) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteCSV renders the per-point classification (one row per classified
// fault-list index, with its attribution when pruned) — the machine-readable
// long form downstream tooling joins on.
func WriteCSV(w io.Writer, c *Campaign) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"index", "ff", "cycle", "duration", "model", "verdict", "pruned", "mate", "width"}); err != nil {
		return err
	}
	for _, rec := range recordsInOrder(c.Rec) {
		mate, width := "", ""
		if rec.Pruned {
			if hit, ok := c.Rec.HitByIndex[rec.Index]; ok {
				mate = strconv.Itoa(int(hit.MATE))
				width = strconv.Itoa(int(hit.Width))
			}
		}
		err := cw.Write([]string{
			strconv.FormatUint(rec.Index, 10),
			strconv.Itoa(int(rec.FF)),
			strconv.Itoa(int(rec.Cycle)),
			strconv.Itoa(int(rec.Duration)),
			ModelName(rec.Model),
			Verdict(rec),
			strconv.FormatBool(rec.Pruned),
			mate, width,
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteDiffText renders a diff for humans.
func (d *DiffResult) WriteDiffText(w io.Writer, pathA, pathB string) error {
	fmt.Fprintf(w, "diff:       %s (baseline) vs %s\n", pathA, pathB)
	fmt.Fprintf(w, "classified: %d vs %d, %d agree\n", d.ClassifiedA, d.ClassifiedB, d.Agree)
	fmt.Fprintf(w, "info:       %d pruning flips (verdict unchanged), %d coverage gains\n",
		d.PruningFlips, d.CoverageGains)
	if n := len(d.CoverageRegressions); n > 0 {
		fmt.Fprintf(w, "coverage regressions: %d points classified only in baseline\n", n)
		for i, idx := range d.CoverageRegressions {
			if i == 20 {
				fmt.Fprintf(w, "  ... %d more\n", n-20)
				break
			}
			fmt.Fprintf(w, "  point %d\n", idx)
		}
	}
	if n := len(d.ClassificationRegressions); n > 0 {
		fmt.Fprintf(w, "classification regressions: %d points changed verdict\n", n)
		for i, ch := range d.ClassificationRegressions {
			if i == 20 {
				fmt.Fprintf(w, "  ... %d more\n", n-20)
				break
			}
			fmt.Fprintf(w, "  point %d (ff=%d cycle=%d): %s -> %s\n", ch.Index, ch.FF, ch.Cycle, ch.From, ch.To)
		}
	}
	if d.Regressions() == 0 {
		fmt.Fprintln(w, "regressions: none")
	} else {
		fmt.Fprintf(w, "regressions: %d\n", d.Regressions())
	}
	return nil
}

// WriteDiffJSON renders a diff as one JSON document.
func (d *DiffResult) WriteDiffJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteModelDiffText renders a cross-model comparison for humans.
func (d *ModelDiffResult) WriteModelDiffText(w io.Writer, pathA, pathB string) error {
	fmt.Fprintf(w, "model diff: %s (%s) vs %s (%s)\n",
		pathA, joinNames(d.ModelsA), pathB, joinNames(d.ModelsB))
	fmt.Fprintf(w, "sites:      %d vs %d (%d common, %d only in A, %d only in B)\n",
		d.SitesA, d.SitesB, d.Common, d.OnlyA, d.OnlyB)
	fmt.Fprintf(w, "verdicts:   %d agree, %d escalations, %d downgrades\n",
		d.Agree, d.Escalations, d.Downgrades)
	for i, ch := range d.Changes {
		if i == 20 {
			fmt.Fprintf(w, "  ... %d more\n", len(d.Changes)-20)
			break
		}
		fmt.Fprintf(w, "  site (ff=%d cycle=%d): %s -> %s\n", ch.FF, ch.Cycle, ch.VerdictA, ch.VerdictB)
	}
	return nil
}

// WriteModelDiffJSON renders a cross-model comparison as one JSON document.
func (d *ModelDiffResult) WriteModelDiffJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteModelDiffCSV renders the differing sites as CSV.
func (d *ModelDiffResult) WriteModelDiffCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"ff", "cycle", "verdict_a", "verdict_b"}); err != nil {
		return err
	}
	for _, ch := range d.Changes {
		err := cw.Write([]string{
			strconv.Itoa(int(ch.FF)), strconv.Itoa(int(ch.Cycle)), ch.VerdictA, ch.VerdictB,
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func joinNames(names []string) string {
	if len(names) == 0 {
		return "no records"
	}
	out := names[0]
	for _, n := range names[1:] {
		out += "+" + n
	}
	return out
}

// WriteDiffCSV renders the regression lists as CSV (kind =
// "coverage"|"classification").
func (d *DiffResult) WriteDiffCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "index", "ff", "cycle", "from", "to"}); err != nil {
		return err
	}
	for _, idx := range d.CoverageRegressions {
		if err := cw.Write([]string{"coverage", strconv.FormatUint(idx, 10), "", "", "classified", "missing"}); err != nil {
			return err
		}
	}
	for _, ch := range d.ClassificationRegressions {
		err := cw.Write([]string{"classification", strconv.FormatUint(ch.Index, 10),
			strconv.Itoa(int(ch.FF)), strconv.Itoa(int(ch.Cycle)), ch.From, ch.To})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
