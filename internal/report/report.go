// Package report analyzes recovered campaign journals: per-campaign outcome
// summaries, per-MATE effectiveness tables (the paper's cost/benefit metric
// recomputed from attribution records), FF × cycle-window outcome heatmaps,
// and a point-for-point diff of two campaigns that flags coverage and
// classification regressions. It powers cmd/campaignreport and works from
// the journal alone — no netlist, trace or MATE-set file required — with an
// optional -stats-json dump for runtime enrichment.
package report

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/journal"
	"repro/internal/obs"
)

// outcomeNames mirrors the hafi outcome codes journal records carry
// (benign=0, sdc=1, hang=2, harness-error=3).
var outcomeNames = [...]string{"benign", "sdc", "hang", "harness-error"}

// OutcomeName returns the symbolic name of a journal outcome code.
func OutcomeName(code uint8) string {
	if int(code) < len(outcomeNames) {
		return outcomeNames[code]
	}
	return fmt.Sprintf("outcome(%d)", code)
}

// modelNames mirrors the hafi fault-model codes v3 journal records carry
// (seu=0, mbu=1, set=2, intermittent=3, stuck-at=4). The report works from
// the journal alone, so the table is duplicated here rather than imported
// from the engine.
var modelNames = [...]string{"seu", "mbu", "set", "intermittent", "stuck-at"}

// ModelName returns the symbolic name of a journal fault-model code.
func ModelName(code uint8) string {
	if int(code) < len(modelNames) {
		return modelNames[code]
	}
	return fmt.Sprintf("model(%d)", code)
}

// Verdict classifies one journal record for comparison purposes: "benign"
// for pruned or executed-benign points (so pruning a point a fresh run
// executed is not a classification change), "skipped-wrong" for validated
// pruned points that failed validation, and the outcome name otherwise.
func Verdict(rec journal.Record) string {
	if rec.Pruned {
		if rec.SkippedWrong {
			return "skipped-wrong"
		}
		return "benign"
	}
	return OutcomeName(rec.Outcome)
}

// Campaign is one recovered campaign journal, optionally enriched with the
// run's -stats-json dump.
type Campaign struct {
	Path  string
	Rec   *journal.Recovered
	Stats *obs.Stats
}

// Load recovers the journal at journalPath; statsPath, when non-empty,
// additionally loads the run's -stats-json dump.
func Load(journalPath, statsPath string) (*Campaign, error) {
	rec, err := journal.Recover(journalPath)
	if err != nil {
		return nil, err
	}
	if !rec.HasHeader {
		return nil, fmt.Errorf("report: %s has no intact campaign header", journalPath)
	}
	c := &Campaign{Path: journalPath, Rec: rec}
	if statsPath != "" {
		data, err := os.ReadFile(statsPath)
		if err != nil {
			return nil, fmt.Errorf("report: %w", err)
		}
		c.Stats = &obs.Stats{}
		if err := json.Unmarshal(data, c.Stats); err != nil {
			return nil, fmt.Errorf("report: %s: %w", statsPath, err)
		}
	}
	return c, nil
}

// Summary condenses one campaign journal.
type Summary struct {
	// Points is the fault-list length the campaign was launched over.
	Points uint64 `json:"points"`
	// Classified counts distinct points with an intact experiment record.
	Classified int `json:"classified"`
	Pruned     int `json:"pruned"`
	Executed   int `json:"executed"`
	// Outcomes indexes executed points by outcome code.
	Outcomes [4]int `json:"outcomes"`
	// SkippedWrong counts validated pruned points that were NOT benign.
	SkippedWrong int `json:"skipped_wrong"`
	// AttributedPruned counts pruned points carrying a MATE attribution hit
	// (equals Pruned for v2 journals; lower for pre-attribution journals).
	AttributedPruned int `json:"attributed_pruned"`
	// Torn/Corrupt/DroppedBytes echo the journal tail diagnosis.
	Torn         bool  `json:"torn"`
	Corrupt      bool  `json:"corrupt"`
	DroppedBytes int64 `json:"dropped_bytes"`
	// Models breaks classification down per fault model, keyed by model
	// name. Nil for pure-SEU campaigns (every v1/v2-era journal), so
	// reports over legacy journals render unchanged.
	Models map[string]ModelSummary `json:"models,omitempty"`
}

// ModelSummary is the per-fault-model slice of a campaign summary.
type ModelSummary struct {
	Classified int `json:"classified"`
	Pruned     int `json:"pruned"`
	Executed   int `json:"executed"`
	// Outcomes indexes the model's executed points by outcome code.
	Outcomes [4]int `json:"outcomes"`
}

// Coverage returns the classified share of the fault list (0..1).
func (s Summary) Coverage() float64 {
	if s.Points == 0 {
		return 0
	}
	return float64(s.Classified) / float64(s.Points)
}

// PrunedFraction returns the pruned share of the classified points.
func (s Summary) PrunedFraction() float64 {
	if s.Classified == 0 {
		return 0
	}
	return float64(s.Pruned) / float64(s.Classified)
}

// Summary walks the per-index record map (so a point classified twice by a
// resume counts once, with its final verdict).
func (c *Campaign) Summary() Summary {
	s := Summary{
		Points:       c.Rec.Header.NumPoints,
		Torn:         c.Rec.Torn,
		Corrupt:      c.Rec.Corrupt,
		DroppedBytes: c.Rec.DroppedBytes,
	}
	perModel := map[uint8]*ModelSummary{}
	for idx, rec := range c.Rec.ByIndex {
		s.Classified++
		m, ok := perModel[rec.Model]
		if !ok {
			m = &ModelSummary{}
			perModel[rec.Model] = m
		}
		m.Classified++
		if rec.Pruned {
			s.Pruned++
			m.Pruned++
			if rec.SkippedWrong {
				s.SkippedWrong++
			}
			if _, ok := c.Rec.HitByIndex[idx]; ok {
				s.AttributedPruned++
			}
			continue
		}
		s.Executed++
		m.Executed++
		if int(rec.Outcome) < len(s.Outcomes) {
			s.Outcomes[rec.Outcome]++
			m.Outcomes[rec.Outcome]++
		}
	}
	// A pure-SEU campaign (the only kind pre-v3 journals can describe)
	// reports no per-model breakdown: the totals already tell the story.
	if _, seuOnly := perModel[0]; !(seuOnly && len(perModel) == 1) && len(perModel) > 0 {
		s.Models = make(map[string]ModelSummary, len(perModel))
		for code, m := range perModel {
			s.Models[ModelName(code)] = *m
		}
	}
	return s
}

// MATERow is one MATE's effectiveness: how many points its attribution
// records credit it with, against its term width.
type MATERow struct {
	MATE   int   `json:"mate"`
	Width  int   `json:"width"`
	Points int64 `json:"points"`
}

// CostBenefit is the paper's selection metric: points pruned per term
// literal. A width of zero (the always-true MATE of a dangling flip-flop)
// counts as one literal so the ratio stays finite.
func (r MATERow) CostBenefit() float64 {
	w := r.Width
	if w < 1 {
		w = 1
	}
	return float64(r.Points) / float64(w)
}

// MATETable aggregates the attribution hits of pruned points into per-MATE
// rows, ranked by cost/benefit (ties: more points, then lower index). Only
// hits whose point's final record is pruned count — an orphan hit from a
// crash, superseded by a re-executed record, is excluded — so the Points
// column sums exactly to Summary().AttributedPruned.
func (c *Campaign) MATETable() []MATERow {
	agg := map[int]*MATERow{}
	for idx, hit := range c.Rec.HitByIndex {
		rec, ok := c.Rec.ByIndex[idx]
		if !ok || !rec.Pruned {
			continue
		}
		row, ok := agg[int(hit.MATE)]
		if !ok {
			row = &MATERow{MATE: int(hit.MATE), Width: int(hit.Width)}
			agg[int(hit.MATE)] = row
		}
		row.Points++
	}
	out := make([]MATERow, 0, len(agg))
	for _, row := range agg {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := out[i].CostBenefit(), out[j].CostBenefit()
		if ci != cj {
			return ci > cj
		}
		if out[i].Points != out[j].Points {
			return out[i].Points > out[j].Points
		}
		return out[i].MATE < out[j].MATE
	})
	return out
}
