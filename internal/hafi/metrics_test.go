package hafi

import (
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestCampaignMetricsMatchDesignTable: the campaign_* metric family a
// pruned campaign registers is exactly the one DESIGN.md's metric table
// lists with its readers — a metric added without a documented reader,
// or a documented one the engine no longer exports, fails here.
func TestCampaignMetricsMatchDesignTable(t *testing.T) {
	c, _, g, r := goldenAVR(t)
	set := core.Search(c.NL, c.NL.FFQWires(), core.DefaultSearchParams()).Set
	reg := obs.NewRegistry()
	res, err := NewController(r, g).RunCampaign(CampaignConfig{
		Points: SampledFaultList(c.NL, g.HaltCycle, 20), MATESet: set, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped == 0 {
		t.Fatal("pruning did not fire; campaign_mate_pruned_total cannot register")
	}
	registered := map[string]bool{}
	st := reg.Stats()
	for _, keys := range [][]string{mapKeys(st.Counters), mapKeys(st.Gauges), mapKeys(st.Histograms)} {
		for _, key := range keys {
			if name, _, _ := strings.Cut(key, "{"); strings.HasPrefix(name, "campaign_") {
				registered[name] = true
			}
		}
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(campaign_[a-z_]+)").FindAllStringSubmatch(string(design), -1) {
		documented[m[1]] = true
	}
	if !reflect.DeepEqual(registered, documented) {
		t.Fatalf("campaign metrics registered %v, DESIGN.md's table lists %v",
			sortedNames(registered), sortedNames(documented))
	}
}

func mapKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sortedNames(set map[string]bool) []string {
	out := mapKeys(set)
	sort.Strings(out)
	return out
}
