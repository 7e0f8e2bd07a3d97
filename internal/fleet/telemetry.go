package fleet

import (
	"strings"

	"repro/internal/obs"
)

// Telemetry is what a worker attaches to every heartbeat: the live
// progress of its leased shard and the campaign_* slice of its
// registry's stats document. The counters are worker-lifetime and
// cumulative, which makes folding idempotent under lost or reordered
// heartbeats — the coordinator differences consecutive documents per
// worker and folds only the delta, so a dropped heartbeat costs latency,
// never accuracy.
type Telemetry struct {
	// ShardDone counts points classified in the currently leased shard
	// (resets with each lease; the engine's Progress callback feeds it).
	ShardDone int64 `json:"shard_done"`
	// Campaign holds the worker registry's campaign_* counters, gauges
	// and histograms; nil when the worker runs without a registry.
	Campaign *obs.Stats `json:"campaign,omitempty"`
}

// campaignPrefix selects the slice of a worker's registry that the
// heartbeat carries: the engine's campaign metrics, whatever their names.
const campaignPrefix = "campaign_"

// sampleTelemetry snapshots reg's campaign slice plus the live shard
// progress. Nil-safe: without a registry only the shard progress goes.
func sampleTelemetry(reg *obs.Registry, shardDone int64) *Telemetry {
	t := &Telemetry{ShardDone: shardDone}
	if st := reg.Stats(); st != nil {
		t.Campaign = &obs.Stats{
			Counters:   withPrefix(st.Counters, campaignPrefix),
			Gauges:     withPrefix(st.Gauges, campaignPrefix),
			Histograms: withPrefix(st.Histograms, campaignPrefix),
		}
	}
	return t
}

func withPrefix[V any](m map[string]V, prefix string) map[string]V {
	out := make(map[string]V)
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			out[k] = v
		}
	}
	return out
}

// counterDeltas returns cur - prev per counter key with every delta
// clamped at zero: a worker that restarted under the same name resets
// its counters, and folding a negative delta would corrupt the fleet
// totals, so the post-restart document simply becomes the new baseline.
func counterDeltas(cur, prev map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(cur))
	for k, v := range cur {
		d[k] = max(v-prev[k], 0)
	}
	return d
}
