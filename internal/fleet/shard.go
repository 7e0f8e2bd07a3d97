// Package fleet is the fault-tolerant distribution layer of the campaign
// pipeline: a coordinator splits a campaign's fault space into shards
// (FF-range × cycle-window slices of the fault list), leases them over
// HTTP/JSON to worker processes under TTL leases with fencing tokens, and
// merges the per-shard journals back into one campaign journal — with
// recovery from worker crashes (lease expiry → re-lease), worker hangs
// (heartbeat timeout), duplicate completions (stale fences rejected) and
// coordinator restarts (lease table and shard status journaled to disk and
// replayed on startup). The merged journal recovers point-for-point
// identical to an uninterrupted single-process run; the journal header
// fingerprints introduced in PR 2 (golden signature + fault-list FNV) are
// what make every merge step verifiable.
package fleet

import (
	"fmt"

	"repro/internal/hafi"
	"repro/internal/journal"
)

// Shard is one leasable unit of a campaign fault space: the contiguous
// fault-list range [Lo, Hi), annotated with the FF range and cycle window
// it covers and fingerprinted so the shard journal a worker uploads can be
// verified independently of trust in the worker. For the canonical
// cycle-major fault lists (hafi.SampledFaultList) the planner cuts only at
// cycle boundaries, so every shard is a full FF-range × cycle-window block.
type Shard struct {
	ID int `json:"id"`
	// Lo and Hi bound the shard's slice of the campaign fault list.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// CycleLo/CycleHi and FFLo/FFHi describe the covered fault-space block
	// (inclusive; informational — the identity is the [Lo, Hi) range).
	CycleLo int `json:"cycle_lo"`
	CycleHi int `json:"cycle_hi"`
	FFLo    int `json:"ff_lo"`
	FFHi    int `json:"ff_hi"`
	// Hash is the FNV fingerprint of the shard's fault-point slice — the
	// FaultListHash a valid shard journal must carry in its header.
	Hash uint64 `json:"hash"`
}

// Points returns the shard's slice of the campaign fault list.
func (s Shard) Points(points []hafi.FaultPoint) []hafi.FaultPoint {
	return points[s.Lo:s.Hi]
}

// Header returns the journal header a worker's shard journal must carry:
// the campaign's golden signature over the shard's own fault-list slice.
func (s Shard) Header(golden uint64) journal.Header {
	return journal.Header{
		GoldenSignature: golden,
		NumPoints:       uint64(s.Hi - s.Lo),
		FaultListHash:   s.Hash,
	}
}

// PlanShards splits a fault list into at most n shards of near-equal size.
// Cuts land on cycle boundaries (all points of one injection cycle stay in
// one shard), so on the canonical cycle-major fault lists each shard is an
// FF-range × cycle-window block; a fault list with fewer distinct cycles
// than n yields fewer, larger shards. n < 1 plans a single shard.
func PlanShards(points []hafi.FaultPoint, n int) []Shard {
	if len(points) == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	target := (len(points) + n - 1) / n
	var out []Shard
	for lo := 0; lo < len(points); {
		hi := lo + target
		if hi >= len(points) {
			hi = len(points)
		} else {
			// Extend to the end of hi-1's injection cycle so a cycle is
			// never split across shards.
			for hi < len(points) && points[hi].Cycle == points[hi-1].Cycle {
				hi++
			}
		}
		sh := Shard{
			ID: len(out), Lo: lo, Hi: hi,
			CycleLo: points[lo].Cycle, CycleHi: points[lo].Cycle,
			FFLo: points[lo].FF, FFHi: points[lo].FF,
			Hash: hafi.FaultListHash(points[lo:hi]),
		}
		for _, p := range points[lo:hi] {
			if p.Cycle < sh.CycleLo {
				sh.CycleLo = p.Cycle
			}
			if p.Cycle > sh.CycleHi {
				sh.CycleHi = p.Cycle
			}
			if p.FF < sh.FFLo {
				sh.FFLo = p.FF
			}
			if p.FF > sh.FFHi {
				sh.FFHi = p.FF
			}
		}
		out = append(out, sh)
		lo = hi
	}
	return out
}

// Spec is the campaign definition the coordinator advertises to workers:
// everything a worker needs to reconstruct the exact same golden run,
// fault list and MATE set, plus the fingerprints it must reproduce before
// it is allowed to run a single experiment. A worker whose reconstruction
// disagrees (a different binary, netlist revision or workload) refuses to
// join the fleet instead of contributing unmergeable journals.
type Spec struct {
	CPU    string `json:"cpu"`
	Prog   string `json:"prog"`
	Stride int    `json:"stride"`
	// FaultModel is the campaign fault model in -fault-model syntax
	// (hafi.ParseModelSpec); empty means "seu". Every worker must
	// reconstruct the fault list under the same model — the fault-list
	// hash would catch a mismatch too, but naming the model turns an
	// opaque fingerprint error into an actionable one.
	FaultModel string `json:"fault_model,omitempty"`
	// NoRF excludes the register file from the fault list.
	NoRF bool `json:"norf,omitempty"`
	// MATESet is the campaign MATE set in the core mateio text format
	// (empty = pruning disabled). Shipping the serialized set — rather than
	// having every worker re-run the search — guarantees all shards prune
	// against identical terms.
	MATESet string `json:"mate_set,omitempty"`
	// DisableEarlyExit turns off the convergence early-exit fleet-wide.
	DisableEarlyExit bool `json:"no_early_exit,omitempty"`
	// GoldenSignature, NumPoints and FaultListHash fingerprint the campaign
	// the coordinator planned; a worker must reproduce all three.
	GoldenSignature uint64 `json:"golden_signature"`
	NumPoints       uint64 `json:"num_points"`
	FaultListHash   uint64 `json:"fault_list_hash"`
	// LeaseTTLMillis and HeartbeatMillis advertise the lease discipline.
	LeaseTTLMillis  int64 `json:"lease_ttl_ms"`
	HeartbeatMillis int64 `json:"heartbeat_ms"`
	// TraceID identifies the campaign's distributed trace; every shard
	// trace segment a worker uploads must be minted under it.
	TraceID string `json:"trace_id,omitempty"`
}

// Header returns the campaign journal header the spec fingerprints.
func (s Spec) Header() journal.Header {
	return journal.Header{
		GoldenSignature: s.GoldenSignature,
		NumPoints:       s.NumPoints,
		FaultListHash:   s.FaultListHash,
	}
}

// Model parses the campaign fault model. Empty, as from a coordinator that
// predates the field, means "seu".
func (s Spec) Model() (hafi.ModelSpec, error) {
	if s.FaultModel == "" {
		return hafi.ParseModelSpec("seu")
	}
	return hafi.ParseModelSpec(s.FaultModel)
}

// canonicalModel normalises a fault-model string for comparison: parseable
// models compare in their canonical rendering (so "" and "seu" are the same
// model, and so are "mbu" and "mbu:2").
func canonicalModel(model string) string {
	if spec, err := (Spec{FaultModel: model}).Model(); err == nil {
		return spec.String()
	}
	return model
}

// Check verifies a worker's local reconstruction against the coordinator's
// fingerprints, naming the first mismatched field. localModel is the fault
// model the worker enumerated its fault list under; a model mismatch is
// rejected by name, before the fingerprint comparison would flag it as an
// opaque hash difference.
func (s Spec) Check(local journal.Header, localModel string) error {
	want := s.Header()
	switch {
	case canonicalModel(localModel) != canonicalModel(s.FaultModel):
		return fmt.Errorf("fleet: fault-model mismatch: local campaign uses %q, coordinator %q",
			canonicalModel(localModel), canonicalModel(s.FaultModel))
	case local.GoldenSignature != want.GoldenSignature:
		return fmt.Errorf("fleet: golden signature mismatch: local run %016x, coordinator %016x (different binary or workload?)",
			local.GoldenSignature, want.GoldenSignature)
	case local.NumPoints != want.NumPoints:
		return fmt.Errorf("fleet: fault-list size mismatch: local %d points, coordinator %d", local.NumPoints, want.NumPoints)
	case local.FaultListHash != want.FaultListHash:
		return fmt.Errorf("fleet: fault-list hash mismatch: local %016x, coordinator %016x", local.FaultListHash, want.FaultListHash)
	}
	return nil
}
