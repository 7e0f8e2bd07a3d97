package fleet

import (
	"strings"
	"testing"

	"repro/internal/journal"
)

// TestSpecCheckFaultModel: a worker whose local fault model differs from
// the coordinator's spec must be rejected by name — before the fault-list
// fingerprint comparison turns the mismatch into an opaque hash error —
// and spelling variants of the same model must not be rejected.
func TestSpecCheckFaultModel(t *testing.T) {
	spec := Spec{GoldenSignature: 1, NumPoints: 2, FaultListHash: 3}
	okHeader := journal.Header{GoldenSignature: 1, NumPoints: 2, FaultListHash: 3}

	cases := []struct {
		name        string
		specModel   string
		localModel  string
		local       journal.Header
		ok          bool
		errContains string
	}{
		{"both default seu", "", "", okHeader, true, ""},
		{"empty equals explicit seu", "", "seu", okHeader, true, ""},
		{"explicit seu equals empty", "seu", "", okHeader, true, ""},
		{"canonical mbu variants", "mbu", "mbu:2", okHeader, true, ""},
		{"canonical intermittent variants", "intermittent", "intermittent:2,8", okHeader, true, ""},
		{"same verbatim", "stuck1:3", "stuck1:3", okHeader, true, ""},
		{"model mismatch", "mbu:2", "seu", okHeader, false, "fault-model mismatch"},
		{"span mismatch", "mbu:2", "mbu:3", okHeader, false, "fault-model mismatch"},
		{"stuck level mismatch", "stuck0", "stuck1", okHeader, false, "fault-model mismatch"},
		// When both the model and the fingerprints disagree, the model is
		// named first — that is the actionable error.
		{"model named before hash", "set", "seu",
			journal.Header{GoldenSignature: 1, NumPoints: 9, FaultListHash: 9}, false, "fault-model mismatch"},
		{"hash mismatch same model", "seu", "seu",
			journal.Header{GoldenSignature: 1, NumPoints: 2, FaultListHash: 9}, false, "fault-list hash"},
	}
	for _, tc := range cases {
		s := spec
		s.FaultModel = tc.specModel
		err := s.Check(tc.local, tc.localModel)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: mismatch accepted", tc.name)
			} else if !strings.Contains(err.Error(), tc.errContains) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, tc.errContains)
			}
		}
	}
}

// TestCampaignRunnerFaultModel: the runner advertises its model to the
// join handshake.
func TestCampaignRunnerFaultModel(t *testing.T) {
	r := &CampaignRunner{}
	if got := r.FaultModel(); got != "" {
		t.Errorf("zero runner model = %q, want empty (seu)", got)
	}
	r.Model = "mbu:2"
	if got := r.FaultModel(); got != "mbu:2" {
		t.Errorf("model = %q", got)
	}
}

// TestSpecModel: a spec without a fault model (from a coordinator that
// predates the field) means seu, for the worker and for Check alike.
func TestSpecModel(t *testing.T) {
	for model, want := range map[string]string{"": "seu", "seu": "seu", "mbu": "mbu:2"} {
		got, err := Spec{FaultModel: model}.Model()
		if err != nil || got.String() != want {
			t.Errorf("Spec{FaultModel: %q}.Model() = %v, %v; want %s", model, got, err, want)
		}
	}
	if _, err := (Spec{FaultModel: "bogus"}).Model(); err == nil {
		t.Error("unknown fault model accepted")
	}
}
