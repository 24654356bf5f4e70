package experiments

import (
	"strings"
	"testing"
)

// TestFleetSweep pins the scaling acceptance bar: simulated closed-loop
// throughput at 4 engines is at least 2x the 1-engine baseline, with zero
// failed requests even though a rolling reprogram fires mid-run.
func TestFleetSweep(t *testing.T) {
	res, err := FleetSweep([]int{1, 4}, []string{"round-robin", "least-loaded"}, 16, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Failed != 0 {
			t.Errorf("%s/%d: %d requests failed during rolling reprogram, want 0",
				row.Policy, row.Engines, row.Failed)
		}
		if row.RolledEngines != row.Engines || row.RollingFailed != 0 {
			t.Errorf("%s/%d: rolled %d engines (%d failed), want %d/0",
				row.Policy, row.Engines, row.RolledEngines, row.RollingFailed, row.Engines)
		}
		if row.SimThroughputRPS <= 0 {
			t.Errorf("%s/%d: degenerate throughput %g", row.Policy, row.Engines, row.SimThroughputRPS)
		}
		if row.Engines == 4 && row.SpeedupVs1 < 2 {
			t.Errorf("%s: 4-engine speedup %.2fx, want >= 2x", row.Policy, row.SpeedupVs1)
		}
	}
	text := res.Format()
	if !strings.Contains(text, "round-robin") || !strings.Contains(text, "speedup") {
		t.Errorf("Format missing expected columns:\n%s", text)
	}
	// Invalid grids are rejected.
	if _, err := FleetSweep(nil, []string{"rr"}, 1, 1); err == nil {
		t.Error("empty engine grid accepted")
	}
	if _, err := FleetSweep([]int{1}, []string{"bogus"}, 1, 1); err == nil {
		t.Error("unknown policy accepted")
	}
}
