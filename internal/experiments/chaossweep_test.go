package experiments

import "testing"

// TestChaosSweepSLO enforces the resilience SLO on a real run of the
// fault-free and overload scenarios: no cell loses a keyed request, every
// cell is bit-identical to the single-engine oracle, and the gate holds
// (overload p99 under DefaultSLO, hedged and not).
func TestChaosSweepSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock sweep; skipped in -short")
	}
	res, err := ChaosSweep([]string{"none", "overload"}, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4 (2 scenarios x hedging off/on)", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Lost != 0 || !row.BitIdentical {
			t.Errorf("%s (hedged=%v): lost %d, mismatched %d; want 0 and bit-identical",
				row.Scenario, row.Hedged, row.Lost, row.Mismatched)
		}
	}
	if err := res.Check(); err != nil {
		t.Errorf("Check() = %v\n%s", err, res.Format())
	}
}

// TestChaosCheck pins the chaos gate predicate by predicate on struct
// literals: zero lost keyed requests and bit identity in every cell,
// every overload cell's p99 under DefaultSLO, and no pass without an
// overload cell to hold to it.
func TestChaosCheck(t *testing.T) {
	good := func() []ChaosRow {
		return []ChaosRow{
			{Scenario: "none", Hedged: false, BitIdentical: true, WallP99NS: 1e6},
			{Scenario: "none", Hedged: true, BitIdentical: true, WallP99NS: 1.2e6},
			{Scenario: "straggler", Hedged: false, BitIdentical: true, WallP99NS: 30e6},
			{Scenario: "straggler", Hedged: true, BitIdentical: true, WallP99NS: 5e6},
			{Scenario: "overload", Hedged: false, BitIdentical: true, WallP99NS: 8e6, Shed: 40},
			{Scenario: "overload", Hedged: true, BitIdentical: true, WallP99NS: 12e6, Shed: 35},
		}
	}
	edit := func(i int, f func(*ChaosRow)) []ChaosRow {
		rows := good()
		f(&rows[i])
		return rows
	}
	for _, tc := range []struct {
		name string
		rows []ChaosRow
		ok   bool
	}{
		{"clean sweep", good(), true},
		{"only overload cells are held to the SLO", edit(2, func(r *ChaosRow) { r.WallP99NS = 100e6 }), true},
		{"lost keyed requests", edit(2, func(r *ChaosRow) { r.Lost = 2 }), false},
		{"not bit-identical", edit(3, func(r *ChaosRow) { r.Mismatched, r.BitIdentical = 1, false }), false},
		{"overload p99 at the SLO", edit(4, func(r *ChaosRow) { r.WallP99NS = 25e6 }), false},
		{"hedged overload alone is held to the SLO", edit(5, func(r *ChaosRow) { r.WallP99NS = 30e6 })[5:], false},
		{"no overload cell", good()[:4], false},
	} {
		res := ChaosResult{Rows: tc.rows, Engines: 3}
		if err := res.Check(); (err == nil) != tc.ok {
			t.Errorf("%s: Check() = %v, want pass=%v", tc.name, err, tc.ok)
		}
	}
}
