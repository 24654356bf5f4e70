package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestCapacitySweep pins the sweep's acceptance bar on a two-rung ladder
// that straddles the knee by a wide margin: the low rung is rated, the
// top rung is overloaded, and the closed-loop comparison row looks
// healthy at an offered rate the open loop proves unservable — the
// coordinated-omission demonstration in miniature.
func TestCapacitySweep(t *testing.T) {
	const low, high = 2000, 200_000
	res, err := CapacitySweep(CapacityConfig{
		Engines:  []int{1},
		RatesRPS: []float64{low, high},
		Requests: 500,
		SLO:      25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 || len(res.Rated) != 1 || len(res.Compare) != 2 {
		t.Fatalf("got %d cells, %d rated, %d compare rows; want 2/1/2",
			len(res.Cells), len(res.Rated), len(res.Compare))
	}
	slo := float64(res.SLO.Nanoseconds())
	lowCell, topCell := res.Cells[0], res.Cells[1]
	if !lowCell.Pass || lowCell.Shed != 0 || lowCell.Lost != 0 {
		t.Errorf("low-rate cell should pass cleanly: %+v", lowCell)
	}
	if topCell.Pass {
		t.Errorf("cell at %d rps passed; the ladder top must overload the fleet", high)
	}
	if topCell.Shed == 0 && topCell.P99NS <= slo {
		t.Errorf("overloaded cell shows no distress: %+v", topCell)
	}
	if topCell.Lost != 0 {
		t.Errorf("overload lost %d requests; excess load must shed, not fail", topCell.Lost)
	}
	if rated := res.Rated[0]; rated.RatedRPS != low {
		t.Errorf("rated %g rps, want the passing prefix top %d", rated.RatedRPS, low)
	}

	// The comparison pair: the closed loop self-throttles below the
	// offered rate without shedding — it cannot see the overload the open
	// loop exposes.
	var closed, open *CapacityCompareRow
	for i := range res.Compare {
		switch res.Compare[i].Mode {
		case "closed":
			closed = &res.Compare[i]
		case "open":
			open = &res.Compare[i]
		}
	}
	if closed == nil || open == nil {
		t.Fatalf("compare rows missing a mode: %+v", res.Compare)
	}
	if closed.Shed != 0 || closed.Lost != 0 {
		t.Errorf("closed loop shed/lost under overload: %+v", closed)
	}
	if closed.AchievedRPS >= closed.OfferedRPS*0.9 {
		t.Errorf("closed loop achieved %.0f of %.0f offered; the test rate should be unachievable",
			closed.AchievedRPS, closed.OfferedRPS)
	}
	if open.Shed == 0 && open.P99NS <= slo {
		t.Errorf("open loop shows no distress at the same offered rate: %+v", open)
	}

	text := res.Format()
	for _, want := range []string{"Rated capacity", "Closed vs open", "pass", "FAIL"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format missing %q:\n%s", want, text)
		}
	}
	if err := res.Check(); err != nil {
		t.Errorf("Check() = %v", err)
	}
}

// TestCapacityCheck pins the capacity gate predicate by predicate on
// struct literals: per engine count the passing cells are a prefix of the
// ascending ladder, and every engine count rates at some rung.
func TestCapacityCheck(t *testing.T) {
	ladder := func(k int, pass ...bool) []CapacityCell {
		rates := []float64{1000, 4000, 64000}
		cells := make([]CapacityCell, len(pass))
		for i, p := range pass {
			cells[i] = CapacityCell{Engines: k, RateRPS: rates[i], Pass: p}
		}
		return cells
	}
	rated := func(rps ...float64) []CapacityRated {
		rows := make([]CapacityRated, len(rps))
		for i, r := range rps {
			rows[i] = CapacityRated{Engines: i + 1, RatedRPS: r}
		}
		return rows
	}
	for _, tc := range []struct {
		name string
		res  CapacityResult
		ok   bool
	}{
		{"monotone knee, both sizes rate", CapacityResult{
			Cells: append(ladder(1, true, true, false), ladder(2, true, true, false)...),
			Rated: rated(4000, 4000)}, true},
		{"ladder fully absorbed", CapacityResult{
			Cells: ladder(1, true, true, true), Rated: rated(64000)}, true},
		{"pass above a failure", CapacityResult{
			Cells: append(ladder(1, true, true, false), ladder(2, true, false, true)...),
			Rated: rated(4000, 1000)}, false},
		{"bottom rung fails, nothing rated", CapacityResult{
			Cells: append(ladder(1, true, true, false), ladder(2, false, false, false)...),
			Rated: rated(4000, 0)}, false},
	} {
		if err := tc.res.Check(); (err == nil) != tc.ok {
			t.Errorf("%s: Check() = %v, want pass=%v", tc.name, err, tc.ok)
		}
	}
}

// TestCapacityConfigValidation: degenerate grids are rejected.
func TestCapacityConfigValidation(t *testing.T) {
	for name, cfg := range map[string]CapacityConfig{
		"engines 0":        {Engines: []int{0}},
		"rate 0":           {RatesRPS: []float64{0, 100}},
		"rates descending": {RatesRPS: []float64{200, 100}},
		"requests < 0":     {Requests: -1},
		"slo < 0":          {SLO: -time.Second},
	} {
		if _, err := CapacitySweep(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
