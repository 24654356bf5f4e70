package experiments

import (
	"strings"
	"testing"
	"time"

	"cimrev/internal/metrics"
	"cimrev/internal/workloadgen"
)

// TestCapacitySweep pins the sweep's acceptance bar on a two-rung ladder
// that straddles the knee by a wide margin: the low rung is rated, the
// top rung is overloaded, and the closed-loop comparison row looks
// healthy at an offered rate the open loop proves unservable — the
// coordinated-omission demonstration in miniature. The top rung's 500
// requests are 1 ms of schedule at 500k req/s, more than one engine
// serves in that time, so the cell fails at least by the rate it did not
// carry; it is also over twice what 8 closed-loop clients reach on a
// 2-vCPU host (~200k req/s), so the closed row stays short of it.
func TestCapacitySweep(t *testing.T) {
	const low, high = 2000, 500_000
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
	// Distress is any way an overloaded cell can show it: shedding, a
	// blown p99, or a rate it did not carry.
	slo := float64(res.SLO.Nanoseconds())
	calm := func(shed int64, p99, achieved, offered float64) bool {
		return shed == 0 && p99 <= slo && achieved >= carriedShare*offered
	}
	lowCell, topCell := res.Cells[0], res.Cells[1]
	if !lowCell.Pass || lowCell.Shed != 0 || lowCell.Lost != 0 {
		t.Errorf("low-rate cell should pass cleanly: %+v", lowCell)
	}
	if topCell.Pass {
		t.Errorf("cell at %d rps passed; the ladder top must overload the fleet", high)
	}
	if calm(topCell.Shed, topCell.P99NS, topCell.AchievedRPS, topCell.RateRPS) {
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
	if calm(open.Shed, open.P99NS, open.AchievedRPS, open.OfferedRPS) {
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

// TestCapacityScore pins a cell's verdict predicate by predicate. The
// last row is a fleet still draining its queue after the last arrival:
// nothing shed and the p99 is low, but the cell served under
// carriedShare of its rate.
func TestCapacityScore(t *testing.T) {
	const rate, slo = 1000, 25 * time.Millisecond
	latency := func(ns float64) metrics.HistogramSnapshot {
		h := metrics.NewHistogram()
		h.Observe(ns)
		return h.Snapshot()
	}
	for _, tc := range []struct {
		name string
		edit func(*workloadgen.Report)
		pass bool
	}{
		{"carried", func(*workloadgen.Report) {}, true},
		{"shed", func(r *workloadgen.Report) { r.Sheds = 1 }, false},
		{"lost", func(r *workloadgen.Report) { r.Drops = 1 }, false},
		{"p99 at the SLO", func(r *workloadgen.Report) { r.Latency = latency(float64(slo)) }, false},
		{"rate not carried", func(r *workloadgen.Report) { r.AchievedRPS = 0.85 * rate }, false},
	} {
		rep := workloadgen.Report{Requests: 100, OKs: 100, Latency: latency(1e6), AchievedRPS: rate}
		tc.edit(&rep)
		if cell := capacityScore(1, rate, rep, slo); cell.Pass != tc.pass {
			t.Errorf("%s: Pass = %v, want %v (%+v)", tc.name, cell.Pass, tc.pass, cell)
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
