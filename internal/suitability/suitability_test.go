package suitability

import (
	"testing"

	"cimrev/internal/workloads"
)

func TestTable2MatchesPaper(t *testing.T) {
	results, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 14 {
		t.Fatalf("Table2 produced %d rows, want 14", len(results))
	}
	for _, r := range results {
		if !r.Agrees() {
			t.Errorf("%-28s measured %v (speedup %.2fx) but paper says %v",
				r.Class, r.Measured, r.Speedup, r.Paper)
		}
	}
}

func TestHighClassesAlsoWinOnEnergy(t *testing.T) {
	results, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Measured == RatingHigh && r.EnergyX < 1 {
			t.Errorf("%v rated high but costs more energy (%.2fx)", r.Class, r.EnergyX)
		}
	}
}

func TestScoreScaleInvariantRatings(t *testing.T) {
	// Ratings should be stable across a 10x scale range: the model is
	// ratio-driven, not magnitude-driven.
	for _, c := range workloads.Classes() {
		small, err := Score(c, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		large, err := Score(c, 5.0)
		if err != nil {
			t.Fatal(err)
		}
		if small.Measured != large.Measured {
			t.Errorf("%v rating unstable across scale: %v vs %v", c, small.Measured, large.Measured)
		}
	}
}

func TestScoreValidation(t *testing.T) {
	if _, err := Score(workloads.KVS, 0); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := Score(workloads.Class(99), 1); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestCostModelsPositive(t *testing.T) {
	for _, c := range workloads.Classes() {
		k, err := c.Kernel(1)
		if err != nil {
			t.Fatal(err)
		}
		cim, err := CIMCost(k)
		if err != nil {
			t.Fatal(err)
		}
		if cim.LatencyPS <= 0 || cim.EnergyPJ <= 0 {
			t.Errorf("%v: degenerate CIM cost %v", c, cim)
		}
	}
}

func TestCostValidation(t *testing.T) {
	// Score prices a class's kernel through CIMCost, which validates it
	// before either side is priced.
	bad := workloads.Kernel{Flops: -1}
	if _, err := CIMCost(bad); err == nil {
		t.Error("invalid kernel accepted by CIMCost")
	}
}

func TestRatingStrings(t *testing.T) {
	if RatingLow.String() != "low" || RatingMedium.String() != "medium" || RatingHigh.String() != "high" {
		t.Error("rating strings wrong")
	}
}

func TestMVMFracDrivesBenefit(t *testing.T) {
	// Sensitivity: raising MVMFrac on an otherwise identical kernel must
	// not slow CIM down.
	k, err := workloads.Scientific.Kernel(1)
	if err != nil {
		t.Fatal(err)
	}
	low := k
	low.MVMFrac = 0.1
	high := k
	high.MVMFrac = 0.9
	cl, err := CIMCost(low)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := CIMCost(high)
	if err != nil {
		t.Fatal(err)
	}
	if ch.LatencyPS >= cl.LatencyPS {
		t.Errorf("higher MVMFrac did not speed up CIM: %d vs %d", ch.LatencyPS, cl.LatencyPS)
	}
}

func TestCommunicationHurtsCIM(t *testing.T) {
	k, err := workloads.GraphProblems.Kernel(1)
	if err != nil {
		t.Fatal(err)
	}
	quiet := k
	quiet.Rounds = 10
	chatty := k
	chatty.Rounds = 1e7
	cq, err := CIMCost(quiet)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := CIMCost(chatty)
	if err != nil {
		t.Fatal(err)
	}
	if cc.LatencyPS <= cq.LatencyPS {
		t.Error("communication rounds did not slow CIM")
	}
}
