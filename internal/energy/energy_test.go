package energy

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCostSeq(t *testing.T) {
	a := Cost{LatencyPS: 10, EnergyPJ: 1.5}
	b := Cost{LatencyPS: 20, EnergyPJ: 2.5}
	got := a.Seq(b)
	want := Cost{LatencyPS: 30, EnergyPJ: 4.0}
	if got != want {
		t.Errorf("Seq = %+v, want %+v", got, want)
	}
}

func TestCostSeqMultiple(t *testing.T) {
	a := Cost{LatencyPS: 1, EnergyPJ: 1}
	got := a.Seq(a, a, a)
	if got.LatencyPS != 4 || got.EnergyPJ != 4 {
		t.Errorf("Seq x4 = %+v, want {4 4}", got)
	}
}

func TestCostPar(t *testing.T) {
	a := Cost{LatencyPS: 10, EnergyPJ: 1}
	b := Cost{LatencyPS: 25, EnergyPJ: 2}
	c := Cost{LatencyPS: 5, EnergyPJ: 3}
	got := a.Par(b, c)
	if got.LatencyPS != 25 {
		t.Errorf("Par latency = %d, want 25 (max)", got.LatencyPS)
	}
	if got.EnergyPJ != 6 {
		t.Errorf("Par energy = %g, want 6 (sum)", got.EnergyPJ)
	}
}

func TestCostScale(t *testing.T) {
	c := Cost{LatencyPS: 3, EnergyPJ: 0.5}
	got := c.Scale(4)
	if got.LatencyPS != 12 || got.EnergyPJ != 2 {
		t.Errorf("Scale(4) = %+v, want {12 2}", got)
	}
}

func TestCostScaleZero(t *testing.T) {
	c := Cost{LatencyPS: 3, EnergyPJ: 0.5}
	if got := c.Scale(0); got != Zero {
		t.Errorf("Scale(0) = %+v, want zero", got)
	}
}

func TestCostPower(t *testing.T) {
	// 1 nJ over 1 ns is 1 W.
	c := Cost{LatencyPS: 1_000, EnergyPJ: 1_000}
	if got := c.Power(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("Power = %g, want 1.0 W", got)
	}
}

func TestCostPowerZeroLatency(t *testing.T) {
	c := Cost{LatencyPS: 0, EnergyPJ: 5}
	if got := c.Power(); got != 0 {
		t.Errorf("Power with zero latency = %g, want 0", got)
	}
}

func TestCostUnits(t *testing.T) {
	c := Cost{LatencyPS: 2_000_000, EnergyPJ: 3_000}
	if got := c.Latency(); math.Abs(got-2e-6) > 1e-18 {
		t.Errorf("Latency = %g, want 2e-6 s", got)
	}
	if got := c.Energy(); math.Abs(got-3e-9) > 1e-21 {
		t.Errorf("Energy = %g, want 3e-9 J", got)
	}
}

func TestFormatLatency(t *testing.T) {
	tests := []struct {
		ps   int64
		want string
	}{
		{500, "500ps"},
		{1_500, "1.5ns"},
		{2_500_000, "2.5us"},
		{3_000_000_000, "3ms"},
		{4_000_000_000_000, "4s"},
	}
	for _, tt := range tests {
		if got := FormatLatency(tt.ps); got != tt.want {
			t.Errorf("FormatLatency(%d) = %q, want %q", tt.ps, got, tt.want)
		}
	}
}

func TestFormatEnergy(t *testing.T) {
	tests := []struct {
		pj   float64
		want string
	}{
		{0.5, "0.5pJ"},
		{1_500, "1.5nJ"},
		{2_500_000, "2.5uJ"},
		{3_000_000_000, "3mJ"},
		{4_000_000_000_000, "4J"},
	}
	for _, tt := range tests {
		if got := FormatEnergy(tt.pj); got != tt.want {
			t.Errorf("FormatEnergy(%g) = %q, want %q", tt.pj, got, tt.want)
		}
	}
}

func TestPicosecondsFromSeconds(t *testing.T) {
	if got := PicosecondsFromSeconds(1e-9); got != 1000 {
		t.Errorf("1ns = %d ps, want 1000", got)
	}
	if got := PicosecondsFromSeconds(-1); got != 0 {
		t.Errorf("negative seconds = %d, want 0 (clamped)", got)
	}
	if got := PicosecondsFromSeconds(1e20); got != math.MaxInt64 {
		t.Errorf("huge seconds = %d, want MaxInt64 (saturated)", got)
	}
}

// Property: Seq is associative and Zero is its identity.
func TestCostSeqProperties(t *testing.T) {
	assoc := func(a, b, c Cost) bool {
		return a.Seq(b).Seq(c) == a.Seq(b.Seq(c))
	}
	if err := quick.Check(assoc, quickCfg()); err != nil {
		t.Errorf("Seq not associative: %v", err)
	}
	ident := func(a Cost) bool {
		return a.Seq(Zero) == a && Zero.Seq(a) == a
	}
	if err := quick.Check(ident, quickCfg()); err != nil {
		t.Errorf("Zero not Seq identity: %v", err)
	}
}

// Property: Par is commutative in latency and energy, and Par latency is
// never below either operand's latency.
func TestCostParProperties(t *testing.T) {
	comm := func(a, b Cost) bool {
		x, y := a.Par(b), b.Par(a)
		return x.LatencyPS == y.LatencyPS && math.Abs(x.EnergyPJ-y.EnergyPJ) < 1e-6
	}
	if err := quick.Check(comm, quickCfg()); err != nil {
		t.Errorf("Par not commutative: %v", err)
	}
	dominates := func(a, b Cost) bool {
		p := a.Par(b)
		return p.LatencyPS >= a.LatencyPS && p.LatencyPS >= b.LatencyPS
	}
	if err := quick.Check(dominates, quickCfg()); err != nil {
		t.Errorf("Par latency below operand: %v", err)
	}
}

// quickCfg bounds generated costs so energy sums stay finite and exactly
// comparable (small integers avoid float rounding in associativity checks).
func quickCfg() *quick.Config {
	return &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(Cost{
					LatencyPS: r.Int63n(1 << 30),
					EnergyPJ:  float64(r.Int63n(1 << 20)),
				})
			}
		},
	}
}

func TestLedgerChargeAndTotal(t *testing.T) {
	l := NewLedger()
	l.Charge("compute", Cost{LatencyPS: 10, EnergyPJ: 1})
	l.Charge("memory", Cost{LatencyPS: 5, EnergyPJ: 2})
	total := l.Total()
	if total.LatencyPS != 15 {
		t.Errorf("total latency = %d, want 15", total.LatencyPS)
	}
	if total.EnergyPJ != 3 {
		t.Errorf("total energy = %g, want 3", total.EnergyPJ)
	}
	if got := l.Category("compute"); got.EnergyPJ != 1 {
		t.Errorf("compute category = %+v", got)
	}
}

func TestLedgerTotalFoldsInCategoryOrder(t *testing.T) {
	// Float addition is not associative: folded in map order these four
	// energies sum to one of two values, so Total must fold in the sorted
	// order Categories and Report use.
	l := NewLedger()
	names := []string{"compute", "network", "program", "reconfigure"}
	energies := []float64{0.1, 0.2, 0.3, 1e-17}
	want := Zero
	for i, name := range names {
		c := Cost{LatencyPS: int64(i + 1), EnergyPJ: energies[i]}
		l.Charge(name, c)
		want = want.Seq(c)
	}
	for i := 0; i < 200; i++ {
		if got := l.Total(); got != want {
			t.Fatalf("call %d: Total = %d ps / %.17g pJ, want the sorted fold's %d ps / %.17g pJ",
				i, got.LatencyPS, got.EnergyPJ, want.LatencyPS, want.EnergyPJ)
		}
	}
}

func TestLedgerCategoriesSorted(t *testing.T) {
	l := NewLedger()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		l.Charge(name, Cost{LatencyPS: 1})
	}
	got := l.Categories()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Categories = %v, want %v", got, want)
		}
	}
}

func TestLedgerConcurrent(t *testing.T) {
	l := NewLedger()
	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Charge("shared", Cost{LatencyPS: 1, EnergyPJ: 1})
		}()
	}
	wg.Wait()
	if got := l.Category("shared"); got.LatencyPS != n || got.EnergyPJ != n {
		t.Errorf("concurrent charges = %+v, want {%d %d}", got, n, n)
	}
}

func TestLedgerReport(t *testing.T) {
	l := NewLedger()
	l.Charge("compute", Cost{LatencyPS: 1_000, EnergyPJ: 10})
	rep := l.Report()
	if !strings.Contains(rep, "compute") || !strings.Contains(rep, "TOTAL") {
		t.Errorf("Report missing sections:\n%s", rep)
	}
}
