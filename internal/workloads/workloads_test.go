package workloads

import (
	"strings"
	"testing"
)

func TestClassesComplete(t *testing.T) {
	cs := Classes()
	if len(cs) != 14 {
		t.Fatalf("Classes = %d, want 14 (Table 2 rows)", len(cs))
	}
	seen := make(map[Class]bool)
	for _, c := range cs {
		if seen[c] {
			t.Errorf("duplicate class %v", c)
		}
		seen[c] = true
	}
}

func TestClassStringsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, c := range Classes() {
		s := c.String()
		if s == "" || strings.HasPrefix(s, "class(") {
			t.Errorf("class %d has no name", c)
		}
		if seen[s] {
			t.Errorf("duplicate class name %q", s)
		}
		seen[s] = true
	}
	if !strings.HasPrefix(Class(99).String(), "class(") {
		t.Error("unknown class string")
	}
}

func TestTraitsPopulated(t *testing.T) {
	for _, c := range Classes() {
		tr := c.Traits()
		for i, l := range []Level{tr.Compute, tr.DataSize, tr.PaperCIM} {
			if l < Low || l > High {
				t.Errorf("%v trait %d = %v out of range", c, i, l)
			}
		}
	}
	if got := (Class(99)).Traits(); got != (Traits{}) {
		t.Error("unknown class traits not empty")
	}
}

func TestPaperCIMColumn(t *testing.T) {
	// The exact verdicts of Table 2's CIM column.
	want := map[Class]Level{
		MachineLearning:   High,
		NeuralNetworks:    High,
		GraphProblems:     High,
		BayesianInference: Low,
		MarkovChain:       Low,
		KVS:               Medium,
		DBAnalytics:       High,
		DBTransactions:    Medium,
		Search:            Low,
		Optimization:      Low,
		Scientific:        Low,
		FEM:               Medium,
		Collaborative:     Low,
		SignalProcessing:  Low,
	}
	for c, w := range want {
		if got := c.Traits().PaperCIM; got != w {
			t.Errorf("%v paper verdict = %v, want %v", c, got, w)
		}
	}
}

func TestKernelsValid(t *testing.T) {
	for _, c := range Classes() {
		k, err := c.Kernel(1)
		if err != nil {
			t.Errorf("%v: %v", c, err)
			continue
		}
		if err := k.Validate(); err != nil {
			t.Errorf("%v kernel invalid: %v", c, err)
		}
	}
}

func TestKernelScalesLinearly(t *testing.T) {
	for _, c := range Classes() {
		k1, err := c.Kernel(1)
		if err != nil {
			t.Fatal(err)
		}
		k3, err := c.Kernel(3)
		if err != nil {
			t.Fatal(err)
		}
		if k3.Flops != 3*k1.Flops {
			t.Errorf("%v flops do not scale: %g vs %g", c, k3.Flops, k1.Flops)
		}
		if k3.DataBytes != 3*k1.DataBytes {
			t.Errorf("%v bytes do not scale: %g vs %g", c, k3.DataBytes, k1.DataBytes)
		}
		if k3.Rounds != 3*k1.Rounds {
			t.Errorf("%v rounds do not scale", c)
		}
		// Fractions are scale-free.
		if k3.MVMFrac != k1.MVMFrac || k3.Parallelism != k1.Parallelism {
			t.Errorf("%v fractions changed with scale", c)
		}
	}
}

func TestKernelErrors(t *testing.T) {
	if _, err := MachineLearning.Kernel(0); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := Class(99).Kernel(1); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestKernelValidateCatchesBadFields(t *testing.T) {
	good, err := KVS.Kernel(1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []func(*Kernel){
		func(k *Kernel) { k.Flops = 0 },
		func(k *Kernel) { k.DataBytes = -1 },
		func(k *Kernel) { k.Rounds = -1 },
		func(k *Kernel) { k.MVMFrac = 1.5 },
		func(k *Kernel) { k.StationaryFrac = -0.1 },
		func(k *Kernel) { k.Parallelism = 0 },
		func(k *Kernel) { k.Parallelism = 1.2 },
	}
	for i, mutate := range cases {
		k := good
		mutate(&k)
		if err := k.Validate(); err == nil {
			t.Errorf("case %d: invalid kernel accepted", i)
		}
	}
}

func TestHighCIMClassesShareDataflowShape(t *testing.T) {
	// Classes the paper rates high must have substantial in-memory
	// mappability; low classes must not.
	for _, c := range Classes() {
		k, err := c.Kernel(1)
		if err != nil {
			t.Fatal(err)
		}
		switch c.Traits().PaperCIM {
		case High:
			if k.MVMFrac < 0.5 {
				t.Errorf("%v rated high but MVMFrac %g < 0.5", c, k.MVMFrac)
			}
		case Low:
			if k.MVMFrac > 0.6 {
				t.Errorf("%v rated low but MVMFrac %g > 0.6", c, k.MVMFrac)
			}
		}
	}
}

func TestLevelString(t *testing.T) {
	if Low.String() != "low" || Medium.String() != "medium" || High.String() != "high" {
		t.Error("level strings wrong")
	}
	if !strings.HasPrefix(Level(9).String(), "level(") {
		t.Error("unknown level string")
	}
}
