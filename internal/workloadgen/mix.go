package workloadgen

import (
	"fmt"

	"cimrev/internal/noise"
)

// Class is one request class in a traffic mix: what a request of this
// class asks the serving tier to do — how many inputs it fans out into —
// and how often it comes.
type Class struct {
	// Name labels the class in traces, bench lines, and reports.
	Name string
	// Batch is the client-side fan-out: a batch-k request submits k
	// inputs and completes when all k answers are back (1 ..
	// MaxClassBatch).
	Batch int
	// Weight is the class's relative frequency in the mix (> 0).
	Weight float64
}

// MaxClassBatch bounds Class.Batch: the elements of request seq own the
// noise keys seq*MaxClassBatch .. seq*MaxClassBatch + MaxClassBatch-1
// (Request.ElementKey), so no two requests of a drive share a key.
const MaxClassBatch = 8

// Validate reports whether the class is well-formed.
func (c Class) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("workloadgen: class needs a name")
	case c.Batch < 1 || c.Batch > MaxClassBatch:
		return fmt.Errorf("workloadgen: class %q batch must be in [1, %d], got %d", c.Name, MaxClassBatch, c.Batch)
	case c.Weight <= 0:
		return fmt.Errorf("workloadgen: class %q weight must be > 0, got %g", c.Name, c.Weight)
	}
	return nil
}

// Picker assigns a request class to every arrival index. Pick(i) is a
// pure function of (picker state, i) — bit-identical across runs and
// evaluation orders, like Arrivals.Gap.
type Picker interface {
	Pick(i uint64) Class
}

// Mix is a weighted request-class mix keyed by the counter-based noise
// source: the class of request i is a pure function of (seed, i). The
// zero value is invalid; construct with NewMix.
type Mix struct {
	src     noise.Source
	classes []Class
	cum     []float64 // cumulative weights
	total   float64
}

// NewMix validates the classes and returns a mix keyed by seed. Class
// names must be unique — traces record classes by name and must resolve
// them unambiguously on replay.
func NewMix(seed int64, classes ...Class) (Mix, error) {
	if len(classes) == 0 {
		return Mix{}, fmt.Errorf("workloadgen: mix needs at least one class")
	}
	seen := make(map[string]bool, len(classes))
	cum := make([]float64, len(classes))
	total := 0.0
	for i, c := range classes {
		if err := c.Validate(); err != nil {
			return Mix{}, err
		}
		if seen[c.Name] {
			return Mix{}, fmt.Errorf("workloadgen: duplicate class name %q", c.Name)
		}
		seen[c.Name] = true
		total += c.Weight
		cum[i] = total
	}
	cs := make([]Class, len(classes))
	copy(cs, classes)
	return Mix{src: noise.NewSource(seed).Derive(2), classes: cs, cum: cum, total: total}, nil
}

// Pick returns the class of request i: a weighted draw from the counter
// stream for i.
func (m Mix) Pick(i uint64) Class {
	u := m.src.Float64(i) * m.total
	for j, c := range m.cum {
		if u < c {
			return m.classes[j]
		}
	}
	return m.classes[len(m.classes)-1]
}

// Classes returns the mix's classes in declaration order.
func (m Mix) Classes() []Class {
	out := make([]Class, len(m.classes))
	copy(out, m.classes)
	return out
}

// ByName resolves a class name recorded in a trace back to its class.
func (m Mix) ByName(name string) (Class, error) {
	for _, c := range m.classes {
		if c.Name == name {
			return c, nil
		}
	}
	return Class{}, fmt.Errorf("workloadgen: mix has no class %q", name)
}

// DefaultMix is the reference serving mix the capacity docs describe:
// mostly interactive batch-1 inference, a slice of bulk batch-8
// inference, and a slice of analytic scans.
func DefaultMix(seed int64) Mix {
	m, err := NewMix(seed,
		Class{Name: "nn-b1", Batch: 1, Weight: 0.70},
		Class{Name: "nn-b8", Batch: 8, Weight: 0.20},
		Class{Name: "analytics-b1", Batch: 1, Weight: 0.10},
	)
	if err != nil {
		// The classes above are compile-time constants; a failure is a
		// programming error, not an input error.
		panic(err)
	}
	return m
}

// singleClass is the implicit class of a mix-less drive: batch-1
// reference-size inference.
var singleClass = Class{Name: "default", Batch: 1, Weight: 1}
