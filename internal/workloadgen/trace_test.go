package workloadgen

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestTraceRecordReplayRoundTrip: record -> JSON -> read -> replay
// reproduces the original schedule and class sequence exactly, bit for
// bit — the trace is a complete, portable description of the offered
// load.
func TestTraceRecordReplayRoundTrip(t *testing.T) {
	p, err := NewPoisson(71, 5000)
	if err != nil {
		t.Fatal(err)
	}
	mix := DefaultMix(71)
	const n = 2048
	tr, err := Record(p, mix, n)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Source != "poisson" || back.RateRPS != 5000 {
		t.Errorf("metadata round-trip: source %q rate %g", back.Source, back.RateRPS)
	}

	rep, err := back.Replay()
	if err != nil {
		t.Fatal(err)
	}
	// The replayed schedule is the recorded schedule: absolute times
	// (prefix sums of replayed gaps) equal the recorded offsets exactly.
	var at time.Duration
	for i := 0; i < n; i++ {
		at += rep.Gap(uint64(i))
		if int64(at) != tr.TimesNS[i] {
			t.Fatalf("replayed time %d = %v, recorded %v", i, at, time.Duration(tr.TimesNS[i]))
		}
	}
	// And the recorded class sequence resolves and replays exactly.
	pick, err := rep.Picker(mix)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if got, want := pick.Pick(i).Name, mix.Pick(i).Name; got != want {
			t.Fatalf("replayed class %d = %q, recorded %q", i, got, want)
		}
	}
}

// TestTraceReplayCycles: past the recorded window the schedule repeats
// with a constant period and never produces a negative gap; the class
// sequence cycles too.
func TestTraceReplayCycles(t *testing.T) {
	p, err := NewPoisson(72, 1000)
	if err != nil {
		t.Fatal(err)
	}
	mix := DefaultMix(72)
	const n = 64
	tr, err := Record(p, mix, n)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tr.Replay()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5*n; i++ {
		if g := rep.Gap(i); g < 0 {
			t.Fatalf("gap %d = %v, want >= 0", i, g)
		}
	}
	pick, err := rep.Picker(mix)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if pick.Pick(i).Name != pick.Pick(i+2*n).Name {
			t.Fatalf("class sequence does not cycle at %d", i)
		}
	}
	if rep.Rate() != 1000 {
		t.Errorf("replay rate %g, want recorded nominal 1000", rep.Rate())
	}
}

// TestTraceValidation: malformed traces are rejected on read and replay.
func TestTraceValidation(t *testing.T) {
	for name, tr := range map[string]*Trace{
		"empty":          {Source: "poisson"},
		"decreasing":     {TimesNS: []int64{5, 3}},
		"class mismatch": {TimesNS: []int64{1, 2}, Classes: []string{"a"}},
	} {
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate passed", name)
		}
		if _, err := tr.Replay(); err == nil {
			t.Errorf("%s: Replay passed", name)
		}
	}
	if _, err := ReadTrace(strings.NewReader(`{"times_ns":[9,1]}`)); err == nil {
		t.Error("ReadTrace accepted decreasing times")
	}
	if _, err := ReadTrace(strings.NewReader(`not json`)); err == nil {
		t.Error("ReadTrace accepted garbage")
	}
	// Unknown class names fail at Picker resolution, not silently.
	tr := &Trace{TimesNS: []int64{1, 2}, Classes: []string{"nn-b1", "nope"}}
	rep, err := tr.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Picker(DefaultMix(1)); err == nil {
		t.Error("Picker resolved an unknown class name")
	}
}

// TestMixDeterminismAndWeights: Pick(i) is a pure function of (seed, i),
// differs across seeds, and the long-run class shares track the weights.
func TestMixDeterminismAndWeights(t *testing.T) {
	m1, m2, m3 := DefaultMix(5), DefaultMix(5), DefaultMix(6)
	const n = 20000
	counts := map[string]int{}
	diverged := false
	for i := uint64(0); i < n; i++ {
		c := m1.Pick(i)
		if c != m2.Pick(i) {
			t.Fatalf("same-seed mixes diverge at %d", i)
		}
		if c != m3.Pick(i) {
			diverged = true
		}
		counts[c.Name]++
	}
	if !diverged {
		t.Error("different seeds produced the same class sequence")
	}
	for _, c := range m1.Classes() {
		got := float64(counts[c.Name]) / n
		want := c.Weight // DefaultMix weights sum to 1
		if got < want-0.03 || got > want+0.03 {
			t.Errorf("class %s share %.3f, want %.2f +/- 0.03", c.Name, got, want)
		}
	}
}

// TestMixValidation: bad classes and duplicate names are rejected.
func TestMixValidation(t *testing.T) {
	good := Class{Name: "a", Batch: 1, Weight: 1}
	if _, err := NewMix(1); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := NewMix(1, good, good); err == nil {
		t.Error("duplicate class name accepted")
	}
	for _, bad := range []Class{
		{Batch: 1, Weight: 1},
		{Name: "b", Batch: 0, Weight: 1},
		{Name: "b", Batch: MaxClassBatch + 1, Weight: 1},
		{Name: "b", Batch: 1, Weight: 0},
	} {
		if _, err := NewMix(1, bad); err == nil {
			t.Errorf("invalid class accepted: %+v", bad)
		}
	}
	if _, err := DefaultMix(1).ByName("missing"); err == nil {
		t.Error("ByName resolved a missing class")
	}
}
