package chaos

import (
	"errors"
	"testing"
	"time"

	"cimrev/internal/energy"
	"cimrev/internal/serve"
)

// fakeBackend counts batches and returns a recognizable echo.
type fakeBackend struct{ calls int }

func (f *fakeBackend) InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error) {
	f.calls++
	return inputs, energy.Zero, nil
}

// TestWrapDisabledIsIdentity pins the zero-overhead contract: an inert
// injector's Wrap returns the backend itself — same pointer, no wrapper
// allocation — so disabled chaos cannot perturb the serving hot path.
func TestWrapDisabledIsIdentity(t *testing.T) {
	be := &fakeBackend{}
	for _, inj := range []*Injector{
		nil,
		New(Plan{SlowEngine: -1, CrashEngine: -1}),
	} {
		if got := inj.Wrap(0, be); got != serve.Backend(be) {
			t.Errorf("inert Wrap returned %T, want the backend itself", got)
		}
	}
	inj := New(Plan{SlowEngine: -1, CrashEngine: -1})
	if allocs := testing.AllocsPerRun(100, func() { inj.Wrap(0, be) }); allocs != 0 {
		t.Errorf("inert Wrap allocates %.0f objects per call, want 0", allocs)
	}
}

// TestCrashWindow: the crash engine fails batches with serve.ErrUnhealthy
// exactly while its step counter is inside [CrashStart, CrashEnd), and
// serves normally before and after — crash-and-rejoin.
func TestCrashWindow(t *testing.T) {
	be := &fakeBackend{}
	inj := New(Plan{Seed: 1, SlowEngine: -1, CrashEngine: 0, CrashStart: 2, CrashEnd: 4})
	w := inj.Wrap(0, be)
	in := [][]float64{{1}}
	for step := 0; step < 6; step++ {
		_, _, err := w.InferBatch(in)
		dark := step >= 2 && step < 4
		if dark && !errors.Is(err, serve.ErrUnhealthy) {
			t.Errorf("step %d: err = %v, want ErrUnhealthy inside the dark window", step, err)
		}
		if !dark && err != nil {
			t.Errorf("step %d: err = %v, want nil outside the dark window", step, err)
		}
	}
	if be.calls != 4 {
		t.Errorf("backend saw %d batches, want 4 (crashed batches must not reach it)", be.calls)
	}

	// A different engine wrapped by the same injector never crashes.
	other := inj.Wrap(1, &fakeBackend{})
	for step := 0; step < 6; step++ {
		if _, _, err := other.InferBatch(in); err != nil {
			t.Fatalf("engine 1 step %d: %v, want nil (crash targets engine 0)", step, err)
		}
	}
}

// TestStragglerSleeps: the slow engine's batches take at least SlowDelay;
// other engines are untouched.
func TestStragglerSleeps(t *testing.T) {
	const delay = 3 * time.Millisecond
	inj := New(Plan{Seed: 1, SlowEngine: 0, SlowDelay: delay, CrashEngine: -1})
	slow := inj.Wrap(0, &fakeBackend{})
	in := [][]float64{{1}}
	start := time.Now()
	if _, _, err := slow.InferBatch(in); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < delay {
		t.Errorf("straggler batch took %v, want >= %v", took, delay)
	}
}

// TestSpikesAreDeterministic: with SpikeProb strictly between 0 and 1, the
// set of spiked steps is a pure function of (seed, engine, step) — two
// injectors with the same plan spike the same steps, and a different seed
// spikes different ones.
func TestSpikesAreDeterministic(t *testing.T) {
	plan := Plan{Seed: 7, SlowEngine: -1, CrashEngine: -1, SpikeProb: 0.3, SpikeDelay: time.Nanosecond}
	spikes := func(p Plan) []bool {
		inj := New(p)
		w := inj.Wrap(0, &fakeBackend{}).(*wrapped)
		out := make([]bool, 64)
		for step := uint64(0); step < 64; step++ {
			out[step] = w.eng.Float64(step) < p.SpikeProb
		}
		return out
	}
	a, b := spikes(plan), spikes(plan)
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: spike decision differs between identical plans", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Errorf("spike draw degenerate: %d/%d steps spiked at p=0.3", hits, len(a))
	}
	plan2 := plan
	plan2.Seed = 8
	c := spikes(plan2)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("changing the seed did not change the spike pattern")
	}
}

// TestScenarioPlan covers the catalog: every named scenario parses, the
// fault-free one is inert, unknown names error, and scale stretches delays.
func TestScenarioPlan(t *testing.T) {
	for _, name := range ScenarioNames() {
		p, err := ScenarioPlan(name, 1, 1)
		if err != nil {
			t.Fatalf("ScenarioPlan(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("ScenarioPlan(%q).Name = %q", name, p.Name)
		}
		if name == "none" && p.Enabled() {
			t.Error(`scenario "none" is not inert`)
		}
		if name != "none" && !p.Enabled() {
			t.Errorf("scenario %q injects nothing", name)
		}
	}
	if p, err := ScenarioPlan("", 1, 1); err != nil || p.Enabled() || p.Name != "none" {
		t.Errorf(`ScenarioPlan("") = %+v, %v; want inert "none"`, p, err)
	}
	if _, err := ScenarioPlan("meteor", 1, 1); err == nil {
		t.Error("unknown scenario did not error")
	}
	p1, _ := ScenarioPlan("straggler", 1, 1)
	p2, _ := ScenarioPlan("straggler", 1, 2.5)
	if p2.SlowDelay != time.Duration(2.5*float64(p1.SlowDelay)) {
		t.Errorf("scale 2.5: SlowDelay %v vs base %v", p2.SlowDelay, p1.SlowDelay)
	}
}

// TestReprogramDelay: only an active plan with ReprogramHang set stalls
// reprograms; nil and inert injectors return 0.
func TestReprogramDelay(t *testing.T) {
	var nilInj *Injector
	if d := nilInj.ReprogramDelay(); d != 0 {
		t.Errorf("nil injector ReprogramDelay = %v", d)
	}
	p, _ := ScenarioPlan("crash", 1, 1)
	if d := New(p).ReprogramDelay(); d != time.Millisecond {
		t.Errorf("crash scenario ReprogramDelay = %v, want 1ms", d)
	}
	if d := New(Plan{SlowEngine: -1, CrashEngine: -1}).ReprogramDelay(); d != 0 {
		t.Errorf("inert injector ReprogramDelay = %v", d)
	}
}
