// Package chaos is the deterministic fault-injection layer for the serving
// fleet: it perturbs engines with the failure modes that dominate tail
// latency in production — stragglers, latency spikes, stalls, crashes, and
// reprogram hangs — without giving up the repo's reproducibility contract.
// Every injected event is a pure function of (plan seed, engine id, batch
// step), drawn from the same counter-based splitmix64 stream as the analog
// read noise (internal/noise), so a chaos run replays bit-identically:
// the same batches slow down, the same steps crash, every time.
//
// The injector attaches to a fleet engine as a backend wrapper
// (fleet.WithChaos → Injector.Wrap), outermost in the stack:
//
//	serve.Server → [chaos] → [hybrid] → serve.Breaker → serve.ShadowPair
//
// Disabled chaos is free: Wrap returns the wrapped backend itself — no
// extra interface hop, no per-call branch, zero allocations — so the
// serving hot path is untouched unless a scenario is active
// (TestWrapDisabledIsIdentity pins this).
//
// A crashed engine fails its batches with an error wrapping
// serve.ErrUnhealthy: the micro-batcher sheds the whole batch typed, the
// fleet fails the requests over to healthy engines, and — because every
// fleet request is keyed — the retried outputs are bit-identical to what
// the crashed engine would have produced. That is the mechanism behind the
// harness's zero-lost-keyed-requests SLO (docs/RESILIENCE.md).
//
// The matching open-loop load side — the deterministic Poisson burst that
// makes overload reachable (a closed-loop generator self-throttles and can
// never push the fleet past saturation) — is workloadgen.Poisson driven by
// workloadgen.Drive.
package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cimrev/internal/energy"
	"cimrev/internal/noise"
	"cimrev/internal/obs"
	"cimrev/internal/serve"
)

// Plan is one chaos scenario: which engines misbehave, how, and when.
// Engine indices refer to fleet engine IDs; -1 disables that fault. Steps
// are engine-local batch counters (the wrapper counts every batch the
// engine's flusher sends through it), so a plan is independent of
// wall-clock speed and request interleaving.
type Plan struct {
	// Name labels the scenario ("straggler", "crash", ...) for /healthz
	// and bench output.
	Name string
	// Seed keys the spike draws; derive per-run plans by varying it.
	Seed int64
	// SlowEngine is delayed by SlowDelay on every batch (-1: none) — the
	// classic straggler.
	SlowEngine int
	SlowDelay  time.Duration
	// SpikeProb injects a SpikeDelay stall on any engine's batch with this
	// probability, drawn deterministically from (Seed, engine, step).
	SpikeProb  float64
	SpikeDelay time.Duration
	// CrashEngine fails every batch with serve.ErrUnhealthy while its
	// step counter is in [CrashStart, CrashEnd) (-1: none), then serves
	// normally again — crash-and-rejoin without losing a keyed request.
	CrashEngine          int
	CrashStart, CrashEnd uint64
	// ReprogramHang stalls each engine's standby reprogram inside a
	// rolling update (fleet.RollingReprogram polls Injector.ReprogramDelay).
	ReprogramHang time.Duration
}

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool {
	return (p.SlowEngine >= 0 && p.SlowDelay > 0) ||
		(p.SpikeProb > 0 && p.SpikeDelay > 0) ||
		p.CrashEngine >= 0 ||
		p.ReprogramHang > 0
}

// ScenarioNames lists the canonical scenario catalog (cimserve -chaos,
// cimbench -exp chaos sweep these).
func ScenarioNames() []string { return []string{"none", "straggler", "crash", "overload"} }

// ScenarioPlan maps a scenario name to its canonical plan:
//
//   - "none": nothing injected (Wrap is an identity; the fault-free
//     baseline every other scenario is judged against).
//   - "straggler": engine 0 serves every batch SlowDelay late — the
//     hedging target. Delays scale with `scale` (1 = 2ms per batch).
//   - "crash": engine 0 goes dark for a window of its batch steps and
//     rejoins, and every reprogram hangs — the crash-during-rolling-
//     reprogram scenario.
//   - "overload": deterministic latency spikes on all engines; the
//     overload itself comes from the open-loop arrival burst
//     (workloadgen.Poisson).
func ScenarioPlan(name string, seed int64, scale float64) (Plan, error) {
	if scale <= 0 {
		scale = 1
	}
	d := func(base time.Duration) time.Duration { return time.Duration(float64(base) * scale) }
	p := Plan{Name: name, Seed: seed, SlowEngine: -1, CrashEngine: -1}
	switch name {
	case "none", "":
		p.Name = "none"
	case "straggler":
		p.SlowEngine = 0
		p.SlowDelay = d(2 * time.Millisecond)
	case "crash":
		p.CrashEngine = 0
		p.CrashStart = 20
		p.CrashEnd = 150
		p.ReprogramHang = d(time.Millisecond)
	case "overload":
		p.SpikeProb = 0.05
		p.SpikeDelay = d(time.Millisecond)
	default:
		return Plan{}, fmt.Errorf("chaos: unknown scenario %q (want none, straggler, crash, overload)", name)
	}
	return p, nil
}

// Injector executes a Plan against a set of wrapped engine backends. One
// injector serves a whole fleet: Wrap each engine with its fleet ID. The
// zero value and the nil injector are both fully disabled.
type Injector struct {
	plan Plan
	src  noise.Source

	// steps holds one engine-local batch counter per wrapped engine id
	// (engines can join at any id, hence a map, interned once per engine
	// at Wrap time — the hot path only touches the engine's own counter).
	mu    sync.Mutex
	steps map[int]*atomic.Uint64
}

// New builds an injector for plan. A plan that injects nothing returns a
// perfectly inert injector (Wrap is the identity).
func New(plan Plan) *Injector {
	return &Injector{
		plan:  plan,
		src:   noise.NewSource(plan.Seed),
		steps: make(map[int]*atomic.Uint64),
	}
}

// Plan returns the injector's scenario plan.
func (inj *Injector) Plan() Plan {
	if inj == nil {
		return Plan{Name: "none", SlowEngine: -1, CrashEngine: -1}
	}
	return inj.plan
}

// Active reports whether the injector actually injects faults.
func (inj *Injector) Active() bool { return inj != nil && inj.plan.Enabled() }

// ReprogramDelay returns how long engine id's standby reprogram should
// hang under this plan (0 when disabled).
func (inj *Injector) ReprogramDelay(id int) time.Duration {
	if !inj.Active() {
		return 0
	}
	return inj.plan.ReprogramHang
}

// ctxBackend / keyedBackend mirror internal/serve's optional backend
// interfaces: the wrapper must expose whichever the wrapped backend has,
// or serve.New would silently downgrade keyed requests to the unkeyed
// path and break the fleet's bit-identity contract.
type ctxBackend interface {
	InferBatchCtx(pc obs.Ctx, inputs [][]float64) ([][]float64, energy.Cost, error)
}

type keyedBackend interface {
	InferBatchKeyedCtx(pc obs.Ctx, seqs []uint64, inputs [][]float64) ([][]float64, energy.Cost, error)
}

// Wrap returns b perturbed by the injector's plan for engine id. When the
// injector is nil or its plan injects nothing, Wrap returns b itself —
// the disabled hook costs nothing, not even an interface indirection.
// Wrapped backends pass keyed and traced calls straight through, so
// chaos never perturbs *outputs*, only timing and availability.
func (inj *Injector) Wrap(id int, b serve.Backend) serve.Backend {
	if !inj.Active() {
		return b
	}
	inj.mu.Lock()
	step, ok := inj.steps[id]
	if !ok {
		step = &atomic.Uint64{}
		inj.steps[id] = step
	}
	inj.mu.Unlock()
	w := &wrapped{inj: inj, id: id, step: step, b: b, eng: inj.src.Derive(uint64(id))}
	w.cbe, _ = b.(ctxBackend)
	w.kbe, _ = b.(keyedBackend)
	return w
}

// wrapped is one engine's chaos-perturbed backend.
type wrapped struct {
	inj  *Injector
	id   int
	step *atomic.Uint64
	eng  noise.Source // per-engine spike stream
	b    serve.Backend
	cbe  ctxBackend
	kbe  keyedBackend
}

// gate runs the plan for one batch: it advances the engine's step counter,
// sleeps any injected delay, and returns the crash error when the step
// falls inside the engine's dark window. Crashes fail fast (a dead board
// does not also stall) and wrap serve.ErrUnhealthy so the micro-batcher
// sheds the batch typed and the fleet fails over.
func (w *wrapped) gate() error {
	p := &w.inj.plan
	step := w.step.Add(1) - 1
	if w.id == p.CrashEngine && step >= p.CrashStart && step < p.CrashEnd {
		return fmt.Errorf("chaos: engine %d dark at step %d [%d,%d): %w",
			w.id, step, p.CrashStart, p.CrashEnd, serve.ErrUnhealthy)
	}
	var delay time.Duration
	if w.id == p.SlowEngine {
		delay += p.SlowDelay
	}
	if p.SpikeProb > 0 && w.eng.Float64(step) < p.SpikeProb {
		delay += p.SpikeDelay
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return nil
}

// InferBatch implements serve.Backend.
func (w *wrapped) InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error) {
	if err := w.gate(); err != nil {
		return nil, energy.Zero, err
	}
	return w.b.InferBatch(inputs)
}

// InferBatchCtx implements the traced backend variant.
func (w *wrapped) InferBatchCtx(pc obs.Ctx, inputs [][]float64) ([][]float64, energy.Cost, error) {
	if err := w.gate(); err != nil {
		return nil, energy.Zero, err
	}
	if w.cbe != nil {
		return w.cbe.InferBatchCtx(pc, inputs)
	}
	return w.b.InferBatch(inputs)
}

// InferBatchKeyedCtx implements the keyed backend variant.
func (w *wrapped) InferBatchKeyedCtx(pc obs.Ctx, seqs []uint64, inputs [][]float64) ([][]float64, energy.Cost, error) {
	if err := w.gate(); err != nil {
		return nil, energy.Zero, err
	}
	if w.kbe != nil {
		return w.kbe.InferBatchKeyedCtx(pc, seqs, inputs)
	}
	if w.cbe != nil {
		return w.cbe.InferBatchCtx(pc, inputs)
	}
	return w.b.InferBatch(inputs)
}
