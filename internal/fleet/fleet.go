// Package fleet is the cluster-scale serving layer: N independent DPE
// engines — each a serve.ShadowPair behind its own micro-batcher, bounded
// pending list, circuit breaker, and metrics namespace — routed by a
// pluggable request Router. It is the answer to the paper's Section VI
// scaling story at the serving tier: one board's write asymmetry hides
// behind its own shadow engine (internal/serve), and the *fleet* hides
// whole-board reprogramming behind the remaining boards via a rolling
// scheduler that updates one standby at a time with zero fleet downtime
// (rolling.go).
//
// A Fleet is the only serving stack in the tree: a single board is a fleet
// of one (cimserve -engines 1), and newEngine is the one place the
// per-engine stack is composed.
//
// # Topology
//
//	client ─ SubmitSeq ─▶ Fleet ─ Router(policy) ─▶ Engine i
//	                                                ├─ serve.Server   (pending list + flusher)
//	                                                ├─ [chaos wrap]   (WithChaos)
//	                                                ├─ [WrapBackend]  (the hybrid dispatcher's slot)
//	                                                ├─ serve.Breaker  (health gate)
//	                                                └─ serve.ShadowPair ─ dpe.Engine ×2
//
// Every engine replicates the same network (same dpe.Config, same noise
// seed), so any engine can serve any request. Routing policies (router.go)
// choose among the healthy, non-draining engines: round-robin, least-loaded
// (live pending-list depth), weighted, and wear-aware (route away from
// engines whose fault reports show consumed spares or lost columns —
// reading dpe HealthCheck and the internal/faultinject wear accounting).
// A refused engine (full queue, tripped breaker, mid-drain close) fails
// over to the next engine in policy order; only when every routable engine
// refuses does the fleet surface an error, typed to distinguish capacity
// (serve.ErrOverloaded) from health (serve.ErrUnhealthy).
//
// # Determinism
//
// The fleet preserves the simulator's bit-identity contract at any fan-out:
// every request carries its own noise sequence number (the caller's key,
// the one argument SubmitSeq adds to an input) down through
// serve.Server.SubmitKeyed to dpe.Engine.InferBatchKeyed, where analog read
// noise is a pure function of (Config.Seed, key, stage, position). Which
// engine serves a request, how the batcher groups it, and the worker-pool
// width are therefore all invisible in the output: a 4-engine fleet run is
// bit-identical, request by request, to a 1-engine run under any routing
// policy. Device-fault injection is the deliberate exception — each engine
// derives its own fault seed (boards have their own physical defects), so
// faulty fleets agree only where damage allows. See docs/CLUSTER.md.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cimrev/internal/chaos"
	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/metrics"
	"cimrev/internal/nn"
	"cimrev/internal/obs"
	"cimrev/internal/serve"
)

// ErrNoEngines is returned by SubmitSeq when the fleet has no members (all
// have left). Distinct from the all-unhealthy case, which wraps
// serve.ErrUnhealthy, and the all-overloaded case, which wraps
// serve.ErrOverloaded.
var ErrNoEngines = errors.New("fleet: no engines")

// Engine is one fleet member: a shadow pair behind its own breaker and
// micro-batching server, with a private metrics registry so per-engine
// series never collide (cimserve exposes each registry with an engine
// label on /metrics).
type Engine struct {
	id     int
	weight int
	pair   *serve.ShadowPair
	brk    *serve.Breaker
	srv    *serve.Server
	reg    *metrics.Registry
	// rep is what RollingReprogram drives: the WrapBackend wrapper when it
	// can reprogram, else the breaker.
	rep reprogrammer
	// lim is the engine's AIMD concurrency limiter, nil unless the fleet
	// was built WithOverloadControl (limiter.go).
	lim *aimdLimiter

	// draining flips when Leave removes the engine from the routing set,
	// just before its server closes: the router skips draining engines and
	// in-flight requests finish normally.
	draining atomic.Bool
	// routed counts requests this engine accepted (routing statistics; the
	// engine's own registry has the authoritative serve.* counters).
	routed atomic.Int64
	// inflight counts requests currently inside this engine's pipeline
	// (pending or on the device). The pending list alone is a poor load
	// signal — the flusher takes a batch from it the moment it is idle, so
	// an engine busy with one flush can read zero — so the least-loaded
	// policy reads pending + in-flight.
	inflight atomic.Int64
}

// ID returns the engine's fleet-unique identifier (stable across
// join/leave churn; never reused).
func (e *Engine) ID() int { return e.id }

// Weight returns the engine's routing weight (≥ 1; used by the weighted
// policy, ignored by the others).
func (e *Engine) Weight() int { return e.weight }

// QueueDepth returns how many requests wait in the engine's pending list.
func (e *Engine) QueueDepth() int { return e.srv.QueueDepth() }

// InFlight returns how many fleet requests are currently inside the
// engine's pipeline (queued or executing).
func (e *Engine) InFlight() int64 { return e.inflight.Load() }

// Load returns the engine's outstanding-work signal — pending-list depth
// plus in-flight requests — which the least-loaded policy minimizes.
func (e *Engine) Load() int64 { return int64(e.srv.QueueDepth()) + e.inflight.Load() }

// Tripped reports whether the engine's circuit breaker is open.
func (e *Engine) Tripped() bool { return e.brk.Tripped() }

// Limit returns the engine's current AIMD concurrency limit, 0 when
// overload control is disabled (cimserve surfaces this on /healthz).
func (e *Engine) Limit() int64 {
	if e.lim == nil {
		return 0
	}
	return e.lim.Limit()
}

// Draining reports whether the engine is leaving the fleet.
func (e *Engine) Draining() bool { return e.draining.Load() }

// Wear returns the live engine's lifetime cell-write count (the wear-aware
// policy's tiebreak signal), read under the pair's gate.
func (e *Engine) Wear() int64 { return e.pair.Wear() }

// Health scans the engine's live DPE (the wear-aware policy's primary
// signal: consumed spares and lost columns).
func (e *Engine) Health() dpe.Health { return e.pair.Health() }

// Routed returns how many requests the router placed on this engine.
func (e *Engine) Routed() int64 { return e.routed.Load() }

// SimTimePS returns the engine's accumulated simulated serving time.
func (e *Engine) SimTimePS() int64 { return e.srv.SimTimePS() }

// Registry returns the engine's private metrics registry (serve.* series).
func (e *Engine) Registry() *metrics.Registry { return e.reg }

// Pair returns the engine's shadow pair (statistics only).
func (e *Engine) Pair() *serve.ShadowPair { return e.pair }

// Breaker returns the engine's circuit breaker (statistics / Reset only).
func (e *Engine) Breaker() *serve.Breaker { return e.brk }

// Config configures a Fleet. Construct with Default() (or zero options to
// New) and refine with functional options.
type Config struct {
	// Engines is the initial fleet size. Must be ≥ 1.
	Engines int
	// Weights are the initial engines' routing weights, by position.
	// Empty means every engine weighs 1; otherwise the length must equal
	// Engines and every weight must be ≥ 1. Engines joined later weigh 1.
	Weights []int
	// Router picks engines per request. Nil selects round-robin.
	Router *Router
	// Tracer records fleet-layer spans (rolling reprograms) and is
	// threaded into every engine's serving pipeline.
	Tracer *obs.Tracer
	// ServeOptions are applied to every engine's Breaker and Server
	// (batching, queue bound, retry, probe). Per-engine plumbing — the
	// private registry, the tracer, and a per-engine jitter seed — is
	// appended after them and cannot be overridden.
	ServeOptions []serve.Option
	// WrapBackend, when non-nil, wraps each engine's breaker before it is
	// handed to the micro-batching server — the hybrid dispatcher's
	// insertion point. It receives the engine id, the breaker as a
	// serve.Backend, and the engine's private registry (so wrapper
	// counters land next to that engine's serve.* series). Returning nil
	// or b leaves the engine unwrapped. A wrapper with a
	// Reprogram(*nn.Network) method of the breaker's shape
	// (hybrid.Reprogrammer) takes over the engine's rolling reprograms —
	// it owns state that must change with the weights (a digital twin) and
	// is expected to reprogram the breaker it wraps.
	WrapBackend func(id int, b serve.Backend, reg *metrics.Registry) serve.Backend
	// Hedge enables hedged requests (hedge.go) when non-nil.
	Hedge *HedgeConfig
	// Overload enables the AIMD concurrency limiter and priority brownout
	// (limiter.go) when non-nil.
	Overload *OverloadConfig
	// Chaos, when non-nil and active, wraps every engine's backend with
	// the deterministic fault injector (internal/chaos) — outermost, above
	// WrapBackend, so injected stalls and crashes perturb whatever stack
	// the engine actually runs. A nil or inert injector adds nothing: the
	// wrap is the identity.
	Chaos *chaos.Injector
}

// Default returns a single-engine, round-robin fleet configuration.
func Default() Config { return Config{Engines: 1} }

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Engines < 1:
		return fmt.Errorf("fleet: Engines must be >= 1, got %d", c.Engines)
	case len(c.Weights) != 0 && len(c.Weights) != c.Engines:
		return fmt.Errorf("fleet: %d weights for %d engines", len(c.Weights), c.Engines)
	}
	for i, w := range c.Weights {
		if w < 1 {
			return fmt.Errorf("fleet: weight %d for engine %d must be >= 1", w, i)
		}
	}
	return nil
}

// Option mutates a Config during construction.
type Option func(*Config)

// WithEngines sets the initial fleet size.
func WithEngines(n int) Option { return func(c *Config) { c.Engines = n } }

// WithWeights sets the initial engines' routing weights by position.
func WithWeights(ws ...int) Option { return func(c *Config) { c.Weights = ws } }

// WithPolicy installs a router over policy p (see NewRouter and the policy
// constructors).
func WithPolicy(p Policy) Option { return func(c *Config) { c.Router = NewRouter(p) } }

// WithTracer records fleet and per-engine serving spans into tr.
func WithTracer(tr *obs.Tracer) Option { return func(c *Config) { c.Tracer = tr } }

// WithServeOptions forwards opts to every engine's serve.New/NewBreaker.
func WithServeOptions(opts ...serve.Option) Option {
	return func(c *Config) { c.ServeOptions = append(c.ServeOptions, opts...) }
}

// WithWrapBackend installs a per-engine backend wrapper (Config.WrapBackend).
func WithWrapBackend(fn func(id int, b serve.Backend, reg *metrics.Registry) serve.Backend) Option {
	return func(c *Config) { c.WrapBackend = fn }
}

// WithHedge enables hedged requests with cfg (zero fields take the
// documented defaults — p95 delay, 5% budget).
func WithHedge(cfg HedgeConfig) Option {
	return func(c *Config) { h := cfg; c.Hedge = &h }
}

// WithOverloadControl enables the per-engine AIMD concurrency limiter and
// fleet-wide priority brownout with cfg (zero fields take the documented
// defaults).
func WithOverloadControl(cfg OverloadConfig) Option {
	return func(c *Config) { o := cfg; c.Overload = &o }
}

// WithChaos wires the deterministic fault injector into every engine
// (Config.Chaos). A nil or inert injector is free.
func WithChaos(inj *chaos.Injector) Option {
	return func(c *Config) { c.Chaos = inj }
}

// fleetMetrics holds the fleet's interned metric handles.
type fleetMetrics struct {
	requests    *metrics.Counter
	failovers   *metrics.Counter
	unrouteable *metrics.Counter
	joins       *metrics.Counter
	leaves      *metrics.Counter
	rollings    *metrics.Counter
	engines     *metrics.Gauge
	latencyNS   *metrics.Histogram

	// Resilience counters (docs/RESILIENCE.md): hedge issue/win/deny,
	// limiter refusals, and brownout sheds.
	hedged         *metrics.Counter
	hedgeWon       *metrics.Counter
	hedgeDenied    *metrics.Counter
	limiterRefused *metrics.Counter
	brownoutShed   *metrics.Counter
}

func newFleetMetrics(reg *metrics.Registry) fleetMetrics {
	return fleetMetrics{
		requests:    reg.Counter("fleet.requests"),
		failovers:   reg.Counter("fleet.failovers"),
		unrouteable: reg.Counter("fleet.unrouteable"),
		joins:       reg.Counter("fleet.joins"),
		leaves:      reg.Counter("fleet.leaves"),
		rollings:    reg.Counter("fleet.rolling_reprograms"),
		engines:     reg.Gauge("fleet.engines"),
		latencyNS:   reg.Histogram("fleet.latency_ns"),

		hedged:         reg.Counter("fleet.hedged"),
		hedgeWon:       reg.Counter("fleet.hedge_won"),
		hedgeDenied:    reg.Counter("fleet.hedge_denied"),
		limiterRefused: reg.Counter("fleet.limiter_refused"),
		brownoutShed:   reg.Counter("fleet.brownout_shed"),
	}
}

// Fleet is a routed set of DPE serving engines. Construct with New; the
// zero value is not usable. SubmitSeq/SubmitSeqPri are safe for concurrent
// use, as are Join, Leave, and RollingReprogram.
type Fleet struct {
	dcfg   dpe.Config
	cfg    Config
	router *Router
	reg    *metrics.Registry
	met    fleetMetrics
	tracer *obs.Tracer

	// mu guards the engine set and the current network (what joiners
	// program). SubmitSeq holds it shared just long enough to snapshot the
	// engine slice; membership changes hold it exclusively.
	mu      sync.RWMutex
	engines []*Engine
	nextID  int
	net     *nn.Network

	// hedge and over are the resilience controllers, nil when disabled.
	hedge *hedger
	over  *brownout
	chaos *chaos.Injector

	// rollMu serializes rolling reprograms (one standby programs at a
	// time, fleet-wide — the multi-board write-bandwidth budget).
	rollMu   sync.Mutex
	statusMu sync.Mutex
	status   RollingStatus
}

// New builds a fleet of cfg-configured engines, programs net into every
// live engine, and returns the initial programming cost (engines program
// in parallel: latency is the slowest engine, energy sums). All engines
// share dcfg — including its noise Seed, which is what makes any engine's
// keyed output interchangeable — except that fault injection, when
// enabled, derives a per-engine seed (dcfg.Faults.Seed + engine ID): each
// board carries its own physical defects.
func New(dcfg dpe.Config, net *nn.Network, opts ...Option) (*Fleet, energy.Cost, error) {
	cfg := Default()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, energy.Zero, err
	}
	router := cfg.Router
	if router == nil {
		router = NewRouter(RoundRobin())
	}
	reg := metrics.NewRegistry()
	f := &Fleet{
		dcfg:   dcfg,
		cfg:    cfg,
		router: router,
		reg:    reg,
		met:    newFleetMetrics(reg),
		tracer: cfg.Tracer,
		net:    net,
		chaos:  cfg.Chaos,
	}
	if cfg.Hedge != nil {
		f.hedge = newHedger(*cfg.Hedge, f.met.latencyNS)
	}
	if cfg.Overload != nil {
		f.over = newBrownout(cfg.Overload.withDefaults())
	}
	total := energy.Zero
	for i := 0; i < cfg.Engines; i++ {
		w := 1
		if len(cfg.Weights) > 0 {
			w = cfg.Weights[i]
		}
		e, cost, err := f.newEngine(i, w, net)
		if err != nil {
			f.Close()
			return nil, energy.Zero, err
		}
		f.engines = append(f.engines, e)
		total = total.Par(cost)
	}
	f.nextID = cfg.Engines
	f.met.engines.Set(float64(cfg.Engines))
	return f, total, nil
}

// newEngine builds one fleet member and programs net into it. Engine id's
// fault model (when enabled) seeds at base+id; its breaker jitter seeds at
// dcfg.Seed+id so synchronized retries decorrelate across the fleet.
func (f *Fleet) newEngine(id, weight int, net *nn.Network) (*Engine, energy.Cost, error) {
	ecfg := f.dcfg
	if ecfg.Faults.Enabled() {
		ecfg.Faults.Seed += int64(id)
	}
	pair, cost, err := serve.NewShadowPair(ecfg, net)
	if err != nil {
		return nil, energy.Zero, fmt.Errorf("fleet: engine %d: %w", id, err)
	}
	reg := metrics.NewRegistry()
	sopts := make([]serve.Option, 0, len(f.cfg.ServeOptions)+3)
	sopts = append(sopts, serve.WithSeed(f.dcfg.Seed+int64(id)))
	sopts = append(sopts, f.cfg.ServeOptions...)
	sopts = append(sopts, serve.WithRegistry(reg), serve.WithTracer(f.tracer))
	brk, err := serve.NewBreaker(pair, sopts...)
	if err != nil {
		return nil, energy.Zero, fmt.Errorf("fleet: engine %d: %w", id, err)
	}
	var be serve.Backend = brk
	var rp reprogrammer = brk
	if f.cfg.WrapBackend != nil {
		if w := f.cfg.WrapBackend(id, brk, reg); w != nil {
			be = w
			if wr, ok := w.(reprogrammer); ok {
				rp = wr
			}
		}
	}
	// Chaos wraps outermost so injected stalls and crashes hit whatever
	// stack the engine really runs; an inert injector returns be itself.
	be = f.chaos.Wrap(id, be)
	srv, err := serve.New(be, sopts...)
	if err != nil {
		return nil, energy.Zero, fmt.Errorf("fleet: engine %d: %w", id, err)
	}
	e := &Engine{id: id, weight: weight, pair: pair, brk: brk, srv: srv, reg: reg, rep: rp}
	if f.cfg.Overload != nil {
		e.lim = newAIMDLimiter(f.cfg.Overload.withDefaults())
	}
	return e, cost, nil
}

// Registry returns the fleet-level metrics registry (fleet.* series;
// per-engine serve.* series live in each Engine's own registry).
func (f *Fleet) Registry() *metrics.Registry { return f.reg }

// Router returns the fleet's router.
func (f *Fleet) Router() *Router { return f.router }

// Chaos returns the fleet's chaos injector (nil when none was wired);
// cimserve's /healthz reports its active scenario.
func (f *Fleet) Chaos() *chaos.Injector { return f.chaos }

// Hedging reports whether hedged requests are enabled.
func (f *Fleet) Hedging() bool { return f.hedge != nil }

// BrownoutActive reports whether the fleet is currently shedding
// low-priority traffic (false when overload control is disabled).
func (f *Fleet) BrownoutActive() bool { return f.over != nil && f.over.active() }

// Engines returns a snapshot of the current members in join order.
func (f *Fleet) Engines() []*Engine {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]*Engine, len(f.engines))
	copy(out, f.engines)
	return out
}

// Size returns the current member count.
func (f *Fleet) Size() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.engines)
}

// SimTimePS returns the fleet's simulated serving time: the maximum over
// engines, because boards serve concurrently in simulated time just as
// they do on the bench. Closed-loop simulated throughput is
// requests / (SimTimePS · 1e-12).
func (f *Fleet) SimTimePS() int64 {
	var max int64
	for _, e := range f.Engines() {
		if ps := e.SimTimePS(); ps > max {
			max = ps
		}
	}
	return max
}

// SubmitSeq routes one inference with a caller-owned noise key: the output
// is a pure function of (engine config seed, seq, input), bit-identical
// whether the fleet has 1 engine or 40, under every routing policy, at any
// -parallel width. The router orders routable engines by policy; an engine
// that refuses (queue full, concurrency limit hit, breaker tripped,
// draining) fails over to the next. When every routable engine refuses,
// the returned error wraps serve.ErrOverloaded if any refusal was capacity
// and serve.ErrUnhealthy only when health shed every attempt; a fleet
// whose every member is tripped fails fast with serve.ErrUnhealthy, and an
// empty fleet with ErrNoEngines.
//
// SubmitSeq requests are PriorityHigh; deferrable work submits through
// SubmitSeqPri with PriorityLow and accepts brownout shedding.
func (f *Fleet) SubmitSeq(ctx context.Context, seq uint64, in []float64) ([]float64, energy.Cost, error) {
	return f.SubmitSeqPri(ctx, seq, in, PriorityHigh)
}

// SubmitSeqPri is SubmitSeq with an explicit priority class. Under
// sustained overload (limiter.go) PriorityLow requests are shed at the
// door with an error wrapping serve.ErrOverloaded — brownout: background
// traffic pays first so interactive traffic keeps its latency. With
// hedging enabled (WithHedge), a request that outlives the fleet's
// adaptive p95 delay is re-issued on a second engine and the first
// response wins — bit-identical by the keyed-noise contract, so the race
// has no observable outcome beyond latency.
func (f *Fleet) SubmitSeqPri(ctx context.Context, seq uint64, in []float64, pri Priority) ([]float64, energy.Cost, error) {
	start := time.Now()
	f.met.requests.Inc()
	if f.over != nil && pri == PriorityLow && f.over.active() {
		f.met.brownoutShed.Inc()
		return nil, energy.Zero, fmt.Errorf("fleet: brownout shed (low priority): %w", serve.ErrOverloaded)
	}
	engines := f.Engines()
	if len(engines) == 0 {
		f.met.unrouteable.Inc()
		return nil, energy.Zero, ErrNoEngines
	}
	if f.over != nil {
		f.over.observe(engines)
	}
	order, tripped := f.router.Route(engines, seq)
	if len(order) == 0 {
		f.met.unrouteable.Inc()
		if tripped > 0 {
			return nil, energy.Zero, fmt.Errorf("fleet: all %d engines unhealthy: %w", len(engines), serve.ErrUnhealthy)
		}
		return nil, energy.Zero, fmt.Errorf("fleet: all engines draining: %w", ErrNoEngines)
	}
	var (
		out  []float64
		cost energy.Cost
		err  error
	)
	if f.hedge != nil && len(order) > 1 {
		out, cost, err = f.submitHedged(ctx, order, seq, in)
	} else {
		out, cost, err = f.tryOrder(ctx, order, seq, in)
	}
	if err == nil {
		f.met.latencyNS.Observe(float64(time.Since(start).Nanoseconds()))
		return out, cost, nil
	}
	if errors.Is(err, errExhausted) {
		f.met.unrouteable.Inc()
	}
	return nil, energy.Zero, err
}

// errExhausted marks a tryOrder failure where every routable engine
// refused (as opposed to a request-owned failure like cancellation). It
// always travels wrapped alongside the public capacity/health sentinel.
var errExhausted = errors.New("fleet: routable engines exhausted")

// tryOrder attempts the engines in order with typed failover: capacity
// refusals (full queue, AIMD limit, closing server) and health sheds move
// to the next engine; request-owned failures (cancellation, deadline,
// hard errors) return immediately. The exhaustion error wraps both
// errExhausted and the dominant public sentinel.
func (f *Fleet) tryOrder(ctx context.Context, order []*Engine, seq uint64, in []float64) ([]float64, energy.Cost, error) {
	sawCapacity := false
	tried := 0
	for _, e := range order {
		inflight := e.inflight.Load()
		if e.lim != nil && !e.lim.admits(inflight) {
			// The limiter refuses before the engine's queue absorbs the
			// request: queueing delay stays bounded by the converged
			// limit, not the static queue bound.
			f.met.limiterRefused.Inc()
			sawCapacity = true
			continue
		}
		if tried > 0 {
			f.met.failovers.Inc()
		}
		tried++
		e.inflight.Add(1)
		out, cost, err := e.srv.SubmitKeyed(ctx, seq, in)
		e.inflight.Add(-1)
		switch {
		case err == nil:
			if e.lim != nil {
				e.lim.onSuccess()
			}
			e.routed.Add(1)
			return out, cost, nil
		case errors.Is(err, serve.ErrOverloaded):
			if e.lim != nil {
				e.lim.onOverload()
			}
			sawCapacity = true
		case errors.Is(err, serve.ErrClosed):
			sawCapacity = true
		case errors.Is(err, serve.ErrUnhealthy):
			// Tripped (or chaos-crashed) between the routing scan and the
			// submit; try the next engine.
		default:
			// Canceled contexts, blown deadlines, and hard errors are the
			// request's own problem, not a routing problem.
			return nil, energy.Zero, err
		}
	}
	if sawCapacity {
		return nil, energy.Zero, fmt.Errorf("fleet: all %d routable engines refused (%w): %w", len(order), errExhausted, serve.ErrOverloaded)
	}
	return nil, energy.Zero, fmt.Errorf("fleet: all %d routable engines shed (%w): %w", len(order), errExhausted, serve.ErrUnhealthy)
}

// Join adds one engine (weight 1) programmed with the fleet's current
// network, returning it and its programming cost. The slow memristor
// writes happen before the engine enters the routing set, so joining never
// stalls serving — the new engine takes traffic only once fully
// programmed and healthy.
func (f *Fleet) Join() (*Engine, energy.Cost, error) {
	f.mu.Lock()
	id := f.nextID
	f.nextID++
	net := f.net
	f.mu.Unlock()

	e, cost, err := f.newEngine(id, 1, net)
	if err != nil {
		return nil, energy.Zero, err
	}
	f.mu.Lock()
	f.engines = append(f.engines, e)
	n := len(f.engines)
	f.mu.Unlock()
	f.met.joins.Inc()
	f.met.engines.Set(float64(n))
	return e, cost, nil
}

// Leave removes engine id with a graceful drain: the engine exits the
// routing set immediately (no new requests land on it), then its server
// closes, which serves everything already queued to completion. Requests
// that race the close observe serve.ErrClosed and fail over to another
// engine inside SubmitSeq — a drain never fails a request.
func (f *Fleet) Leave(id int) error {
	f.mu.Lock()
	idx := -1
	for i, e := range f.engines {
		if e.id == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		f.mu.Unlock()
		return fmt.Errorf("fleet: no engine %d", id)
	}
	e := f.engines[idx]
	f.engines = append(f.engines[:idx], f.engines[idx+1:]...)
	n := len(f.engines)
	f.mu.Unlock()

	e.draining.Store(true)
	e.srv.Close()
	f.met.leaves.Inc()
	f.met.engines.Set(float64(n))
	return nil
}

// Close drains and removes every engine. Close is idempotent.
func (f *Fleet) Close() {
	f.mu.Lock()
	engines := f.engines
	f.engines = nil
	f.mu.Unlock()
	for _, e := range engines {
		e.draining.Store(true)
		e.srv.Close()
	}
	f.met.engines.Set(0)
}
