// Adaptive overload control: AIMD concurrency limits + priority brownout.
//
// The static pending-list bound (serve.Config.QueueBound) is a blunt
// defense: it caps *memory*, not *latency* — a 4096-deep queue in front of
// a struggling engine is 4096 requests' worth of queueing delay before the
// first rejection. Two adaptive mechanisms replace it as the only line:
//
//   - Per-engine AIMD concurrency limiter (the TCP congestion-control
//     shape): each engine carries a concurrency limit; a request only
//     lands on an engine whose in-pipeline count is below its limit.
//     Every window of successes grows the limit by one (additive
//     increase); an ErrOverloaded refusal halves it (multiplicative
//     decrease). The limit converges to each engine's actual service
//     capacity, so queueing delay stays bounded even when the static
//     queue bound is generous — and a straggling engine's limit collapses,
//     diverting traffic before its queue fills.
//
//   - Brownout shedding by priority class: under sustained overload
//     (aggregate fleet load above aggregate limit for OnStreak
//     consecutive samples) the fleet stops accepting PriorityLow
//     requests outright — batch/background traffic browns out so
//     interactive traffic keeps its latency. The shed error wraps
//     serve.ErrOverloaded, so callers see the familiar capacity type.
//
// Both mechanisms are lock-free on the submit path; the brownout sampler
// runs every sampleEvery requests. See docs/RESILIENCE.md for the state
// machine.
package fleet

import (
	"sync/atomic"
)

// Priority classes for brownout shedding. The zero value is PriorityHigh:
// SubmitSeq callers are interactive by default, and only callers that
// explicitly mark work PriorityLow opt into brownout.
type Priority int

const (
	// PriorityHigh is interactive traffic: never brownout-shed.
	PriorityHigh Priority = iota
	// PriorityLow is deferrable traffic (batch scoring, backfills): shed
	// first under sustained overload.
	PriorityLow
)

// OverloadConfig tunes the AIMD limiter and brownout controller. The zero
// value is refined to the defaults by WithOverloadControl.
type OverloadConfig struct {
	// InitialLimit is each engine's starting concurrency limit (0 → 32).
	InitialLimit int
	// MinLimit / MaxLimit clamp the limit (0 → 1 / 4096). The floor keeps
	// a collapsed engine probing for recovery.
	MinLimit, MaxLimit int
	// OnStreak is how many consecutive overloaded samples switch brownout
	// on (0 → 3); OffStreak, how many healthy samples switch it off
	// (0 → 6; slower off than on, so brownout does not flap).
	OnStreak, OffStreak int
	// SampleEvery is the brownout sampling cadence in requests (0 → 32).
	SampleEvery int
}

// withDefaults fills zero fields with the canonical defaults.
func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.InitialLimit == 0 {
		c.InitialLimit = 32
	}
	if c.MinLimit == 0 {
		c.MinLimit = 1
	}
	if c.MaxLimit == 0 {
		c.MaxLimit = 4096
	}
	if c.OnStreak == 0 {
		c.OnStreak = 3
	}
	if c.OffStreak == 0 {
		c.OffStreak = 6
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 32
	}
	return c
}

// aimdLimiter is one engine's adaptive concurrency limit. All state is
// atomic; acquire is advisory (checked against the engine's in-flight
// count just before submit), which is the right strictness for a limiter
// whose job is convergence, not mutual exclusion.
type aimdLimiter struct {
	limit     atomic.Int64
	successes atomic.Int64
	min, max  int64
}

func newAIMDLimiter(cfg OverloadConfig) *aimdLimiter {
	l := &aimdLimiter{min: int64(cfg.MinLimit), max: int64(cfg.MaxLimit)}
	l.limit.Store(int64(cfg.InitialLimit))
	return l
}

// Limit returns the current concurrency limit.
func (l *aimdLimiter) Limit() int64 { return l.limit.Load() }

// admits reports whether an engine at the given in-flight count may take
// one more request.
func (l *aimdLimiter) admits(inflight int64) bool { return inflight < l.limit.Load() }

// onSuccess credits one completed request; a full limit's worth of
// successes raises the limit by one (additive increase).
func (l *aimdLimiter) onSuccess() {
	lim := l.limit.Load()
	if l.successes.Add(1) < lim {
		return
	}
	l.successes.Store(0)
	if lim < l.max {
		l.limit.CompareAndSwap(lim, lim+1)
	}
}

// onOverload halves the limit (multiplicative decrease), flooring at min.
func (l *aimdLimiter) onOverload() {
	for {
		lim := l.limit.Load()
		next := lim / 2
		if next < l.min {
			next = l.min
		}
		if next == lim || l.limit.CompareAndSwap(lim, next) {
			return
		}
	}
}

// brownout is the fleet-wide overload detector. It compares aggregate
// outstanding work against the aggregate concurrency limit on a sampling
// cadence and flips the shedding flag on sustained excess.
type brownout struct {
	cfg       OverloadConfig
	tick      atomic.Uint64
	onStreak  atomic.Int64
	offStreak atomic.Int64
	shedding  atomic.Bool
}

func newBrownout(cfg OverloadConfig) *brownout { return &brownout{cfg: cfg} }

// active reports whether low-priority traffic is currently shed.
func (b *brownout) active() bool { return b.shedding.Load() }

// observe runs the sampler every SampleEvery requests: overloaded when the
// fleet's outstanding work exceeds its aggregate concurrency limit (work
// is queueing beyond what the limiters will admit).
func (b *brownout) observe(engines []*Engine) {
	if b.tick.Add(1)%uint64(b.cfg.SampleEvery) != 0 {
		return
	}
	var load, limit int64
	for _, e := range engines {
		load += e.Load()
		if e.lim != nil {
			limit += e.lim.Limit()
		}
	}
	b.update(load, limit)
}

// update feeds one (load, limit) sample into the streak state machine.
// Streak counters debounce both transitions: OnStreak consecutive
// overloaded samples switch shedding on, OffStreak healthy ones switch it
// off.
func (b *brownout) update(load, limit int64) {
	if load > limit {
		b.offStreak.Store(0)
		if b.onStreak.Add(1) >= int64(b.cfg.OnStreak) {
			b.shedding.Store(true)
		}
		return
	}
	b.onStreak.Store(0)
	if b.offStreak.Add(1) >= int64(b.cfg.OffStreak) {
		b.shedding.Store(false)
	}
}
