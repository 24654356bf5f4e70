// Package workloadgen generates deterministic request traffic for the
// serving stack: arrival schedules, request-class mixes, and the drivers
// that fire them at a backend.
//
// # Why open loop
//
// A closed-loop load generator (cimserve's client goroutines,
// experiments.FleetSweep) cannot overload anything: a slow server slows
// its own clients down, so the offered rate sags exactly when the system
// is in trouble — coordinated omission by construction. Real traffic does
// not wait. The open-loop driver fires requests on a precomputed schedule
// whether or not the fleet keeps up, which is what makes queueing
// collapse, load shedding, and the capacity knee observable at all
// (docs/CAPACITY.md).
//
// # Determinism contract
//
// Every arrival process is keyed by the counter-based noise source
// (internal/noise): gap i is a pure function of (seed, i), never of draw
// order, wall time, or goroutine interleaving. A schedule is therefore
// bit-identical across runs and at any -parallel width, and a recorded
// trace replays exactly. The same property keys the class mix: the class
// of request i is a pure function of (seed, i).
//
// The processes:
//
//   - Poisson: exponential i.i.d. gaps — the memoryless baseline (the
//     chaos sweep's overload burst; TestPoissonGapFormula pins the draws).
//   - MMPP: a two-state Markov-modulated Poisson process — a base regime
//     and a burst regime whose rate is Burst times higher, switching on
//     epoch boundaries. Bursty traffic with tunable burst fraction and
//     residence time.
//   - Diurnal: a sinusoidal rate envelope over the arrival index —
//     peak/trough traffic with the cycle-average rate normalized to the
//     nominal rate.
//   - Trace: replay of a recorded schedule (timestamps + request
//     classes), cycling past the recorded window.
//
// MMPP and Diurnal modulate over the arrival *index*, not wall time: the
// regime of arrival i depends on i alone. For an open-loop schedule the
// two views coincide up to the rate scaling (the schedule is fixed before
// the run and never reacts to the backend), and index-phase keeps Gap a
// pure O(epoch)-walk function of (seed, i).
package workloadgen

import (
	"fmt"
	"math"
	"time"

	"cimrev/internal/noise"
)

// Arrivals is a deterministic arrival process: a schedule of request
// inter-arrival gaps that is a pure function of the process parameters
// and the arrival index. Implementations are immutable values, safe for
// concurrent use from any number of goroutines.
type Arrivals interface {
	// Name identifies the process kind ("poisson", "mmpp", ...).
	Name() string
	// Rate is the nominal mean arrival rate in requests per second. For
	// modulated processes it is the long-run average across regimes.
	Rate() float64
	// Gap returns the inter-arrival gap preceding arrival i: arrival i
	// fires Gap(i) after arrival i-1 (Gap(0) is the delay before the
	// first arrival). Gaps are independent of evaluation order and
	// identical across runs.
	Gap(i uint64) time.Duration
}

// Times materializes the absolute schedule: Times(a, n)[i] is the offset
// of arrival i from the start of the run (the prefix sum of gaps). One
// sequential pass — the canonical way to turn a process into a
// fire-at-absolute-time schedule or a recorded trace.
func Times(a Arrivals, n int) []time.Duration {
	out := make([]time.Duration, n)
	var t time.Duration
	for i := 0; i < n; i++ {
		t += a.Gap(uint64(i))
		out[i] = t
	}
	return out
}

// Poisson is a deterministic open-loop Poisson arrival process: i.i.d.
// exponential gaps keyed by (seed, i). The zero value is invalid;
// construct with NewPoisson.
type Poisson struct {
	src    noise.Source
	meanNS float64
	rps    float64
}

// NewPoisson returns a Poisson process averaging rps arrivals per second,
// keyed by seed.
func NewPoisson(seed int64, rps float64) (Poisson, error) {
	if rps <= 0 || math.IsInf(rps, 0) || math.IsNaN(rps) {
		return Poisson{}, fmt.Errorf("workloadgen: poisson rate must be a positive finite rps, got %g", rps)
	}
	return Poisson{src: noise.NewSource(seed), meanNS: 1e9 / rps, rps: rps}, nil
}

// Name implements Arrivals.
func (p Poisson) Name() string { return "poisson" }

// Rate implements Arrivals.
func (p Poisson) Rate() float64 { return p.rps }

// Gap returns the exponential gap preceding arrival i, drawn from the
// counter stream for i.
func (p Poisson) Gap(i uint64) time.Duration {
	// Float64 is uniform in (0,1), never 0, so the log is finite.
	u := p.src.Float64(i)
	return time.Duration(-p.meanNS * math.Log(u))
}

// MMPPConfig parameterizes the two-state Markov-modulated Poisson
// process. The zero value is invalid; fill Seed and Rate and leave the
// rest zero for the documented defaults.
type MMPPConfig struct {
	// Seed keys every draw (gap draws and regime transitions).
	Seed int64
	// Rate is the long-run mean arrival rate (requests per second)
	// across both regimes.
	Rate float64
	// Burst is the burst-regime rate as a multiple of the base-regime
	// rate (> 1). Default 8.
	Burst float64
	// BurstFrac is the stationary fraction of epochs spent in the burst
	// regime, in (0, 1). Default 0.2.
	BurstFrac float64
	// MeanBurstEpochs is the mean burst residence time in epochs (>= 1):
	// the chain leaves the burst state with probability
	// 1/MeanBurstEpochs per epoch. Default 4.
	MeanBurstEpochs float64
	// Epoch is the number of arrivals per regime epoch (>= 1): the chain
	// is sampled once per Epoch arrivals. Default 32.
	Epoch int
}

// withDefaults fills zero fields with the documented defaults.
func (c MMPPConfig) withDefaults() MMPPConfig {
	if c.Burst == 0 {
		c.Burst = 8
	}
	if c.BurstFrac == 0 {
		c.BurstFrac = 0.2
	}
	if c.MeanBurstEpochs == 0 {
		c.MeanBurstEpochs = 4
	}
	if c.Epoch == 0 {
		c.Epoch = 32
	}
	return c
}

// MMPP is the two-state Markov-modulated Poisson process: epochs of
// Epoch arrivals each draw their gaps at the base rate or the burst rate
// according to a two-state Markov chain over epochs. The regime of epoch
// k is a pure function of (seed, k): it is recomputed by walking the
// chain from epoch 0, so Gap(i) costs O(i/Epoch) chain steps — cheap for
// the schedule lengths the drivers use, and entirely stateless.
type MMPP struct {
	cfg      MMPPConfig
	gaps     noise.Source // one exponential draw per arrival
	chain    noise.Source // one transition draw per epoch
	baseNS   float64      // mean gap in the base regime
	burstNS  float64      // mean gap in the burst regime
	pEnter   float64      // P(base -> burst) per epoch
	pLeave   float64      // P(burst -> base) per epoch
	burstLen uint64       // arrivals per epoch
}

// NewMMPP validates the config and returns the process. The base and
// burst rates are solved so the long-run mean rate equals cfg.Rate:
// with stationary burst fraction f and multiplier B, the base rate is
// Rate*((1-f) + f/B) and the burst rate B times that.
func NewMMPP(cfg MMPPConfig) (MMPP, error) {
	cfg = cfg.withDefaults()
	switch {
	case cfg.Rate <= 0 || math.IsInf(cfg.Rate, 0) || math.IsNaN(cfg.Rate):
		return MMPP{}, fmt.Errorf("workloadgen: mmpp rate must be a positive finite rps, got %g", cfg.Rate)
	case cfg.Burst <= 1:
		return MMPP{}, fmt.Errorf("workloadgen: mmpp burst multiplier must be > 1, got %g", cfg.Burst)
	case cfg.BurstFrac <= 0 || cfg.BurstFrac >= 1:
		return MMPP{}, fmt.Errorf("workloadgen: mmpp burst fraction must be in (0,1), got %g", cfg.BurstFrac)
	case cfg.MeanBurstEpochs < 1:
		return MMPP{}, fmt.Errorf("workloadgen: mmpp mean burst residence must be >= 1 epoch, got %g", cfg.MeanBurstEpochs)
	case cfg.Epoch < 1:
		return MMPP{}, fmt.Errorf("workloadgen: mmpp epoch must be >= 1 arrival, got %d", cfg.Epoch)
	}
	pLeave := 1 / cfg.MeanBurstEpochs
	pEnter := cfg.BurstFrac * pLeave / (1 - cfg.BurstFrac)
	if pEnter > 1 {
		return MMPP{}, fmt.Errorf("workloadgen: mmpp burst fraction %g unreachable with mean residence %g epochs (entry probability %g > 1)",
			cfg.BurstFrac, cfg.MeanBurstEpochs, pEnter)
	}
	baseRate := cfg.Rate * ((1 - cfg.BurstFrac) + cfg.BurstFrac/cfg.Burst)
	root := noise.NewSource(cfg.Seed)
	return MMPP{
		cfg:      cfg,
		gaps:     root.Derive(0),
		chain:    root.Derive(1),
		baseNS:   1e9 / baseRate,
		burstNS:  1e9 / (baseRate * cfg.Burst),
		pEnter:   pEnter,
		pLeave:   pLeave,
		burstLen: uint64(cfg.Epoch),
	}, nil
}

// Name implements Arrivals.
func (m MMPP) Name() string { return "mmpp" }

// Rate implements Arrivals.
func (m MMPP) Rate() float64 { return m.cfg.Rate }

// Bursting reports whether arrival i falls in a burst epoch.
func (m MMPP) Bursting(i uint64) bool { return m.state(i / m.burstLen) }

// state walks the regime chain from epoch 0 to epoch k. Every epoch
// consumes exactly one transition draw whichever state it is in, so the
// walk is a pure function of (seed, k).
func (m MMPP) state(k uint64) bool {
	burst := false
	for j := uint64(1); j <= k; j++ {
		u := m.chain.Float64(j)
		if burst {
			burst = u >= m.pLeave
		} else {
			burst = u < m.pEnter
		}
	}
	return burst
}

// Gap returns the gap preceding arrival i: exponential at the regime rate
// of i's epoch.
func (m MMPP) Gap(i uint64) time.Duration {
	mean := m.baseNS
	if m.Bursting(i) {
		mean = m.burstNS
	}
	u := m.gaps.Float64(i)
	return time.Duration(-mean * math.Log(u))
}

// DiurnalConfig parameterizes the sinusoidal rate envelope. The zero
// value is invalid; fill Seed and Rate and leave the rest zero for the
// documented defaults.
type DiurnalConfig struct {
	// Seed keys the gap draws.
	Seed int64
	// Rate is the cycle-average arrival rate in requests per second.
	Rate float64
	// Amplitude is the peak swing as a fraction of the mean rate, in
	// [0, 1): the instantaneous rate runs between Rate*(1-A) and
	// Rate*(1+A) (up to the cycle-average normalization). Default 0.5.
	Amplitude float64
	// Cycle is the period of the envelope in arrivals (>= 2). Default
	// 1024.
	Cycle int
}

// withDefaults fills zero fields with the documented defaults.
func (c DiurnalConfig) withDefaults() DiurnalConfig {
	if c.Amplitude == 0 {
		c.Amplitude = 0.5
	}
	if c.Cycle == 0 {
		c.Cycle = 1024
	}
	return c
}

// Diurnal is a Poisson process whose rate follows a sinusoidal envelope
// over the arrival index with period Cycle: a compressed day of traffic
// with a peak and a trough. The envelope is normalized so the expected
// time to serve one full cycle is exactly Cycle/Rate — the cycle-average
// offered rate is the nominal rate, whatever the amplitude.
type Diurnal struct {
	cfg  DiurnalConfig
	src  noise.Source
	norm float64 // cycle mean of 1/envelope, the Jensen correction
}

// NewDiurnal validates the config and returns the process.
func NewDiurnal(cfg DiurnalConfig) (Diurnal, error) {
	cfg = cfg.withDefaults()
	switch {
	case cfg.Rate <= 0 || math.IsInf(cfg.Rate, 0) || math.IsNaN(cfg.Rate):
		return Diurnal{}, fmt.Errorf("workloadgen: diurnal rate must be a positive finite rps, got %g", cfg.Rate)
	case cfg.Amplitude < 0 || cfg.Amplitude >= 1:
		return Diurnal{}, fmt.Errorf("workloadgen: diurnal amplitude must be in [0,1), got %g", cfg.Amplitude)
	case cfg.Cycle < 2:
		return Diurnal{}, fmt.Errorf("workloadgen: diurnal cycle must be >= 2 arrivals, got %d", cfg.Cycle)
	}
	// E[cycle time] = sum over the cycle of 1/(Rate*h*env_j) where
	// h = mean(1/env): the h factor cancels the sum to Cycle/Rate exactly.
	var sum float64
	for j := 0; j < cfg.Cycle; j++ {
		sum += 1 / envelope(cfg.Amplitude, j, cfg.Cycle)
	}
	return Diurnal{cfg: cfg, src: noise.NewSource(cfg.Seed), norm: sum / float64(cfg.Cycle)}, nil
}

// envelope is the sinusoid 1 + A*sin(2*pi*phase), strictly positive for
// A < 1.
func envelope(a float64, j, cycle int) float64 {
	return 1 + a*math.Sin(2*math.Pi*float64(j)/float64(cycle))
}

// Name implements Arrivals.
func (d Diurnal) Name() string { return "diurnal" }

// Rate implements Arrivals.
func (d Diurnal) Rate() float64 { return d.cfg.Rate }

// RateAt returns the instantaneous rate at arrival i — the envelope
// value the gap draw for i uses.
func (d Diurnal) RateAt(i uint64) float64 {
	j := int(i % uint64(d.cfg.Cycle))
	return d.cfg.Rate * d.norm * envelope(d.cfg.Amplitude, j, d.cfg.Cycle)
}

// Gap returns the gap preceding arrival i: exponential at the envelope
// rate for i's phase.
func (d Diurnal) Gap(i uint64) time.Duration {
	u := d.src.Float64(i)
	return time.Duration(-1e9 / d.RateAt(i) * math.Log(u))
}
