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
//     and a burst regime whose rate is 8 times higher, switching on
//     32-arrival epoch boundaries: a fifth of the epochs are bursts, four
//     epochs long on average.
//   - Diurnal: a sinusoidal rate envelope over the arrival index —
//     peak/trough traffic (±50 % over a 1024-arrival cycle) with the
//     cycle-average rate normalized to the nominal rate.
//   - Trace: replay of a recorded schedule (timestamps + request
//     classes), cycling past the recorded window.
//
// Poisson, MMPP and Diurnal take the same two arguments, (seed, rate):
// the modulated processes have one fixed shape each.
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

// checkRate rejects a rate that is not a positive finite number of
// requests per second.
func checkRate(process string, rps float64) error {
	if rps <= 0 || math.IsInf(rps, 0) || math.IsNaN(rps) {
		return fmt.Errorf("workloadgen: %s rate must be a positive finite rps, got %g", process, rps)
	}
	return nil
}

// NewPoisson returns a Poisson process averaging rps arrivals per second,
// keyed by seed.
func NewPoisson(seed int64, rps float64) (Poisson, error) {
	if err := checkRate("poisson", rps); err != nil {
		return Poisson{}, err
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

// The MMPP's fixed shape: the burst regime runs at mmppBurst times the
// base rate, a stationary mmppBurstFrac of epochs are bursts, a burst lasts
// mmppMeanBurstEpochs epochs on average (the chain leaves it with
// probability 1/mmppMeanBurstEpochs per epoch), and the chain is sampled
// once per mmppEpoch arrivals.
const (
	mmppBurst           = 8
	mmppBurstFrac       = 0.2
	mmppMeanBurstEpochs = 4
	mmppEpoch           = 32
)

// MMPP is the two-state Markov-modulated Poisson process: epochs of
// mmppEpoch arrivals each draw their gaps at the base rate or the burst
// rate according to a two-state Markov chain over epochs. The regime of
// epoch k is a pure function of (seed, k): it is recomputed by walking the
// chain from epoch 0, so Gap(i) costs O(i/mmppEpoch) chain steps — cheap
// for the schedule lengths the drivers use, and entirely stateless.
type MMPP struct {
	rps     float64
	gaps    noise.Source // one exponential draw per arrival
	chain   noise.Source // one transition draw per epoch
	baseNS  float64      // mean gap in the base regime
	burstNS float64      // mean gap in the burst regime
	pEnter  float64      // P(base -> burst) per epoch
	pLeave  float64      // P(burst -> base) per epoch
}

// NewMMPP returns the process at mean rate rps (requests per second),
// every draw keyed by seed. The base and burst rates are solved so the
// long-run mean rate equals rps: with stationary burst fraction f and
// multiplier B, the base rate is rps*((1-f) + f/B) and the burst rate B
// times that.
func NewMMPP(seed int64, rps float64) (MMPP, error) {
	if err := checkRate("mmpp", rps); err != nil {
		return MMPP{}, err
	}
	// float64 variables, not constant expressions: Go evaluates constant
	// arithmetic exactly, which could move the rates below by an ulp and
	// so a recorded schedule; on variables every operation rounds.
	burst, frac, residence := float64(mmppBurst), float64(mmppBurstFrac), float64(mmppMeanBurstEpochs)
	pLeave := 1 / residence
	baseRate := rps * ((1 - frac) + frac/burst)
	root := noise.NewSource(seed)
	return MMPP{
		rps:     rps,
		gaps:    root.Derive(0),
		chain:   root.Derive(1),
		baseNS:  1e9 / baseRate,
		burstNS: 1e9 / (baseRate * burst),
		pEnter:  frac * pLeave / (1 - frac),
		pLeave:  pLeave,
	}, nil
}

// Name implements Arrivals.
func (m MMPP) Name() string { return "mmpp" }

// Rate implements Arrivals.
func (m MMPP) Rate() float64 { return m.rps }

// Bursting reports whether arrival i falls in a burst epoch.
func (m MMPP) Bursting(i uint64) bool { return m.state(i / mmppEpoch) }

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

// The diurnal envelope's fixed shape: the instantaneous rate swings
// diurnalAmplitude of the mean either way (up to the cycle-average
// normalization) over a period of diurnalCycle arrivals.
const (
	diurnalAmplitude = 0.5
	diurnalCycle     = 1024
)

// Diurnal is a Poisson process whose rate follows a sinusoidal envelope
// over the arrival index with period diurnalCycle: a compressed day of
// traffic with a peak and a trough. The envelope is normalized so the
// expected time to serve one full cycle is exactly diurnalCycle/rate — the
// cycle-average offered rate is the nominal rate.
type Diurnal struct {
	rps  float64
	src  noise.Source
	norm float64 // cycle mean of 1/envelope, the Jensen correction
}

// NewDiurnal returns the process at cycle-average rate rps (requests per
// second), its gap draws keyed by seed.
func NewDiurnal(seed int64, rps float64) (Diurnal, error) {
	if err := checkRate("diurnal", rps); err != nil {
		return Diurnal{}, err
	}
	// E[cycle time] = sum over the cycle of 1/(rps*h*env_j) where
	// h = mean(1/env): the h factor cancels the sum to diurnalCycle/rps
	// exactly.
	var sum float64
	for j := 0; j < diurnalCycle; j++ {
		sum += 1 / envelope(j)
	}
	return Diurnal{rps: rps, src: noise.NewSource(seed), norm: sum / diurnalCycle}, nil
}

// envelope is the sinusoid 1 + A*sin(2*pi*j/diurnalCycle), strictly
// positive since A < 1.
func envelope(j int) float64 {
	return 1 + diurnalAmplitude*math.Sin(2*math.Pi*float64(j)/diurnalCycle)
}

// Name implements Arrivals.
func (d Diurnal) Name() string { return "diurnal" }

// Rate implements Arrivals.
func (d Diurnal) Rate() float64 { return d.rps }

// RateAt returns the instantaneous rate at arrival i — the envelope
// value the gap draw for i uses.
func (d Diurnal) RateAt(i uint64) float64 {
	return d.rps * d.norm * envelope(int(i%diurnalCycle))
}

// Gap returns the gap preceding arrival i: exponential at the envelope
// rate for i's phase.
func (d Diurnal) Gap(i uint64) time.Duration {
	u := d.src.Float64(i)
	return time.Duration(-1e9 / d.RateAt(i) * math.Log(u))
}
