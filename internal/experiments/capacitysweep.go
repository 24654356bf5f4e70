package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cimrev/internal/fleet"
	"cimrev/internal/nn"
	"cimrev/internal/serve"
	"cimrev/internal/workloadgen"
)

// DefaultSLO is the serving tier's p99 latency objective: the capacity
// sweep rates cells against it unless told otherwise, and the chaos gate
// holds the overload cells to it.
const DefaultSLO = 25 * time.Millisecond

// CapacityConfig parameterizes the SLO capacity sweep. Zero values select
// the defaults; the schedule of every cell is a pure function of Seed.
type CapacityConfig struct {
	// Engines are the fleet sizes to rate (default 1, 2, 4).
	Engines []int
	// RatesRPS is the ascending offered-rate ladder every fleet size is
	// driven through (default 1k..64k rps). The ladder should straddle
	// the knee: a fleet that absorbs every rung is rated at the top one,
	// which says only that the ladder was too short.
	RatesRPS []float64
	// Requests is the offered load per cell (default 1200).
	Requests int
	// SLO is the p99 service-latency objective a cell must meet, on top
	// of zero shed and zero lost requests (default DefaultSLO).
	SLO time.Duration
	// Seed keys the arrival schedule and the request-class mix.
	Seed int64
}

// withDefaults fills zero fields.
func (c CapacityConfig) withDefaults() CapacityConfig {
	if c.Engines == nil {
		c.Engines = []int{1, 2, 4}
	}
	if c.RatesRPS == nil {
		// The top rung sits far past the measured knee (~32k req/s on a
		// stock container, host-core bound) and the rest sit well under
		// it: cells should pass or fail decisively, not wobble at the
		// margin.
		c.RatesRPS = []float64{1000, 2000, 4000, 8000, 16000, 64000}
	}
	if c.Requests == 0 {
		c.Requests = 1200
	}
	if c.SLO == 0 {
		c.SLO = DefaultSLO
	}
	if c.Seed == 0 {
		c.Seed = 2121
	}
	return c
}

// validate fails fast on degenerate sweeps.
func (c CapacityConfig) validate() error {
	if len(c.Engines) == 0 || len(c.RatesRPS) == 0 {
		return fmt.Errorf("experiments: capacity sweep needs engines and rates")
	}
	for _, k := range c.Engines {
		if k < 1 {
			return fmt.Errorf("experiments: capacity sweep engines must be >= 1, got %d", k)
		}
	}
	for i, r := range c.RatesRPS {
		if r <= 0 {
			return fmt.Errorf("experiments: capacity sweep rates must be > 0, got %g", r)
		}
		if i > 0 && r <= c.RatesRPS[i-1] {
			return fmt.Errorf("experiments: capacity sweep rates must ascend, got %g after %g", r, c.RatesRPS[i-1])
		}
	}
	if c.Requests < 1 {
		return fmt.Errorf("experiments: capacity sweep needs requests >= 1")
	}
	if c.SLO <= 0 {
		return fmt.Errorf("experiments: capacity sweep needs a positive SLO")
	}
	return nil
}

// CapacityCell is one (engines, offered rate) point of the grid: an
// open-loop Poisson drive with the default request-class mix against a
// fresh fleet, scored against the SLO.
type CapacityCell struct {
	Engines int
	RateRPS float64
	// Requests is the offered load; OKs were served, Shed were refused
	// for capacity (open loop: counted, never retried), Lost failed any
	// other way.
	Requests        int
	OKs, Shed, Lost int64
	// P50NS / P99NS are client-observed service-latency quantiles over
	// served requests (queueing included). LateP99NS is the p99 schedule
	// slip of the generator itself — nonzero lateness means the *driver*
	// could not keep the schedule, a separate failure from backend
	// latency.
	P50NS, P99NS, LateP99NS float64
	// AchievedRPS is served requests over wall time; PeakInFlight is the
	// high-water mark of concurrently outstanding requests — the
	// queue-growth witness a closed loop structurally cannot show.
	AchievedRPS  float64
	PeakInFlight int64
	// Pass is the cell's SLO verdict: zero shed, zero lost, p99 < SLO.
	Pass bool
}

// CapacityRated is the rated capacity of one fleet size: the top of the
// passing prefix of the rate ladder (every rate below it also passed).
type CapacityRated struct {
	Engines  int
	RatedRPS float64 // 0 when even the lowest rate failed
	P99NS    float64 // the rated cell's p99
}

// CapacityCompareRow is one side of the closed-vs-open comparison at the
// top ladder rate: the same fleet, the same request count, driven
// closed-loop (8 clients, retry on shed) and open-loop (the schedule
// does not wait). The closed loop self-throttles — achieved falls short
// of offered with zero shed and a healthy tail, hiding the overload the
// open loop exposes as shed load or a blown p99.
type CapacityCompareRow struct {
	Engines      int
	Mode         string // "closed" or "open"
	OfferedRPS   float64
	AchievedRPS  float64
	Shed, Lost   int64
	P99NS        float64
	PeakInFlight int64
}

// CapacityResult is the full sweep: the grid, the rated capacity per
// fleet size, and the closed-vs-open comparison.
type CapacityResult struct {
	Cells   []CapacityCell
	Rated   []CapacityRated
	Compare []CapacityCompareRow
	SLO     time.Duration
}

// CapacitySweep drives every fleet size through the offered-rate ladder
// open-loop and reports rated capacity under the SLO. Every cell runs the
// default request-class mix (batch-1 and batch-8 neural inference plus
// analytics probes) on a fresh fleet; the arrival schedule and class
// sequence are pure functions of cfg.Seed, so two runs offer identical
// load — only the wall-clock outcomes (latency, shed) depend on the host.
func CapacitySweep(cfg CapacityConfig) (*CapacityResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// The same deliberately small network the chaos sweep serves: capacity
	// is a property of the serving tier (batching, queue bounds, engine
	// count), and a small model keeps per-cell wall time manageable.
	rng := rand.New(rand.NewSource(4242))
	const dim, classes = 16, 10
	net, err := nn.NewMLP("capacity-sweep", []int{dim, 16, classes}, rng)
	if err != nil {
		return nil, err
	}
	inputs := make([][]float64, 64)
	for i := range inputs {
		inputs[i] = make([]float64, dim)
		for j := range inputs[i] {
			inputs[i][j] = rng.Float64()*2 - 1
		}
	}
	mix := workloadgen.DefaultMix(cfg.Seed)

	res := &CapacityResult{SLO: cfg.SLO}
	topRate := cfg.RatesRPS[len(cfg.RatesRPS)-1]
	for _, k := range cfg.Engines {
		rated := CapacityRated{Engines: k}
		prefix := true
		var topCell *CapacityCell
		for _, rate := range cfg.RatesRPS {
			arr, err := workloadgen.NewPoisson(cfg.Seed, rate)
			if err != nil {
				return nil, err
			}
			rep, err := capacityDrive(net, inputs, mix, k, workloadgen.DriveConfig{
				Arrivals: arr,
				Mix:      mix,
				Requests: cfg.Requests,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: capacity cell (K=%d, %g rps): %w", k, rate, err)
			}
			cell := capacityScore(k, rate, rep, cfg.SLO)
			res.Cells = append(res.Cells, cell)
			// Rated capacity is the top of the *passing prefix*: a pass
			// above a failure does not extend the rating — capacity must
			// be sustainable at every rate up to it.
			if prefix && cell.Pass {
				rated.RatedRPS, rated.P99NS = rate, cell.P99NS
			} else {
				prefix = false
			}
			if rate == topRate {
				c := cell
				topCell = &c
			}
		}
		res.Rated = append(res.Rated, rated)

		// The comparison pair at the top ladder rate: the open side is the
		// grid's own top cell; the closed side re-drives the same load
		// with 8 waiting clients.
		closedRep, err := capacityDrive(net, inputs, mix, k, workloadgen.DriveConfig{
			Mix:      mix,
			Requests: cfg.Requests,
			Clients:  8,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: capacity closed-loop (K=%d): %w", k, err)
		}
		res.Compare = append(res.Compare,
			CapacityCompareRow{
				Engines: k, Mode: "closed", OfferedRPS: topRate,
				AchievedRPS: closedRep.AchievedRPS,
				Shed:        closedRep.Sheds, Lost: closedRep.Drops,
				P99NS:        closedRep.Latency.Quantile(0.99),
				PeakInFlight: closedRep.PeakInFlight,
			},
			CapacityCompareRow{
				Engines: k, Mode: "open", OfferedRPS: topRate,
				AchievedRPS: topCell.AchievedRPS,
				Shed:        topCell.Shed, Lost: topCell.Lost,
				P99NS:        topCell.P99NS,
				PeakInFlight: topCell.PeakInFlight,
			})
	}
	return res, nil
}

// capacityDrive builds a fresh K-engine fleet and runs one workloadgen
// drive against it. Request classes map onto the fleet as Batch
// concurrent keyed submissions (distinct noise keys per element); a
// request is served only if every element is.
func capacityDrive(net *nn.Network, inputs [][]float64, mix workloadgen.Mix, k int, dcfg workloadgen.DriveConfig) (workloadgen.Report, error) {
	f, _, err := fleet.New(chaosDPEConfig(), net,
		fleet.WithEngines(k),
		fleet.WithPolicy(fleet.LeastLoaded()),
		// The queue bound is the knee-shaper: below capacity the queue
		// never fills and nothing sheds; above it, excess arrivals shed
		// fast instead of stretching the admitted tail without bound.
		fleet.WithServeOptions(serve.WithBatch(16, 100*time.Microsecond), serve.WithQueueBound(64)),
	)
	if err != nil {
		return workloadgen.Report{}, err
	}
	defer f.Close()

	submit := func(req workloadgen.Request) (workloadgen.Outcome, error) {
		return workloadgen.Fanout(req, func(element int) (workloadgen.Outcome, error) {
			seq := req.ElementKey(element)
			_, _, err := f.SubmitSeq(context.Background(), seq, inputs[seq%uint64(len(inputs))])
			switch {
			case err == nil:
				return workloadgen.OK, nil
			case errors.Is(err, serve.ErrOverloaded):
				return workloadgen.Shed, nil
			default:
				return workloadgen.Drop, nil
			}
		})
	}
	return workloadgen.Drive(dcfg, submit)
}

// capacityScore folds a drive report into a scored grid cell.
func capacityScore(k int, rate float64, rep workloadgen.Report, slo time.Duration) CapacityCell {
	cell := CapacityCell{
		Engines:      k,
		RateRPS:      rate,
		Requests:     rep.Requests,
		OKs:          rep.OKs,
		Shed:         rep.Sheds,
		Lost:         rep.Drops,
		P50NS:        rep.Latency.Quantile(0.5),
		P99NS:        rep.Latency.Quantile(0.99),
		LateP99NS:    rep.Lateness.Quantile(0.99),
		AchievedRPS:  rep.AchievedRPS,
		PeakInFlight: rep.PeakInFlight,
	}
	cell.Pass = cell.Shed == 0 && cell.Lost == 0 && cell.P99NS < float64(slo.Nanoseconds())
	return cell
}

// Check is the capacity-planning gate; cimbench runs it after writing the
// sweep. Per fleet size (docs/CAPACITY.md) the knee must be monotone — the
// passing cells form a prefix of the ascending rate ladder, because a pass
// above a failure means the knee is noise, not capacity, and the rated
// number under it is not reproducible — and the fleet must rate at some
// rung: one that cannot serve the bottom of the ladder has no capacity to
// report.
func (r *CapacityResult) Check() error {
	failed := map[int]bool{} // engines -> a lower rung already failed
	for _, c := range r.Cells {
		if c.Pass && failed[c.Engines] {
			return fmt.Errorf("capacity gate: engines=%d passes at %g rps after failing at a lower rate — the knee is not monotone", c.Engines, c.RateRPS)
		}
		if !c.Pass {
			failed[c.Engines] = true
		}
	}
	for _, rt := range r.Rated {
		if rt.RatedRPS == 0 {
			return fmt.Errorf("capacity gate: engines=%d passes at no rate on the ladder", rt.Engines)
		}
	}
	return nil
}

// Format renders the sweep tables.
func (r *CapacityResult) Format() string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf(
		"Capacity — open-loop SLO rating (p99 < %v, zero shed, zero lost; default class mix)\n", r.SLO))
	b.WriteString(fmt.Sprintf("%-3s %9s %9s %6s %5s %11s %11s %12s %8s %5s\n",
		"K", "rate", "achieved", "shed", "lost", "p50", "p99", "late p99", "peak", "SLO"))
	for _, c := range r.Cells {
		verdict := "FAIL"
		if c.Pass {
			verdict = "pass"
		}
		b.WriteString(fmt.Sprintf("%-3d %7.0f/s %7.0f/s %6d %5d %9.0fus %9.0fus %10.0fus %8d %5s\n",
			c.Engines, c.RateRPS, c.AchievedRPS, c.Shed, c.Lost,
			c.P50NS/1e3, c.P99NS/1e3, c.LateP99NS/1e3, c.PeakInFlight, verdict))
	}
	b.WriteString("\nRated capacity (top of the passing prefix):\n")
	for _, rt := range r.Rated {
		b.WriteString(fmt.Sprintf("  K=%d  %8.0f req/s  (p99 %.0fus)\n", rt.Engines, rt.RatedRPS, rt.P99NS/1e3))
	}
	b.WriteString("\nClosed vs open loop at the top ladder rate (what coordinated omission hides):\n")
	b.WriteString(fmt.Sprintf("%-3s %-7s %9s %9s %6s %5s %11s %8s\n",
		"K", "mode", "offered", "achieved", "shed", "lost", "p99", "peak"))
	for _, row := range r.Compare {
		b.WriteString(fmt.Sprintf("%-3d %-7s %7.0f/s %7.0f/s %6d %5d %9.0fus %8d\n",
			row.Engines, row.Mode, row.OfferedRPS, row.AchievedRPS,
			row.Shed, row.Lost, row.P99NS/1e3, row.PeakInFlight))
	}
	return b.String()
}
