package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cimrev/internal/chaos"
	"cimrev/internal/dpe"
	"cimrev/internal/fleet"
	"cimrev/internal/nn"
	"cimrev/internal/serve"
	"cimrev/internal/workloadgen"
)

// ChaosRow is one (scenario, hedging) cell of the SLO-retention chaos
// sweep: a fixed fleet driven through one failure scenario, scored against
// the fault-free single-engine oracle.
type ChaosRow struct {
	// Scenario is the chaos scenario name ("none" is the fault-free
	// baseline); Hedged reports whether hedged requests were enabled.
	Scenario string
	Hedged   bool
	// Requests is the offered load; Shed counts requests refused with a
	// capacity error (serve.ErrOverloaded — deliberate load shedding, the
	// overload scenario's design outcome); Lost counts requests that failed
	// any other way. The SLO is Lost == 0 in every scenario: chaos may cost
	// latency or shed under overload, never silently lose a keyed request.
	Requests int
	Shed     int
	Lost     int
	// Mismatched counts successful requests whose output was not
	// bit-identical to the fault-free single-engine oracle. BitIdentical
	// is the contract: Mismatched == 0.
	Mismatched   int
	BitIdentical bool
	// Hedges / HedgeWins / BrownoutSheds are the fleet's resilience
	// counters for the run.
	Hedges, HedgeWins, BrownoutSheds int64
	// WallP99NS is the host-side p99 latency over successful requests, the
	// number the overload SLO gate (Check) reads. Wall-clock: it varies run
	// to run and is not replayed.
	WallP99NS float64
	// RolledEngines / RollingFailed report the rolling reprogram the crash
	// scenario fires mid-run (0 for the other scenarios).
	RolledEngines, RollingFailed int
}

// ChaosResult is the scenario x hedging sweep: the serving tier's SLO
// retention under injected faults. Outputs stay bit-identical to the
// fault-free oracle in every cell — chaos perturbs timing and
// availability, never answers — and no cell loses a keyed request; the
// straggler rows are the hedging headline, where the hedged p99 should
// recover most of the regression the straggler inflicts on the unhedged
// fleet.
type ChaosResult struct {
	Rows []ChaosRow
	// Engines is the fleet size every cell ran with.
	Engines int
}

// chaosSweepEngines is the fleet size for every cell: enough members that
// one faulty engine leaves real failover capacity, small enough that the
// faulty engine still sees a meaningful share of traffic.
const chaosSweepEngines = 3

// ChaosSweep runs every scenario with hedging off and on. A nil scenario
// list selects the full catalog (chaos.ScenarioNames). All cells reuse one
// fault-free single-engine oracle as the bit-identity reference; the
// overload scenario drives the fleet open-loop from a deterministic
// Poisson burst (closed-loop clients self-throttle and cannot overload
// anything), the crash scenario fires a rolling reprogram mid-run so the
// crash window overlaps reprogram hangs, and the rest run closed-loop.
func ChaosSweep(scenarios []string, requests int) (*ChaosResult, error) {
	if scenarios == nil {
		scenarios = chaos.ScenarioNames()
	}
	if len(scenarios) == 0 || requests < 1 {
		return nil, fmt.Errorf("experiments: chaos sweep needs scenarios and requests >= 1")
	}
	// A deliberately small network: the sweep measures tail *recovery*, so
	// the fault-free latency floor must sit well below the injected stalls
	// or the hedge delay cannot separate stuck requests from normal ones.
	rng := rand.New(rand.NewSource(1313))
	const dim, classes = 16, 10
	net, err := nn.NewMLP("chaos-sweep", []int{dim, 16, classes}, rng)
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

	oracle, err := chaosOracle(net, inputs, requests)
	if err != nil {
		return nil, err
	}
	res := &ChaosResult{Engines: chaosSweepEngines}
	for _, scenario := range scenarios {
		for _, hedged := range []bool{false, true} {
			row, err := chaosPoint(net, inputs, oracle, scenario, hedged, requests)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, *row)
		}
	}
	return res, nil
}

// chaosOracle computes every request's fault-free answer on one engine, as
// a single keyed batch. Keyed noise makes this the unique correct output
// for request seq regardless of fleet size, routing, batching, hedging, or
// injected faults.
func chaosOracle(net *nn.Network, inputs [][]float64, requests int) ([][]float64, error) {
	eng, err := dpe.New(chaosDPEConfig())
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos oracle: %w", err)
	}
	if _, err := eng.Load(net); err != nil {
		return nil, fmt.Errorf("experiments: chaos oracle: %w", err)
	}
	seqs := make([]uint64, requests)
	ins := make([][]float64, requests)
	for seq := range seqs {
		seqs[seq] = uint64(seq)
		ins[seq] = inputs[seq%len(inputs)]
	}
	out, _, err := eng.InferBatchKeyed(seqs, ins)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos oracle: %w", err)
	}
	return out, nil
}

func chaosDPEConfig() dpe.Config {
	cfg := dpe.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 64, 64
	return cfg
}

// chaosPoint runs one (scenario, hedging) cell.
func chaosPoint(net *nn.Network, inputs [][]float64, oracle [][]float64, scenario string, hedged bool, requests int) (*ChaosRow, error) {
	// The straggler must stand clear of the fleet's natural latency for the
	// hedge race to be measurable. That floor is tens of microseconds here,
	// but a host stall can lift a tail by milliseconds, so scale the stall
	// to ~20ms: a stuck request is unambiguous at any plausible floor. The
	// other scenarios keep canonical scale.
	scale := 1.0
	if scenario == "straggler" {
		scale = 10
	}
	plan, err := chaos.ScenarioPlan(scenario, 1717, scale)
	if err != nil {
		return nil, err
	}
	opts := []fleet.Option{
		fleet.WithEngines(chaosSweepEngines),
		fleet.WithPolicy(fleet.LeastLoaded()),
		fleet.WithChaos(chaos.New(plan)),
		// A small queue bound plus the AIMD limiter keep queueing delay
		// bounded under the overload burst: excess offered load sheds
		// instead of stretching the tail of admitted requests.
		fleet.WithServeOptions(serve.WithBatch(16, 0), serve.WithQueueBound(32)),
		fleet.WithOverloadControl(fleet.OverloadConfig{InitialLimit: 16}),
	}
	if hedged {
		// Default p95 tracking and 5% budget. The delay cap must thread a
		// needle: above the fault-free tail (under 1ms here, so normal
		// requests do not burn hedge tokens and starve the genuinely stuck
		// ones) but far below the straggler stall (so a hedge still saves
		// most of it).
		// The small burst bank keeps total hedge volume a rounding error
		// against the cell's request count.
		opts = append(opts, fleet.WithHedge(fleet.HedgeConfig{MaxDelay: 4 * time.Millisecond, Burst: 8}))
	}
	f, _, err := fleet.New(chaosDPEConfig(), net, opts...)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos point (%s, hedged=%v): %w", scenario, hedged, err)
	}
	defer f.Close()

	// The drive's own Shed outcome means "retry" to a closed loop; the sweep
	// counts a shed and moves on, so it keeps its own counters and reports
	// every refusal as a Drop.
	var shed, lost, mismatched atomic.Int64
	submit := func(req workloadgen.Request) (workloadgen.Outcome, error) {
		seq := req.Seq
		in := inputs[seq%uint64(len(inputs))]
		pri := fleet.PriorityHigh
		if scenario == "overload" && seq%4 == 3 {
			// A quarter of the burst is deferrable: brownout sheds it first.
			pri = fleet.PriorityLow
		}
		out, _, err := f.SubmitSeqPri(context.Background(), seq, in, pri)
		switch {
		case err == nil:
			if !sliceEqual(out, oracle[seq]) {
				mismatched.Add(1)
			}
			return workloadgen.OK, nil
		case errors.Is(err, serve.ErrOverloaded):
			shed.Add(1)
		default:
			lost.Add(1)
		}
		return workloadgen.Drop, nil
	}

	drive := workloadgen.DriveConfig{Requests: requests, Clients: 8}
	if scenario == "overload" {
		// Open loop: a deterministic Poisson burst arriving far faster than
		// the spiked fleet can serve. Arrivals do not wait for responses —
		// that is what makes overload reachable (workloadgen.Drive fires the
		// absolute schedule, so the 5µs mean gap survives the host's sleep
		// granularity).
		arr, err := workloadgen.NewPoisson(plan.Seed, 200_000)
		if err != nil {
			return nil, err
		}
		drive.Arrivals = arr
	}
	rolled, rollFailed := 0, 0
	var roll sync.WaitGroup
	if scenario == "crash" {
		// The crash window races a rolling reprogram (same network, so
		// the oracle stays valid): reprogram hangs pin the roll while
		// engine 0 is dark — the crash-during-rolling-reprogram case.
		roll.Add(1)
		go func() {
			defer roll.Done()
			time.Sleep(2 * time.Millisecond)
			rep := f.RollingReprogram(net)
			rolled, rollFailed = rep.Succeeded, rep.Failed
		}()
	}
	_, err = workloadgen.Drive(drive, submit)
	roll.Wait()
	if err != nil {
		return nil, err
	}

	reg := f.Registry()
	lat := reg.Histogram("fleet.latency_ns").Snapshot()
	row := &ChaosRow{
		Scenario:      scenario,
		Hedged:        hedged,
		Requests:      requests,
		Shed:          int(shed.Load()),
		Lost:          int(lost.Load()),
		Mismatched:    int(mismatched.Load()),
		BitIdentical:  mismatched.Load() == 0,
		Hedges:        reg.Counter("fleet.hedged").Value(),
		HedgeWins:     reg.Counter("fleet.hedge_won").Value(),
		BrownoutSheds: reg.Counter("fleet.brownout_shed").Value(),
		WallP99NS:     lat.Quantile(0.99),
		RolledEngines: rolled,
		RollingFailed: rollFailed,
	}
	return row, nil
}

// sliceEqual is exact float comparison — the contract is bit-identity, not
// tolerance.
func sliceEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Check is the chaos-harness SLO gate; cimbench runs it after writing the
// sweep. No cell may lose a keyed request (chaos may cost latency, or shed
// under overload, but hedging and typed failover exist so that a crashed or
// stalled engine's requests land somewhere else) and every cell must stay
// bit-identical to the fault-free oracle: injected faults perturb timing
// and availability, never answers. Every overload cell's wall p99 must be
// under DefaultSLO, the objective the capacity sweep rates against — what
// adaptive shedding buys: excess load is refused, admitted requests keep
// their latency. A sweep without an overload cell fails rather than pass
// with the tail unchecked.
func (r *ChaosResult) Check() error {
	overload := 0
	for _, row := range r.Rows {
		if row.Lost != 0 {
			return fmt.Errorf("chaos gate: %s (hedged=%v) lost %d keyed requests, want 0", row.Scenario, row.Hedged, row.Lost)
		}
		if !row.BitIdentical {
			return fmt.Errorf("chaos gate: %s (hedged=%v) is not bit-identical to the fault-free oracle (%d mismatched)",
				row.Scenario, row.Hedged, row.Mismatched)
		}
		if row.Scenario != "overload" {
			continue
		}
		overload++
		if row.WallP99NS >= float64(DefaultSLO.Nanoseconds()) {
			return fmt.Errorf("chaos gate: overload p99 %.0f ns is not under the %v SLO (hedged=%v)", row.WallP99NS, DefaultSLO, row.Hedged)
		}
	}
	if overload == 0 {
		return fmt.Errorf("chaos gate: no overload cell to hold to the %v SLO", DefaultSLO)
	}
	return nil
}

// Format renders the sweep table.
func (r *ChaosResult) Format() string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf(
		"Chaos — SLO retention under injected faults (%d engines, least-loaded, AIMD overload control)\n", r.Engines))
	b.WriteString(fmt.Sprintf("%-11s %-6s %9s %6s %5s %8s %7s %6s %11s %5s\n",
		"scenario", "hedge", "requests", "shed", "lost", "hedges", "wins", "brown", "wall p99", "bits"))
	for _, row := range r.Rows {
		hedged := "off"
		if row.Hedged {
			hedged = "on"
		}
		bits := "OK"
		if !row.BitIdentical {
			bits = fmt.Sprintf("%d!", row.Mismatched)
		}
		b.WriteString(fmt.Sprintf("%-11s %-6s %9d %6d %5d %8d %7d %6d %9.0fus %5s\n",
			row.Scenario, hedged, row.Requests, row.Shed, row.Lost,
			row.Hedges, row.HedgeWins, row.BrownoutSheds,
			row.WallP99NS/1e3, bits))
	}
	return b.String()
}
