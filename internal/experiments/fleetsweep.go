package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"cimrev/internal/dpe"
	"cimrev/internal/fleet"
	"cimrev/internal/nn"
	"cimrev/internal/serve"
	"cimrev/internal/workloadgen"
)

// FleetRow is one (routing policy, engine count) grid point of the
// cluster-scale serving sweep.
type FleetRow struct {
	// Policy is the routing policy name; Engines the fleet size.
	Policy  string
	Engines int
	// Requests is the closed-loop request count; Failed how many errored
	// (the zero-downtime contract says none, rolling reprogram included).
	Requests int
	Failed   int
	// SimThroughputRPS is simulated closed-loop throughput: requests
	// divided by the busiest engine's accumulated simulated serving time.
	// Boards serve concurrently in simulated time, so fleet time is the
	// max over engines, not the sum. Under round-robin it is exact at any
	// -parallel width: which engine serves a request is a function of its
	// sequence number. The load-aware policies route on live queue depth
	// and wear, so their rows follow host scheduling and vary run to run.
	SimThroughputRPS float64
	// SpeedupVs1 is this row's throughput over the same policy's 1-engine
	// row (1.0 when no 1-engine row is in the sweep).
	SpeedupVs1 float64
	// RolledEngines / RollingFailed report the rolling reprogram fired
	// mid-traffic: how many engines swapped to the new weights and how
	// many failed their health gate.
	RolledEngines int
	RollingFailed int
}

// FleetResult is the routing-policy x fleet-size sweep: the serving
// tier's answer to the paper's scale-out question. Simulated throughput
// should scale near-linearly with engine count under every policy; every
// flush is one request, so the gap between SpeedupVs1 and Engines is the
// policy's routing imbalance.
type FleetResult struct {
	Rows []FleetRow
	// Clients is the closed-loop client count every row ran with.
	Clients int
}

// FleetSweep runs a closed loop of clients against fleets of every
// (policy, engine count) combination, firing one rolling reprogram to a
// second weight set in the middle of each run. Grid points run serially —
// each point saturates the worker pool with its own client goroutines,
// and running them concurrently would skew the load-aware policies' routing.
// The round-robin rows are exact at any pool width; least-loaded and
// wear-aware route on live load, so their rows vary run to run.
func FleetSweep(engineCounts []int, policies []string, clients, requests int) (*FleetResult, error) {
	if len(engineCounts) == 0 || len(policies) == 0 {
		return nil, fmt.Errorf("experiments: empty fleet sweep")
	}
	if clients < 1 || requests < 1 {
		return nil, fmt.Errorf("experiments: fleet sweep needs clients >= 1 and requests >= 1, got %d, %d", clients, requests)
	}
	rng := rand.New(rand.NewSource(909))
	const dim, classes = 24, 10
	netA, err := nn.NewMLP("fleet-sweep-a", []int{dim, 32, classes}, rng)
	if err != nil {
		return nil, err
	}
	netB, err := nn.NewMLP("fleet-sweep-b", []int{dim, 32, classes}, rng)
	if err != nil {
		return nil, err
	}
	inputs := uniformInputs(rng, 64, dim)

	res := &FleetResult{Clients: clients}
	base := make(map[string]float64) // policy -> 1-engine throughput
	for _, policyName := range policies {
		for _, n := range engineCounts {
			row, err := fleetPoint(netA, netB, inputs, policyName, n, clients, requests)
			if err != nil {
				return nil, err
			}
			if n == 1 {
				base[policyName] = row.SimThroughputRPS
			}
			if b := base[policyName]; b > 0 {
				row.SpeedupVs1 = row.SimThroughputRPS / b
			} else {
				row.SpeedupVs1 = 1
			}
			res.Rows = append(res.Rows, *row)
		}
	}
	return res, nil
}

// fleetPoint measures one grid point: closed-loop clients drive the fleet
// while a rolling reprogram to netB fires mid-run.
func fleetPoint(netA, netB *nn.Network, inputs [][]float64, policyName string, engines, clients, requests int) (*FleetRow, error) {
	policy, err := fleet.ParsePolicy(policyName)
	if err != nil {
		return nil, err
	}
	cfg := dpe.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 64, 64
	// One request per flush, so an engine's simulated time is its routed
	// count times one request's latency. The batcher takes whatever arrived
	// during the previous flush, which on the host is a matter of
	// scheduling: with larger batches the speedup would measure the host.
	f, _, err := fleet.New(cfg, netA,
		fleet.WithEngines(engines),
		fleet.WithPolicy(policy),
		fleet.WithServeOptions(serve.WithBatch(1, 0)),
	)
	if err != nil {
		return nil, fmt.Errorf("experiments: fleet point (%s, %d): %w", policyName, engines, err)
	}
	defer f.Close()

	// Zero-downtime witness: roll the whole fleet onto netB while the
	// closed loop is in full flight. Every engine swaps, no request fails
	// (a failure is a Drop: counted, never retried).
	var rep *fleet.RollingReport
	rolled := make(chan struct{})
	go func() {
		defer close(rolled)
		rep = f.RollingReprogram(netB)
	}()
	drive, err := workloadgen.Drive(workloadgen.DriveConfig{Requests: requests, Clients: clients},
		func(req workloadgen.Request) (workloadgen.Outcome, error) {
			in := inputs[req.Seq%uint64(len(inputs))]
			if _, _, err := f.SubmitSeq(context.Background(), req.Seq, in); err != nil {
				return workloadgen.Drop, nil
			}
			return workloadgen.OK, nil
		})
	<-rolled
	if err != nil {
		return nil, err
	}

	row := &FleetRow{
		Policy:        policyName,
		Engines:       engines,
		Requests:      requests,
		Failed:        int(drive.Drops),
		RolledEngines: rep.Succeeded,
		RollingFailed: rep.Failed,
	}
	if ps := f.SimTimePS(); ps > 0 {
		row.SimThroughputRPS = float64(requests) / (float64(ps) * 1e-12)
	}
	return row, nil
}

// Format renders the sweep table.
func (r *FleetResult) Format() string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf(
		"Fleet — routing policy x engine count (%d closed-loop clients, rolling reprogram mid-run)\n", r.Clients))
	b.WriteString(fmt.Sprintf("%-13s %-8s %9s %13s %8s %7s %7s\n",
		"policy", "engines", "requests", "sim rps", "speedup", "failed", "rolled"))
	for _, row := range r.Rows {
		b.WriteString(fmt.Sprintf("%-13s %-8d %9d %13.0f %7.2fx %7d %4d/%-2d\n",
			row.Policy, row.Engines, row.Requests, row.SimThroughputRPS, row.SpeedupVs1,
			row.Failed, row.RolledEngines, row.RolledEngines+row.RollingFailed))
	}
	return b.String()
}
