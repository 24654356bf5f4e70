package dpe

import (
	"fmt"

	"cimrev/internal/energy"
	"cimrev/internal/interconnect"
	"cimrev/internal/nn"
	"cimrev/internal/parallel"
)

// Cluster is a multi-board DPE deployment: "we consider acceptable scaling
// to existing neural networks by having multiple boards interconnected
// through standard and proprietary interconnects" (Section VI). Each board
// holds a replica of the network; batches split across boards, with inputs
// and outputs crossing photonic links from the host-attached board 0.
type Cluster struct {
	engines []*Engine
	link    *interconnect.PhotonicLink
}

// NewCluster builds a cluster of boards joined by photonic links of
// linkLenM meters carrying linkBW bytes/s.
func NewCluster(cfg Config, boards int, linkLenM, linkBW float64) (*Cluster, error) {
	if boards <= 0 {
		return nil, fmt.Errorf("dpe: cluster needs at least one board, got %d", boards)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	link, err := interconnect.NewPhotonicLink(linkLenM, linkBW)
	if err != nil {
		return nil, err
	}
	engines := make([]*Engine, boards)
	for i := range engines {
		boardCfg := cfg
		boardCfg.Seed = cfg.Seed + int64(i)
		eng, err := New(boardCfg)
		if err != nil {
			return nil, err
		}
		engines[i] = eng
	}
	return &Cluster{engines: engines, link: link}, nil
}

// Load programs every board with a replica of the network. Boards program
// in parallel: latency is the slowest board, energy sums. Each board owns
// its arrays, so the simulator fans boards across the worker pool and
// folds per-board costs in board order.
func (c *Cluster) Load(net *nn.Network) (energy.Cost, error) {
	costs := make([]energy.Cost, len(c.engines))
	err := parallel.ForErr(len(c.engines), func(i int) error {
		cost, err := c.engines[i].Load(net)
		if err != nil {
			return fmt.Errorf("dpe: load board %d: %w", i, err)
		}
		costs[i] = cost
		return nil
	})
	if err != nil {
		return energy.Zero, err
	}
	total := energy.Zero
	for _, cost := range costs {
		total = total.Par(cost)
	}
	return total, nil
}

// InferBatch distributes inputs round-robin across boards and runs each
// board's share serially; boards run in parallel — both in simulated time
// and in wall-clock time: each board is handled by one worker goroutine
// from the shared pool, which walks that board's share in index order
// (each engine numbers its inferences for counter-based noise derivation)
// and accumulates its serial cost. Inputs and outputs for boards other
// than 0 cross the photonic
// link. Per-board costs fold in board order, so the total is bit-identical
// to serial execution at any pool width.
func (c *Cluster) InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error) {
	if len(inputs) == 0 {
		return nil, energy.Zero, fmt.Errorf("dpe: empty batch")
	}
	outs := make([][]float64, len(inputs))
	boardCost := make([]energy.Cost, len(c.engines))
	err := parallel.ForErr(len(c.engines), func(b int) error {
		eng := c.engines[b]
		for i := b; i < len(inputs); i += len(c.engines) {
			in := inputs[i]
			out, cost, err := eng.Infer(in)
			if err != nil {
				return fmt.Errorf("dpe: board %d input %d: %w", b, i, err)
			}
			if b != 0 {
				bytes := 8 * (len(in) + len(out))
				xfer, err := c.link.Transfer(bytes)
				if err != nil {
					return err
				}
				cost = cost.Seq(xfer)
			}
			boardCost[b] = boardCost[b].Seq(cost)
			outs[i] = out
		}
		return nil
	})
	if err != nil {
		return nil, energy.Zero, err
	}
	total := energy.Zero
	for _, bc := range boardCost {
		total = total.Par(bc)
	}
	return outs, total, nil
}

// ReprogramAll loads a new same-topology network on every board, with or
// without write-asymmetry hiding. Boards reprogram in parallel, fanned
// across the worker pool with a board-ordered cost fold.
func (c *Cluster) ReprogramAll(net *nn.Network, hide bool) (energy.Cost, error) {
	costs := make([]energy.Cost, len(c.engines))
	err := parallel.ForErr(len(c.engines), func(i int) error {
		cost, err := c.engines[i].Reprogram(net, hide)
		if err != nil {
			return fmt.Errorf("dpe: reprogram board %d: %w", i, err)
		}
		costs[i] = cost
		return nil
	})
	if err != nil {
		return energy.Zero, err
	}
	total := energy.Zero
	for _, cost := range costs {
		total = total.Par(cost)
	}
	return total, nil
}

// ScalingEfficiency returns throughput(boards)/(boards x throughput(1))
// for the given batch latencies: 1.0 is perfectly linear scaling.
func ScalingEfficiency(oneBoard, nBoards energy.Cost, boards int) float64 {
	if nBoards.LatencyPS == 0 || oneBoard.LatencyPS == 0 || boards <= 0 {
		return 0
	}
	speedup := float64(oneBoard.LatencyPS) / float64(nBoards.LatencyPS)
	return speedup / float64(boards)
}
