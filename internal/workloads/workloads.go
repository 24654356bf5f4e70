// Package workloads encodes the 14 application classes of the paper's
// Appendix A (Table 2), each as (a) the paper's qualitative trait row and
// (b) a quantitative kernel whose parameters feed the suitability model
// that regenerates the table's CIM column.
//
// Kernel numbers follow a uniform mapping from the qualitative levels
// (low/medium/high compute -> 1e8/1e9/1e10 FLOPs per unit of work, and so
// on), plus two class-specific judgments the paper's prose motivates:
//
//   - MVMFrac: the fraction of the work expressible as stationary-operand
//     dataflow operations (matrix-vector products, in-array bitwise ops,
//     associative lookups). High for NN/ML ("the dataflow nature of tensor
//     operations"), graph analytics (SpMV), and analytic scans; near zero
//     for pointer-chasing and control-heavy codes.
//   - StationaryFrac: the fraction of the data that lives inside CIM
//     arrays rather than streaming through the fabric.
package workloads

import "fmt"

// Level is the paper's qualitative scale.
type Level int

const (
	// Low maps to the bottom of a trait's range.
	Low Level = iota + 1
	// Medium is the middle of the range.
	Medium
	// High is the top of the range.
	High
)

// String names the level as the paper prints it.
func (l Level) String() string {
	switch l {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Class enumerates the Table 2 application classes.
type Class int

const (
	// MachineLearning is classical ML training/scoring.
	MachineLearning Class = iota + 1
	// NeuralNetworks is deep network inference.
	NeuralNetworks
	// GraphProblems is large-graph analytics (FB, intelligence).
	GraphProblems
	// BayesianInference is probabilistic inference.
	BayesianInference
	// MarkovChain is Markov-chain simulation.
	MarkovChain
	// KVS is a key-value persistency layer.
	KVS
	// DBAnalytics is analytical database scans.
	DBAnalytics
	// DBTransactions is transactional database processing.
	DBTransactions
	// Search is index construction and query.
	Search
	// Optimization is resource-allocation optimization.
	Optimization
	// Scientific is general scientific computing.
	Scientific
	// FEM is finite element modeling.
	FEM
	// Collaborative is mail/chat-style collaborative software.
	Collaborative
	// SignalProcessing is image/signal pipelines.
	SignalProcessing
)

// Classes lists every class in Table 2 row order.
func Classes() []Class {
	return []Class{
		MachineLearning, NeuralNetworks, GraphProblems, BayesianInference,
		MarkovChain, KVS, DBAnalytics, DBTransactions, Search,
		Optimization, Scientific, FEM, Collaborative, SignalProcessing,
	}
}

// String names the class as Table 2 does.
func (c Class) String() string {
	switch c {
	case MachineLearning:
		return "Machine learning"
	case NeuralNetworks:
		return "Neural Networks"
	case GraphProblems:
		return "Graph problems"
	case BayesianInference:
		return "Bayesian inference"
	case MarkovChain:
		return "Markov chain"
	case KVS:
		return "KVSs (persistency)"
	case DBAnalytics:
		return "Data Bases (analytics)"
	case DBTransactions:
		return "Data Bases (transactions)"
	case Search:
		return "Search (indexing)"
	case Optimization:
		return "Optimization problem"
	case Scientific:
		return "Scientific Computing"
	case FEM:
		return "Finite Element Modelling"
	case Collaborative:
		return "Collaborative (mail, chat)"
	case SignalProcessing:
		return "Signal (image) processing"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Traits is the part of the paper's qualitative Table 2 row the
// reproduction uses: the compute and data-size columns, which size a
// class's Kernel, and the verdict.
type Traits struct {
	Compute  Level
	DataSize Level
	// PaperCIM is the paper's verdict — the value our measured
	// reproduction must match.
	PaperCIM Level
}

// Traits returns the paper's Table 2 row for the class. Ranged cells
// ("low to med.", "low to high") round to Medium.
func (c Class) Traits() Traits {
	switch c {
	case MachineLearning:
		return Traits{High, High, High}
	case NeuralNetworks:
		return Traits{High, High, High}
	case GraphProblems:
		return Traits{Low, High, High}
	case BayesianInference:
		return Traits{High, Low, Low}
	case MarkovChain:
		return Traits{High, Low, Low}
	case KVS:
		return Traits{Low, High, Medium}
	case DBAnalytics:
		return Traits{Low, High, High}
	case DBTransactions:
		return Traits{Medium, Medium, Medium}
	case Search:
		return Traits{High, High, Low}
	case Optimization:
		return Traits{High, Low, Low}
	case Scientific:
		return Traits{High, Medium, Low}
	case FEM:
		return Traits{High, Medium, Medium}
	case Collaborative:
		return Traits{Low, Medium, Low}
	case SignalProcessing:
		return Traits{High, High, Low}
	default:
		return Traits{}
	}
}

// Kernel is the quantitative characterization of one unit of work.
type Kernel struct {
	// Flops is total arithmetic.
	Flops float64
	// DataBytes is the data touched.
	DataBytes float64
	// Rounds is the count of serializing dataflow synchronizations
	// (iterative dependences that cross unit boundaries).
	Rounds float64
	// MVMFrac is the fraction of Flops that maps to in-memory
	// stationary-operand compute.
	MVMFrac float64
	// StationaryFrac is the fraction of DataBytes resident in CIM arrays.
	StationaryFrac float64
	// Parallelism is the exploitable parallel fraction in (0, 1].
	Parallelism float64
}

// Validate reports whether the kernel is well-formed.
func (k Kernel) Validate() error {
	switch {
	case k.Flops <= 0 || k.DataBytes < 0 || k.Rounds < 0:
		return fmt.Errorf("workloads: non-positive kernel magnitudes")
	case k.MVMFrac < 0 || k.MVMFrac > 1:
		return fmt.Errorf("workloads: MVMFrac %g outside [0,1]", k.MVMFrac)
	case k.StationaryFrac < 0 || k.StationaryFrac > 1:
		return fmt.Errorf("workloads: StationaryFrac %g outside [0,1]", k.StationaryFrac)
	case k.Parallelism <= 0 || k.Parallelism > 1:
		return fmt.Errorf("workloads: Parallelism %g outside (0,1]", k.Parallelism)
	}
	return nil
}

// flopsFor maps a compute level to FLOPs per unit of work.
func flopsFor(l Level) float64 {
	switch l {
	case Low:
		return 1e8
	case Medium:
		return 5e8
	default:
		return 1e10
	}
}

// bytesFor maps a data-size level to bytes per unit of work.
func bytesFor(l Level) float64 {
	switch l {
	case Low:
		return 1e8
	case Medium:
		return 1e9
	default:
		return 1e10
	}
}

// Kernel returns the class's quantitative kernel scaled by scale (1.0 is
// the reference size).
func (c Class) Kernel(scale float64) (Kernel, error) {
	if scale <= 0 {
		return Kernel{}, fmt.Errorf("workloads: scale must be positive, got %g", scale)
	}
	tr := c.Traits()
	k := Kernel{
		Flops:     flopsFor(tr.Compute) * scale,
		DataBytes: bytesFor(tr.DataSize) * scale,
	}
	switch c {
	case MachineLearning:
		k.Rounds, k.MVMFrac, k.StationaryFrac, k.Parallelism = 1e3, 0.90, 0.90, 0.95
	case NeuralNetworks:
		k.Rounds, k.MVMFrac, k.StationaryFrac, k.Parallelism = 1e3, 0.95, 0.95, 0.95
	case GraphProblems:
		// PageRank-style: SpMV maps to crossbars; ~20 iterations of
		// per-tile exchange, not per-edge synchronization.
		k.Flops = 1e9 * scale
		k.Rounds, k.MVMFrac, k.StationaryFrac, k.Parallelism = 1e4, 0.80, 0.80, 0.90
	case BayesianInference:
		k.Rounds, k.MVMFrac, k.StationaryFrac, k.Parallelism = 1e6, 0.20, 0.30, 0.70
	case MarkovChain:
		// Long sequential chains: every step is a cross-unit dependence.
		k.Rounds, k.MVMFrac, k.StationaryFrac, k.Parallelism = 1e6, 0.10, 0.20, 0.90
	case KVS:
		k.DataBytes = 1e9 * scale
		k.Rounds, k.MVMFrac, k.StationaryFrac, k.Parallelism = 1e5, 0.0, 0.50, 0.90
	case DBAnalytics:
		// Scans and aggregations lower to in-array bitwise/associative ops.
		k.Flops = 1e9 * scale
		k.Rounds, k.MVMFrac, k.StationaryFrac, k.Parallelism = 1e4, 0.70, 0.85, 0.90
	case DBTransactions:
		k.Rounds, k.MVMFrac, k.StationaryFrac, k.Parallelism = 5e4, 0.10, 0.70, 0.70
	case Search:
		// Index construction is sort/pointer heavy; little maps in-array.
		k.Rounds, k.MVMFrac, k.StationaryFrac, k.Parallelism = 1e5, 0.20, 0.30, 0.95
	case Optimization:
		k.Rounds, k.MVMFrac, k.StationaryFrac, k.Parallelism = 1e6, 0.20, 0.20, 0.30
	case Scientific:
		k.Rounds, k.MVMFrac, k.StationaryFrac, k.Parallelism = 1e5, 0.30, 0.30, 0.90
	case FEM:
		// Sparse solves map partially; assembly does not.
		k.Flops = 5e9 * scale
		k.Rounds, k.MVMFrac, k.StationaryFrac, k.Parallelism = 1e4, 0.85, 0.60, 0.90
	case Collaborative:
		k.Rounds, k.MVMFrac, k.StationaryFrac, k.Parallelism = 1e6, 0.0, 0.40, 0.30
	case SignalProcessing:
		// Streaming data is transient: nothing is stationary.
		k.Rounds, k.MVMFrac, k.StationaryFrac, k.Parallelism = 1e5, 0.50, 0.10, 0.70
	default:
		return Kernel{}, fmt.Errorf("workloads: unknown class %d", c)
	}
	k.Rounds *= scale
	return k, k.Validate()
}
