// Package cimrev is a Go reproduction of "Computing In-Memory, Revisited"
// (Milojicic et al., ICDCS 2018): a simulation stack for the
// Computing-In-Memory architecture the paper sketches, from memristor
// device physics up through crossbar arrays, the Dot Product Engine,
// dataflow programming models, packet interconnects, and the Von Neumann
// baselines everything is compared against.
//
// This package is the public facade: it re-exports the main entry points
// so downstream users interact with one import. The implementation lives
// in internal/ packages, one per subsystem (see DESIGN.md for the full
// inventory).
//
// Quick start:
//
//	engine, err := cimrev.NewDPE(cimrev.DefaultDPEConfig())
//	net, err := cimrev.NewMLP("demo", []int{64, 128, 10}, rng)
//	programCost, err := engine.Load(net)
//	out, inferCost, err := engine.Infer(input)
package cimrev

import (
	"math/rand"

	"cimrev/internal/associative"
	"cimrev/internal/cim"
	"cimrev/internal/compiler"
	"cimrev/internal/crossbar"
	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/fault"
	"cimrev/internal/machines"
	"cimrev/internal/metrics"
	"cimrev/internal/nn"
	"cimrev/internal/noise"
	"cimrev/internal/packet"
	"cimrev/internal/parallel"
	"cimrev/internal/suitability"
	"cimrev/internal/vonneumann"
	"cimrev/internal/workloads"
)

// Core accounting types.
type (
	// Cost is a (latency, energy) pair; see internal/energy.
	Cost = energy.Cost
	// Ledger accumulates costs by category.
	Ledger = energy.Ledger
)

// NewLedger returns an empty cost ledger.
func NewLedger() *Ledger { return energy.NewLedger() }

// SetSimWorkers sets the simulator's worker-pool width: how many
// goroutines chew through independent crossbar tiles, batch items, boards,
// and sweep points. 1 selects sequential mode; n <= 0 resets to the
// GOMAXPROCS default. Simulated results are bit-identical at any width —
// only wall-clock time changes (see docs/PARALLELISM.md).
func SetSimWorkers(n int) { parallel.SetWidth(n) }

// SimWorkers returns the current simulation worker-pool width.
func SimWorkers() int { return parallel.Width() }

// Crossbar layer.
type (
	// CrossbarConfig sizes a memristive crossbar.
	CrossbarConfig = crossbar.Config
	// Crossbar is one analog MVM array stack.
	Crossbar = crossbar.Crossbar
	// CrossbarTile block-decomposes large matrices over many crossbars.
	CrossbarTile = crossbar.Tile
	// NoiseSource is a counter-based analog-noise stream: draws are pure
	// functions of (source, index), so noisy simulations reproduce
	// bit-identically at any worker-pool width (see internal/noise).
	NoiseSource = noise.Source
)

// NoNoise is the zero noise source for noise-free crossbar MVMs.
var NoNoise = crossbar.NoNoise

// NewNoiseSource returns the root noise source for a seed. Derive children
// per unit of work; the same seed always reproduces the same tree.
func NewNoiseSource(seed int64) NoiseSource { return noise.NewSource(seed) }

// DefaultCrossbarConfig returns the ISAAC-scale array configuration.
func DefaultCrossbarConfig() CrossbarConfig { return crossbar.DefaultConfig() }

// NewCrossbar builds one crossbar.
func NewCrossbar(cfg CrossbarConfig) (*Crossbar, error) { return crossbar.New(cfg) }

// NewCrossbarTile builds a tile of crossbars.
func NewCrossbarTile(cfg CrossbarConfig) (*CrossbarTile, error) { return crossbar.NewTile(cfg) }

// Dot Product Engine — the paper's Section VI system.
type (
	// DPEConfig configures a Dot Product Engine.
	DPEConfig = dpe.Config
	// DPE is a programmed Dot Product Engine.
	DPE = dpe.Engine
)

// DefaultDPEConfig returns the standard engine configuration.
func DefaultDPEConfig() DPEConfig { return dpe.DefaultConfig() }

// NewDPE builds an empty engine.
func NewDPE(cfg DPEConfig) (*DPE, error) { return dpe.New(cfg) }

// Neural networks.
type (
	// Network is a feed-forward network.
	Network = nn.Network
	// Layer is one network stage.
	Layer = nn.Layer
)

// NewMLP builds a dense network with ReLU hidden layers and softmax output.
func NewMLP(name string, sizes []int, rng *rand.Rand) (*Network, error) {
	return nn.NewMLP(name, sizes, rng)
}

// NewLeNetStyle builds a small CNN for sq x sq x 1 inputs.
func NewLeNetStyle(name string, sq, hidden, classes int, rng *rand.Rand) (*Network, error) {
	return nn.NewLeNetStyle(name, sq, hidden, classes, rng)
}

// CIM fabric — the architectural simulator.
type (
	// FabricConfig sizes a CIM board.
	FabricConfig = cim.Config
	// Fabric is one CIM board of mesh-connected units.
	Fabric = cim.Fabric
	// Address locates a unit (board/tile/unit).
	Address = packet.Address
	// Packet is one message in the fabric.
	Packet = packet.Packet
)

// DefaultFabricConfig returns a 4x4-tile board.
func DefaultFabricConfig() FabricConfig { return cim.DefaultConfig() }

// NewFabric builds an empty fabric.
func NewFabric(cfg FabricConfig, ledger *Ledger, reg *metrics.Registry) (*Fabric, error) {
	return cim.NewFabric(cfg, ledger, reg)
}

// CompilePlan maps a network of Dense layers, biases included, and
// activations onto a fabric configuration; each Dense layer runs as a DPE
// engine's dense stage. The ISA has no convolution operand, so convolution
// and pooling layers are rejected.
func CompilePlan(net *Network, cfg FabricConfig) (*compiler.Plan, error) {
	return compiler.Compile(net, cfg)
}

// ApplyPlan instantiates a compiled plan on a fabric.
func ApplyPlan(plan *compiler.Plan, fabric *Fabric) error {
	return compiler.Apply(plan, fabric)
}

// Baselines and experiments.
type (
	// Machine is a roofline Von Neumann model.
	Machine = vonneumann.Machine
	// WorkloadClass is one of the 14 Table 2 application classes.
	WorkloadClass = workloads.Class
	// SuitabilityResult is one scored Table 2 row.
	SuitabilityResult = suitability.Result
)

// CPU returns the modeled server CPU.
func CPU() Machine { return vonneumann.CPU() }

// GPU returns the modeled accelerator.
func GPU() Machine { return vonneumann.GPU() }

// Table2 scores every application class (reproduces the paper's Table 2).
func Table2() ([]SuitabilityResult, error) { return suitability.Table2() }

// Fig2Series returns the historical bytes/FLOP series (reproduces Fig 2).
func Fig2Series() []machines.Point { return machines.Series() }

// NewGuard wraps a fabric with fault detection/recovery (Section V.A).
func NewGuard(fabric *Fabric, reg *metrics.Registry) (*fault.Guard, error) {
	return fault.NewGuard(fabric, reg)
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *metrics.Registry { return metrics.NewRegistry() }

// Training (Section III.B: CIM "enables more opportunities for training").

// Train runs SGD over the dataset, returning the final-epoch mean loss.
func Train(net *Network, inputs [][]float64, labels []int, epochs int, lr float64, rng *rand.Rand) (float64, error) {
	return nn.Train(net, inputs, labels, epochs, lr, rng)
}

// Accuracy returns the network's classification accuracy on the dataset.
func Accuracy(net *Network, inputs [][]float64, labels []int) (float64, error) {
	return nn.Accuracy(net, inputs, labels)
}

// MakeBlobs generates a synthetic Gaussian-blob classification dataset.
func MakeBlobs(n, classes, dim int, spread float64, rng *rand.Rand) ([][]float64, []int, error) {
	return nn.MakeBlobs(n, classes, dim, spread, rng)
}

// Associative computing (Section III.A: TCAM).

// TCAM is a ternary content-addressable memory.
type TCAM = associative.TCAM

// NewTCAM builds a ternary CAM of rows x width bits.
func NewTCAM(rows, width int, led *Ledger) (*TCAM, error) {
	return associative.NewTCAM(rows, width, led)
}
