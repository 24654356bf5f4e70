package vonneumann

import (
	"fmt"
	"math"

	"cimrev/internal/energy"
)

// Machine is a roofline model of a Von Neumann processor: execution time is
// bounded by either peak arithmetic throughput or memory bandwidth,
// whichever the kernel saturates first, and energy is charged per FLOP and
// per byte moved. This captures exactly the imbalance Fig 2 tracks — the
// bytes/FLOP ratio — which is the quantity CIM attacks.
type Machine struct {
	// PeakFlops is peak arithmetic throughput in FLOP/s.
	PeakFlops float64
	// MemBandwidth is sustained memory bandwidth in bytes/s.
	MemBandwidth float64
	// FlopEnergyPJ is energy per FLOP.
	FlopEnergyPJ float64
	// ByteEnergyPJ is energy per byte of memory traffic.
	ByteEnergyPJ float64
	// StaticPowerW is idle/uncore power charged over kernel runtime.
	StaticPowerW float64
	// LaunchLatencyPS is fixed per-kernel overhead (host dispatch).
	LaunchLatencyPS int64
}

// Validate reports whether the machine parameters are usable.
func (m Machine) Validate() error {
	switch {
	case m.PeakFlops <= 0:
		return fmt.Errorf("vonneumann: PeakFlops must be positive, got %g", m.PeakFlops)
	case m.MemBandwidth <= 0:
		return fmt.Errorf("vonneumann: MemBandwidth must be positive, got %g", m.MemBandwidth)
	case m.FlopEnergyPJ < 0 || m.ByteEnergyPJ < 0 || m.StaticPowerW < 0:
		return fmt.Errorf("vonneumann: energies must be non-negative")
	case m.LaunchLatencyPS < 0:
		return fmt.Errorf("vonneumann: LaunchLatencyPS must be non-negative")
	}
	return nil
}

// CPU returns the modeled server CPU socket.
func CPU() Machine {
	return Machine{
		PeakFlops:    energy.CPUPeakFlops,
		MemBandwidth: energy.CPUMemBandwidth,
		FlopEnergyPJ: energy.CPUFlopEnergyPJ,
		ByteEnergyPJ: energy.DRAMAccessEnergyPJPerByte,
		StaticPowerW: energy.CPUStaticPowerW,
	}
}

// GPU returns the modeled HBM-era accelerator.
func GPU() Machine {
	return Machine{
		PeakFlops:       energy.GPUPeakFlops,
		MemBandwidth:    energy.GPUMemBandwidth,
		FlopEnergyPJ:    energy.GPUFlopEnergyPJ,
		ByteEnergyPJ:    energy.HBMAccessEnergyPJPerByte,
		StaticPowerW:    energy.GPUStaticPowerW,
		LaunchLatencyPS: energy.GPUKernelLaunchLatencyPS,
	}
}

// Kernel characterizes one computation for the roofline model.
type Kernel struct {
	// Flops is the arithmetic operation count.
	Flops float64
	// Bytes is the memory traffic in bytes (compulsory + capacity misses).
	Bytes float64
}

// Run returns the cost of executing the kernel on the machine.
func (m Machine) Run(k Kernel) (energy.Cost, error) {
	if err := m.Validate(); err != nil {
		return energy.Zero, err
	}
	if k.Flops < 0 || k.Bytes < 0 {
		return energy.Zero, fmt.Errorf("vonneumann: negative kernel (%g flops, %g bytes)", k.Flops, k.Bytes)
	}
	computeS := k.Flops / m.PeakFlops
	memoryS := k.Bytes / m.MemBandwidth
	runS := math.Max(computeS, memoryS)
	latency := m.LaunchLatencyPS + energy.PicosecondsFromSeconds(runS)
	dynamic := k.Flops*m.FlopEnergyPJ + k.Bytes*m.ByteEnergyPJ
	static := m.StaticPowerW * (float64(latency) * 1e-12) * 1e12 // W * s -> pJ
	return energy.Cost{LatencyPS: latency, EnergyPJ: dynamic + static}, nil
}

// GEMM builds the kernel for Y = X·W with a batch of `items` input vectors
// against an m x n matrix of elemBytes-wide weights; items = 1 is the
// single-vector product. The weight panel streams once per call — not
// once per vector — which is what batching buys on a Von Neumann machine
// and the data movement CIM eliminates by computing where the weights
// already are; when the panel fits in cache and resident is true even that
// single pass is free after first touch and only per-vector traffic remains.
func GEMM(items, m, n int, elemBytes int, cacheBytes float64, resident bool) Kernel {
	flops := 2 * float64(items) * float64(m) * float64(n)
	weightBytes := float64(m) * float64(n) * float64(elemBytes)
	vectorBytes := float64(items) * float64(m+n) * float64(elemBytes)
	bytes := weightBytes + vectorBytes
	if resident && weightBytes <= cacheBytes {
		bytes = vectorBytes
	}
	return Kernel{
		Flops: flops,
		Bytes: bytes,
	}
}
