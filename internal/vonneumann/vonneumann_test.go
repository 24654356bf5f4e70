package vonneumann

import (
	"math"
	"testing"
)

func TestMachineValidate(t *testing.T) {
	m := CPU()
	if err := m.Validate(); err != nil {
		t.Errorf("CPU invalid: %v", err)
	}
	if err := GPU().Validate(); err != nil {
		t.Errorf("GPU invalid: %v", err)
	}
	m.PeakFlops = 0
	if err := m.Validate(); err == nil {
		t.Error("zero flops accepted")
	}
	m = CPU()
	m.MemBandwidth = -1
	if err := m.Validate(); err == nil {
		t.Error("negative bandwidth accepted")
	}
	m = CPU()
	m.FlopEnergyPJ = -1
	if err := m.Validate(); err == nil {
		t.Error("negative energy accepted")
	}
}

func TestMachineRooflineComputeBound(t *testing.T) {
	m := CPU()
	// High operational intensity: compute-bound.
	k := Kernel{Flops: 1e9, Bytes: 1e3}
	c, err := m.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	wantS := 1e9 / m.PeakFlops
	if math.Abs(c.Latency()-wantS)/wantS > 0.01 {
		t.Errorf("compute-bound latency = %g s, want %g s", c.Latency(), wantS)
	}
}

func TestMachineRooflineMemoryBound(t *testing.T) {
	m := CPU()
	// Low operational intensity: memory-bound.
	k := Kernel{Flops: 1e3, Bytes: 1e9}
	c, err := m.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	wantS := 1e9 / m.MemBandwidth
	if math.Abs(c.Latency()-wantS)/wantS > 0.01 {
		t.Errorf("memory-bound latency = %g s, want %g s", c.Latency(), wantS)
	}
}

func TestMachineRunErrors(t *testing.T) {
	m := CPU()
	if _, err := m.Run(Kernel{Flops: -1}); err == nil {
		t.Error("negative flops accepted")
	}
	bad := Machine{}
	if _, err := bad.Run(Kernel{Flops: 1, Bytes: 1}); err == nil {
		t.Error("invalid machine ran")
	}
}

func TestMachineEnergyComposition(t *testing.T) {
	m := Machine{
		PeakFlops: 1e12, MemBandwidth: 1e12,
		FlopEnergyPJ: 2, ByteEnergyPJ: 3, StaticPowerW: 0,
	}
	c, err := m.Run(Kernel{Flops: 10, Bytes: 20})
	if err != nil {
		t.Fatal(err)
	}
	want := 10*2.0 + 20*3.0
	if math.Abs(c.EnergyPJ-want) > 1e-9 {
		t.Errorf("dynamic energy = %g, want %g", c.EnergyPJ, want)
	}
}

func TestMachineStaticPowerDominatesLongKernels(t *testing.T) {
	m := CPU()
	k := Kernel{Flops: 1e9, Bytes: 1e9} // ~20ms memory-bound on 50GB/s
	c, err := m.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	staticPJ := m.StaticPowerW * c.Latency() * 1e12
	if staticPJ <= 0 || c.EnergyPJ <= staticPJ {
		t.Errorf("static %g pJ should be positive and below total %g pJ", staticPJ, c.EnergyPJ)
	}
}

func TestGPULaunchOverhead(t *testing.T) {
	g := GPU()
	c, err := g.Run(Kernel{Flops: 1, Bytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.LatencyPS < g.LaunchLatencyPS {
		t.Errorf("tiny kernel latency %d below launch overhead %d", c.LatencyPS, g.LaunchLatencyPS)
	}
}

func TestBytesPerFlopDecline(t *testing.T) {
	// The modern machines embody the Fig 2 problem: well under 1 byte/FLOP.
	for _, m := range []Machine{CPU(), GPU()} {
		if r := m.MemBandwidth / m.PeakFlops; r >= 1 {
			t.Errorf("%g FLOP/s machine: bytes/flop = %g, want < 1", m.PeakFlops, r)
		}
	}
}

func TestGEMVKernel(t *testing.T) {
	// A single vector (GEMM of one item) streams the weights from DRAM.
	k := GEMM(1, 1024, 1024, 4, 32<<20, false)
	wantFlops := 2.0 * 1024 * 1024
	if k.Flops != wantFlops {
		t.Errorf("flops = %g, want %g", k.Flops, wantFlops)
	}
	if k.Bytes < 4*1024*1024 {
		t.Errorf("streaming GEMV bytes = %g, want >= weight bytes", k.Bytes)
	}

	// Resident small matrix: only vector traffic. This is GEMM's rule (the
	// weights alone against the cache), the one the twin prices flushes by.
	k = GEMM(1, 64, 64, 4, 32<<20, true)
	if k.Bytes != 4*(64+64) {
		t.Errorf("resident GEMV bytes = %g, want vector-only %d", k.Bytes, 4*(64+64))
	}

	// Resident flag with oversized matrix still streams.
	k = GEMM(1, 4096, 4096, 4, 1<<20, true)
	if k.Bytes < 4*4096*4096 {
		t.Errorf("oversized resident GEMV bytes = %g, want full stream", k.Bytes)
	}
}

func TestGEMVCrossoverShape(t *testing.T) {
	// The CPU's GEMV latency must grow superlinearly past the cache size:
	// that crossover is where CIM's latency win explodes (E4 shape).
	cpu := CPU()
	cache := float64(32 << 20)
	lat := func(n int) float64 {
		k := GEMM(1, n, n, 4, cache, true)
		c, err := cpu.Run(k)
		if err != nil {
			t.Fatal(err)
		}
		return c.Latency()
	}
	small := lat(512)     // resident
	large := lat(4096)    // streaming: 64MB > 32MB cache
	if large/small < 32 { // 64x flops growth, plus streaming penalty
		t.Errorf("streaming penalty too small: %g / %g = %g", large, small, large/small)
	}
}
