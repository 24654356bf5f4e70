package energy

// Device- and architecture-level cost constants shared by the simulators.
//
// The constants are anchored in the public literature the paper builds on:
// the ISAAC accelerator (Shafiee et al., ISCA'16) for crossbar, ADC, DAC and
// eDRAM figures; Horowitz's ISSCC'14 "computing's energy problem" numbers
// for CPU arithmetic and DRAM access energy; and vendor datasheet-scale
// figures for CPU/GPU peaks. Absolute values need only be order-of-magnitude
// faithful — every experiment in this repo reports ratios, and the ratio
// structure (who wins, by roughly what factor) is what the paper claims.
const (
	// --- Memristor crossbar (ISAAC-scale 128x128 array) ---

	// CrossbarReadLatencyPS is the latency of one analog row activation
	// cycle (one input bit applied across the array): 100ns per ISAAC's
	// crossbar read.
	CrossbarReadLatencyPS = 100_000 // 100 ns

	// CrossbarCellReadEnergyPJ is the energy of one cell participating in
	// an analog MVM cycle.
	CrossbarCellReadEnergyPJ = 0.0012

	// CrossbarWriteLatencyPS is the latency of programming one memristor
	// cell (SET/RESET with verify). Writes are ~1000x slower than reads;
	// this asymmetry is the Section VI scaling challenge.
	CrossbarWriteLatencyPS = 100_000_000 // 100 us

	// CrossbarWriteEnergyPJ is the programming energy per cell.
	CrossbarWriteEnergyPJ = 15.0

	// --- Converters ---

	// ADCConversionEnergyPJ is the per-sample energy at 8-bit resolution.
	// Energy scales ~2^bits; callers adjust for other resolutions.
	ADCConversionEnergyPJ = 1.56

	// DACDriveEnergyPJ is the energy to drive one row with a 1-bit DAC
	// pulse.
	DACDriveEnergyPJ = 0.05

	// --- On-die buffers and logic ---

	// EDRAMAccessEnergyPJPerByte is the eDRAM tile buffer access energy.
	EDRAMAccessEnergyPJPerByte = 0.19

	// EDRAMAccessLatencyPS is one eDRAM buffer access.
	EDRAMAccessLatencyPS = 2_000 // 2 ns

	// SAHoldEnergyPJ is the sample-and-hold energy per column.
	SAHoldEnergyPJ = 0.001

	// ShiftAddEnergyPJ is the digital shift-and-add merge energy per
	// output element per bit-slice.
	ShiftAddEnergyPJ = 0.02

	// --- CPU (server-class, ~14nm era) ---

	// CPUFlopEnergyPJ is the energy of one double-precision FLOP including
	// instruction overheads (fetch/decode/register file), per Horowitz.
	CPUFlopEnergyPJ = 20.0

	// CPUPeakFlops is the peak FLOP/s of the modeled socket.
	CPUPeakFlops = 500e9 // 0.5 TFLOP/s

	// CPUMemBandwidth is sustained DRAM bandwidth in bytes/s.
	CPUMemBandwidth = 50e9 // 50 GB/s

	// DRAMAccessEnergyPJPerByte is DRAM access energy (~20 pJ/bit incl.
	// I/O, so ~10-20 pJ/byte at the interface; we charge 10).
	DRAMAccessEnergyPJPerByte = 10.0

	// CPUStaticPowerW is socket static/uncore power in watts.
	CPUStaticPowerW = 40.0

	// --- GPU (HBM-era accelerator) ---

	// GPUFlopEnergyPJ is single-precision MAC energy on a streaming
	// multiprocessor, cheaper than CPU thanks to SIMT amortization.
	GPUFlopEnergyPJ = 5.0

	// GPUPeakFlops is the peak FLOP/s of the modeled device.
	GPUPeakFlops = 10e12 // 10 TFLOP/s

	// GPUMemBandwidth is HBM bandwidth in bytes/s.
	GPUMemBandwidth = 900e9 // 900 GB/s

	// HBMAccessEnergyPJPerByte is HBM access energy (~4 pJ/bit → 32
	// pJ/byte is the DDR number; HBM is ~7 pJ/byte).
	HBMAccessEnergyPJPerByte = 7.0

	// GPUStaticPowerW is device static power in watts.
	GPUStaticPowerW = 50.0

	// GPUKernelLaunchLatencyPS is the fixed host-side launch overhead per
	// kernel.
	GPUKernelLaunchLatencyPS = 5_000_000 // 5 us

	// --- CIM board (suitability model scale) ---
	//
	// What the workload-suitability model (Table 2) needs beyond the
	// engine's own prices: internal/suitability charges in-array work as
	// reads of the default array (crossbar.Config.ReadCost) over a board
	// of dpe.BoardCrossbars of them, and streaming on the default fabric
	// mesh at LinkEnergyPJPerByte. Only the digital micro-units, the
	// dataflow rounds and the board's static power have no other model.

	// CIMControlFlops is the aggregate digital micro-unit rate for work
	// that does not map in-array.
	CIMControlFlops = 1e11

	// CIMRoundLatencyS is one cross-unit dataflow synchronization.
	CIMRoundLatencyS = 50e-9

	// CIMControlOpEnergyPJ is digital micro-unit energy per op.
	CIMControlOpEnergyPJ = 5.0

	// CIMStaticPowerW is board static power.
	CIMStaticPowerW = 5.0

	// --- Interconnect ---

	// LinkEnergyPJPerByte is on-board electrical link energy.
	LinkEnergyPJPerByte = 2.0

	// PhotonicEnergyPJPerByte is the photonic link energy, independent of
	// distance (Section II.A: "communications from centimeters to
	// kilometers at the same energy per bit").
	PhotonicEnergyPJPerByte = 1.0

	// SpeedOfLightMPerS is used for photonic time-of-flight.
	SpeedOfLightMPerS = 2.0e8 // in fiber

	// RouterHopLatencyPS is per-switch traversal latency.
	RouterHopLatencyPS = 5_000 // 5 ns

	// RouterHopEnergyPJPerByte is per-switch traversal energy.
	RouterHopEnergyPJPerByte = 0.5
)
