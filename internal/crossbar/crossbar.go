// Package crossbar models memristive crossbar arrays computing analog
// matrix-vector multiplication (MVM) in place — the computational primitive
// behind the paper's Dot Product Engine (Section VI) and its ISAAC ancestor
// [49].
//
// The model is honest about the analog pipeline:
//
//   - Weights are quantized to WeightBits and bit-sliced across multiple
//     physical arrays holding CellBits each (ISAAC stores 2 bits/cell).
//   - Inputs are quantized to InputBits and streamed one bit per array
//     cycle through 1-bit DACs.
//   - Each cycle, every active column's analog current sum is digitized by
//     an ADC with ADCBits resolution, which clips and quantizes.
//   - Gaussian read noise perturbs each analog column sum.
//   - Partial sums merge digitally with shift-and-add.
//
// Signed values use shift encoding: w01 = (w+1)/2 on the array, with the
// digital backend removing the offset using stored column sums. This is the
// standard trick for unipolar conductances and lets one array serve signed
// arithmetic.
//
// # Kernel layout
//
// There is one MVM entry point, MVMBatchInto (batch.go): it runs a panel
// of input vectors against the programmed array — one quantizer, then the
// kernel and the digital epilogue — and MVM/MVMInto are that call on a batch
// of one. It is organized for locality and zero steady-state allocation (see
// docs/PERF.md for measurements):
//
//   - Each cell's stored slice levels are one packed word, column-major
//     (levels[c*Rows+r] = Σ_s level_s << s*CellBits): what Program,
//     program-and-verify and the fault tests read and write. Program
//     quantizes each weight once, eight rows a step, straight into it.
//   - Functional mode needs one exact integer per (item, column), which is
//     the packed word itself, laid out as one of two panels. On amd64 with
//     AVX2, when weights and inputs are at most 15 bits and a padded
//     column of largest products stays below 2^31, the panel is
//     column-major int16, zero-padded to
//     a multiple of 16 rows and of four columns (panel16), and the kernel
//     is one assembly routine over the whole panel and all items of the
//     call (dot_amd64.s: a register tile of four columns by two items,
//     VPMADDWD, sixteen multiply-adds an instruction, summed in eight
//     int32 lanes and then across them). Otherwise — every other
//     architecture, x86 without AVX2, 16-bit operands, sums past 2^31 —
//     Program packs adjacent columns into 32-bit lanes of one uint64
//     (fused: two columns per word when no lane can carry, one otherwise)
//     and the kernel is functionalGEMM, the integer matrix-matrix product
//     in Go, four items sharing each weight load. Both are exact, so they
//     agree bit for bit; which one runs follows from CPUID and the
//     programmed shape at Program time (fuseWeights) and from nothing a
//     caller can set.
//   - Bit-serial mode needs every per-(input bit, slice) column sum for
//     its ADC conversions, and one array cycle drives a binary word-line
//     vector into the cells: the sum is Σ_p 2^p · popcount(rowmask_b AND
//     plane_{s,p,c}). Program transposes the packed levels into weight bit
//     planes (planes: 64 rows per word, one run of words per column and
//     weight bit), the quantizer builds one row mask per item and input
//     bit, and the one bit-serial kernel fills a column's sums by AND +
//     popcount, takes its noise draws in one strided fill and converts
//     them in one flat loop. Every shape Validate admits takes it.
//   - The noise-free ADC transfer is a table load (adcLUT) and the
//     shift-and-add scales a precomputed power-of-two table.
//   - Working buffers live in a per-crossbar sync.Pool; MVMs on a
//     programmed crossbar are read-only and safe to run concurrently.
//
// Analog read noise comes from a counter-based internal/noise Source: the
// perturbation applied to (input bit b, slice s, column c) is a pure
// function of the caller-provided source and that position, so noisy MVMs
// are bit-identical at any worker-pool width and need no draw-order
// serialization. The draw is a ziggurat sample whose rejections re-draw
// from a chain seeded by the draw's own word (internal/noise), so that
// holds on its slow paths too. The kernel takes a column's draws through
// Source.NormStride, which is Norm over a strided run of indices.
//
// Costs follow the constants in internal/energy. Programming (weight
// updates) is three orders of magnitude slower than reading — the write
// asymmetry Section VI names as the main scaling challenge.
package crossbar

import (
	"fmt"
	"math"
	"sync"

	"cimrev/internal/energy"
	"cimrev/internal/faultinject"
	"cimrev/internal/noise"
	"cimrev/internal/obs"
)

// NoNoise is the zero noise source, for MVMs on noise-free configurations.
// Passing it with ReadNoise > 0 is an error, exactly as a nil *rand.Rand
// was before the counter-based generator.
var NoNoise noise.Source

// Config describes one logical crossbar: a stack of bit-slice arrays plus
// converter resolutions.
type Config struct {
	// Rows and Cols are the physical array dimensions.
	Rows, Cols int
	// CellBits is the number of weight bits stored per cell.
	CellBits int
	// WeightBits is the total weight resolution; must be a multiple of
	// CellBits. WeightBits/CellBits physical arrays form one logical
	// crossbar.
	WeightBits int
	// InputBits is the DAC input resolution; inputs stream one bit per
	// cycle.
	InputBits int
	// ADCBits is the column ADC resolution. It must be at least 1:
	// Validate rejects 0 at New time rather than letting a zero step
	// silently degrade quantization in the kernel.
	ADCBits int
	// ReadNoise is the relative std-dev of analog column-sum noise.
	ReadNoise float64
	// Functional selects the fast functional-simulation mode: the MVM
	// result is computed from exact integer arithmetic (no per-cycle ADC
	// quantization or noise) while the cost model stays identical. Large
	// benchmark sweeps use it; accuracy studies keep the default
	// bit-serial mode. It never draws read noise, so Validate rejects it
	// together with ReadNoise > 0.
	Functional bool
	// SpareCols is the number of spare physical columns held in reserve
	// beyond Cols for fault repair: when device-fault injection is active
	// (SetFaults), the post-program self-test remaps logical columns with
	// unrepairable cells onto spares. With no fault model the spares are
	// inert. Zero disables remapping.
	SpareCols int
}

// DefaultConfig returns the ISAAC-scale configuration: 128x128 arrays,
// 2-bit cells, 8-bit weights (4 slices), 8-bit inputs, 8-bit ADCs.
func DefaultConfig() Config {
	return Config{
		Rows:       128,
		Cols:       128,
		CellBits:   2,
		WeightBits: 8,
		InputBits:  8,
		ADCBits:    8,
		ReadNoise:  0.0,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Rows <= 0 || c.Cols <= 0:
		return fmt.Errorf("crossbar: dimensions must be positive, got %dx%d", c.Rows, c.Cols)
	case c.CellBits < 1 || c.CellBits > 8:
		return fmt.Errorf("crossbar: CellBits must be in [1,8], got %d", c.CellBits)
	case c.WeightBits < c.CellBits || c.WeightBits%c.CellBits != 0:
		return fmt.Errorf("crossbar: WeightBits (%d) must be a positive multiple of CellBits (%d)", c.WeightBits, c.CellBits)
	case c.WeightBits > 16:
		return fmt.Errorf("crossbar: WeightBits must be <= 16, got %d", c.WeightBits)
	case c.InputBits < 1 || c.InputBits > 16:
		return fmt.Errorf("crossbar: InputBits must be in [1,16], got %d", c.InputBits)
	case c.ADCBits < 1 || c.ADCBits > 16:
		return fmt.Errorf("crossbar: ADCBits must be in [1,16], got %d (an ADC needs at least one bit; 0 would collapse the quantization step)", c.ADCBits)
	case !(c.ReadNoise >= 0) || math.IsInf(c.ReadNoise, 1):
		// Written so that NaN fails it. NaN < 0 is false, and so is NaN > 0:
		// it skipped MVMBatchInto's source check and still took the kernel's
		// noisy branch.
		return fmt.Errorf("crossbar: ReadNoise must be finite and non-negative, got %g", c.ReadNoise)
	case c.Functional && c.ReadNoise > 0:
		return fmt.Errorf("crossbar: Functional mode computes exact integer sums and never draws read noise, so ReadNoise %g would be silently ignored; set Functional = false for a noisy configuration", c.ReadNoise)
	case c.SpareCols < 0:
		return fmt.Errorf("crossbar: SpareCols must be non-negative, got %d", c.SpareCols)
	}
	return nil
}

// slices returns the number of physical bit-slice arrays.
func (c Config) slices() int { return c.WeightBits / c.CellBits }

// Crossbar is one logical crossbar: slices() physical arrays of Rows x Cols
// cells. Programming mutates the crossbar and must not race with reads, but
// MVM on a programmed crossbar is read-only (working state lives in pooled
// scratch), so concurrent MVMs — the tiled/batched hot path — are safe.
type Crossbar struct {
	cfg       Config
	numSlices int

	// levels[c*Rows+r] is what the cells at (r, c) store, packed: Σ_s
	// level_s << s*CellBits over the slices' levels, each below
	// 2^CellBits, so the word (WeightBits ≤ 16) is lossless and, fault-free,
	// is the shifted, quantized weight itself. Column-major, so a column is
	// contiguous for program-and-verify's commit and for the layouts the
	// kernels read instead (fused or panel16, planes). Zero past the
	// programmed shape.
	levels []uint16

	// planes is the bit-serial kernel's view of the array: the stored
	// levels (after fault remap and drift, exactly what levels holds)
	// transposed into weight bit planes. Word planes[(c*WeightBits+k)*
	// planeWords+w] has bit r%64 set when bit p of the level that slice s
	// stores at (64w+r%64, c) is set, k = s*CellBits+p. planeWords is
	// ⌈usedRows/128⌉·2: the kernel consumes two words a step, and the rows
	// past usedRows are zero bits that add nothing. Bit-serial mode only.
	planes     []uint64
	planeWords int

	// fused[cw*usedRows+r] is the functional-mode weight panel: the packed
	// level of cell (r, c), its full integer weight, with column c in
	// 32-bit lane c%lanes of column word cw = c/lanes. lanes is 2 when wMax*xMax*usedRows fits
	// 32 bits — a column's whole dot product fits its lane, so no lane can
	// carry into its neighbour — and 1 otherwise. Functional mode only, and
	// only when the vector kernel cannot run (fuseWeights): a functional
	// crossbar holds fused or panel16, never both.
	fused []uint64
	lanes int

	// panel16[c*rows16+r] is the vector kernel's weight panel: the same
	// fused integer weight as a signed 16-bit word, column-major, each column
	// zero-padded to rows16 = usedRows rounded up to the kernel's 16-row
	// step, and zero columns after the last up to the kernel's four-column
	// tile. lanes is 0 beside it.
	panel16 []int16
	rows16  int

	// accStride is the item stride of the kernel's accumulator panel
	// (mvmBatchScratch.acc): usedCols, and on the vector kernel panel16's
	// padded column count, which the routine fills whole.
	accStride int

	// colSumInt[c] is the column sum of the intended integer weights,
	// accumulated at program time; digital offset removal reads it through
	// colOffset.
	colSumInt []int64

	// usedRows and usedCols are the programmed submatrix dimensions.
	usedRows, usedCols int

	// wScale restores programmed weights to their original range.
	wScale float64

	// adcStep and adcMaxSum are the ADC transfer function for the
	// programmed shape: the ADC clips column sums to adcMaxSum and
	// quantizes in steps of adcStep. Both are fixed at Program time.
	adcStep, adcMaxSum float64

	// adcLUT[v] = Round(v/adcStep)*adcStep for every integer column sum
	// v ∈ [0, adcMaxSum]. Noise-free column sums are integers bounded by
	// adcMaxSum = usedRows·cellMax, so the kernel replaces the
	// divide-and-round ADC transfer with one table load — exact, because
	// each entry is computed with the noisy path's own expression.
	// Bit-serial mode only.
	adcLUT []float64

	// colOffset[c] = 2*colSumInt[c]/wMax, the weight-offset term of the
	// output epilogue, tabulated at Program time with the epilogue's own
	// expression. It is Cols rounded up to four long: the vector routine
	// reads it four columns at a time, pad columns included.
	colOffset []float64

	// dequant is the epilogue's three constants for the programmed shape,
	// {4, wMax·xMax, usedRows}, tabulated at Program time: dequantize and
	// the vector routine read the same three.
	dequant [3]float64

	// scaleTab[b*slices+s] = 2^(b+s*CellBits), the shift-and-add merge
	// factor of conversion (input bit b, slice s), in conversion order.
	scaleTab []float64

	// cost is the simulated cost of one MVM on the programmed shape
	// (Config.ReadCost), tabulated at Program time: every read charges it.
	cost energy.Cost

	// writes counts cell programming operations (wear). With fault
	// injection active it counts real program pulses, including every
	// program-and-verify retry — repairs are never free.
	writes int64

	programmed bool

	// faults / faultSrc configure device-fault injection (SetFaults).
	// faultEpoch counts Program passes so transient write-failure draws
	// re-roll per pass while permanent faults stay pinned to positions.
	// faultReport is the blast-radius record of the latest Program.
	faults      faultinject.Model
	faultSrc    noise.Source
	faultEpoch  uint64
	faultReport faultinject.Report

	// batchScratch pools *mvmBatchScratch so concurrent MVMs on one
	// crossbar don't contend on a shared buffer and steady-state MVMs
	// don't allocate. Buffers are sized against the *current* programmed
	// shape and batch on every Get — capacity grows monotonically and
	// lengths are re-sliced per call — so a crossbar reprogrammed across
	// different shapes can never hand back an undersized scratch from an
	// earlier, smaller configuration (TestScratchReuseAcrossReshapes pins
	// this).
	batchScratch sync.Pool
}

// New returns an unprogrammed crossbar.
func New(cfg Config) (*Crossbar, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	scaleTab := make([]float64, 0, cfg.InputBits*cfg.slices())
	for b := 0; b < cfg.InputBits; b++ {
		for s := 0; s < cfg.slices(); s++ {
			scaleTab = append(scaleTab, float64(int64(1)<<uint(b+s*cfg.CellBits)))
		}
	}
	return &Crossbar{
		cfg:       cfg,
		numSlices: cfg.slices(),
		levels:    make([]uint16, cfg.Rows*cfg.Cols),
		colSumInt: make([]int64, cfg.Cols),
		colOffset: make([]float64, (cfg.Cols+3)&^3),
		scaleTab:  scaleTab,
	}, nil
}

// Writes returns the total cell-programming count (wear indicator).
func (x *Crossbar) Writes() int64 { return x.writes }

// SetFaults installs a device-fault model, effective from the next Program
// pass. src keys every fault decision positionally (see internal/faultinject);
// tiles derive one child per block so sweeps stay bit-identical at any
// worker-pool width. Passing a zero Model disables injection. Installing an
// enabled model requires a valid source.
func (x *Crossbar) SetFaults(m faultinject.Model, src noise.Source) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if m.Enabled() && !src.Valid() {
		return fmt.Errorf("crossbar: enabled fault model requires a fault source")
	}
	x.faults = m
	x.faultSrc = src
	return nil
}

// FaultReport returns the fault-handling record of the most recent Program
// pass: stuck/drifting cells encountered, retry pulses charged, columns
// remapped to spares, and columns lost past spare exhaustion. Zero when
// fault injection is disabled or before Program.
func (x *Crossbar) FaultReport() faultinject.Report { return x.faultReport }

// Program loads the weight matrix w (w[r][c], at most Rows x Cols). Weights
// may be any finite values; the crossbar normalizes by max |w|. Shape and
// finiteness are validated before any crossbar state changes. It returns
// the programming cost: rows are written in parallel across columns but
// serially row by row and slice stacks in parallel, so latency is
// usedRows x write-latency, and energy covers every programmed cell.
func (x *Crossbar) Program(w [][]float64) (energy.Cost, error) {
	return x.program(w)
}

// ProgramCtx is Program under a trace span: the write (including the full
// program-and-verify pulse train on the fault path) is recorded as an
// "xbar.program" child of pc, annotated with the pulse/verify/remap blast
// radius. A zero Ctx reduces to Program plus two branches.
func (x *Crossbar) ProgramCtx(pc obs.Ctx, w [][]float64) (energy.Cost, error) {
	sp := pc.Child("xbar.program")
	cost, err := x.program(w)
	if sp.Active() {
		sp.Annotate("rows", float64(x.usedRows))
		sp.Annotate("cols", float64(x.usedCols))
		if x.faults.Enabled() {
			rep := x.faultReport
			sp.Annotate("retry_pulses", float64(rep.RetryPulses))
			sp.Annotate("remapped_cols", float64(rep.RemappedCols))
			sp.Annotate("lost_cols", float64(rep.LostCols))
		}
	}
	sp.End(cost)
	return cost, err
}

func (x *Crossbar) program(w [][]float64) (energy.Cost, error) {
	if len(w) == 0 || len(w) > x.cfg.Rows {
		return energy.Zero, fmt.Errorf("crossbar: weight rows %d outside [1,%d]", len(w), x.cfg.Rows)
	}
	cols := len(w[0])
	if cols == 0 || cols > x.cfg.Cols {
		return energy.Zero, fmt.Errorf("crossbar: weight cols %d outside [1,%d]", cols, x.cfg.Cols)
	}
	// Fail fast: the ragged and non-finite checks, row by row, complete
	// before any stored state is touched. As in quantize, one unsigned
	// maximum over the sign-cleared bits is both max |w| and the NaN/Inf
	// check.
	var top uint64
	for r, row := range w {
		if len(row) != cols {
			return energy.Zero, fmt.Errorf("crossbar: ragged weight matrix at row %d (%d != %d)", r, len(row), cols)
		}
		var rowTop uint64
		for _, v := range row {
			rowTop = max(rowTop, math.Float64bits(v)&^signBit)
		}
		if rowTop >= infBits {
			return energy.Zero, fmt.Errorf("crossbar: non-finite weight at row %d", r)
		}
		top = max(top, rowTop)
	}
	wScale := scaleOf(top) // an all-zero matrix programs cleanly

	wMax := float64(int(1)<<x.cfg.WeightBits - 1)
	if len(w) != x.usedRows || cols != x.usedCols {
		clear(x.levels) // the cells past the new shape hold nothing
	}
	clear(x.colSumInt)
	// Quantize each weight once into the level the cells are to hold (the
	// fault path's program-and-verify reads it as the pattern to write),
	// eight rows a step: eight row streams are read in order and each
	// column's eight levels are one contiguous write.
	for r0 := 0; r0 < len(w); r0 += 8 {
		blk := w[r0:min(r0+8, len(w))]
		for c := 0; c < cols; c++ {
			lv := x.levels[c*x.cfg.Rows+r0:][:len(blk)]
			var sum int64
			for j, row := range blk {
				w01 := (row[c]/wScale + 1) / 2 // shift encode into [0,1]
				q := roundHalfUp(float64(w01 * wMax))
				lv[j] = uint16(q)
				sum += int64(q)
			}
			x.colSumInt[c] += sum
		}
	}
	x.usedRows, x.usedCols, x.accStride = len(w), cols, cols
	x.wScale = wScale

	// Device-fault path: per-cell program-and-verify with escalating
	// retry pulses, then the built-in self-test scan and spare-column
	// remapping. Overwrites levels with the *stored* (possibly faulty) ones;
	// colSumInt keeps the intended sums — the digital backend removes the
	// offset it programmed, and any analog deviation from stuck or
	// drifting cells shows up as output error, exactly like hardware.
	var pulses, verifies int64
	faulty := x.faults.Enabled()
	if faulty {
		pulses, verifies = x.programAndVerify()
	}

	for c, sum := range x.colSumInt[:cols] {
		x.colOffset[c] = 2 * float64(sum) / wMax
	}
	x.dequant = [3]float64{4, wMax * float64(int32(1)<<x.cfg.InputBits-1), float64(len(w))}
	if x.cfg.Functional {
		x.fuseWeights()
	} else {
		x.packSlices()
	}

	x.cost = x.cfg.ReadCost(x.usedRows, x.usedCols)
	x.programmed = true

	cells := int64(len(w)) * int64(cols) * int64(x.numSlices)
	if faulty {
		// Program-and-verify cost: every pulse is a real memristor write
		// and every verify a real read-back — retries and spare-column
		// reprogramming are charged, never free. Latency: rows write in
		// parallel across columns but serially row by row, each row wave
		// now followed by its verify read; every retry pulse and every
		// spare-column pulse beyond the base grid serializes on top.
		x.faultEpoch++
		x.writes += pulses
		extraPulses := pulses - cells
		extraVerifies := verifies - cells
		return energy.Cost{
			LatencyPS: int64(len(w))*(energy.CrossbarWriteLatencyPS+energy.CrossbarReadLatencyPS) +
				extraPulses*energy.CrossbarWriteLatencyPS +
				extraVerifies*energy.CrossbarReadLatencyPS,
			EnergyPJ: float64(pulses)*energy.CrossbarWriteEnergyPJ +
				float64(verifies)*energy.CrossbarCellReadEnergyPJ,
		}, nil
	}
	x.faultReport = faultinject.Report{}
	x.writes += cells
	return energy.Cost{
		LatencyPS: int64(len(w)) * energy.CrossbarWriteLatencyPS,
		EnergyPJ:  float64(cells) * energy.CrossbarWriteEnergyPJ,
	}, nil
}

// fuseWeights builds the functional-mode panel from the stored levels —
// after fault remap, so stuck and drifted cells reach the kernel exactly as
// they reach the slice-at-a-time reduction — and in building one panel or
// the other selects the kernel that reads it, here and nowhere else: the
// vector routines (Crossbar.panel16; vectorGEMM, and vectorQuantize in
// quantize) when the host has them and the kernel is exact on the programmed
// shape, functionalGEMM over Crossbar.fused and quantizeRow otherwise. Exact means every operand is a non-negative int16 and a whole
// padded column of largest products stays below 2^31, so that no signed pair
// sum, 32-bit lane or horizontal partial sum of the kernel can wrap.
func (x *Crossbar) fuseWeights() {
	wMax := uint64(1)<<x.cfg.WeightBits - 1
	xMax := uint64(1)<<x.cfg.InputBits - 1
	if vectorDot != nil && x.cfg.WeightBits <= 15 && x.cfg.InputBits <= 15 &&
		wMax*xMax*uint64(x.usedRows+15) < 1<<31 {
		x.fused, x.lanes = nil, 0
		x.fuseWeights16()
		return
	}
	x.panel16 = nil
	x.lanes = 1
	if wMax*xMax*uint64(x.usedRows) <= math.MaxUint32 {
		x.lanes = 2
	}
	rows := x.usedRows
	words := (x.usedCols + x.lanes - 1) / x.lanes
	if need := words * rows; cap(x.fused) < need {
		x.fused = make([]uint64, need)
	} else {
		x.fused = x.fused[:need]
		clear(x.fused)
	}
	for c := 0; c < x.usedCols; c++ {
		col := x.fused[c/x.lanes*rows:][:rows]
		lane := uint(c % x.lanes * 32)
		for r, lv := range x.levels[c*x.cfg.Rows:][:rows] {
			col[r] |= uint64(lv) << lane
		}
	}
}

// fuseWeights16 builds the vector kernel's panel (see Crossbar.panel16). The
// arena is reused across reprograms, so it is cleared first: the kernel
// multiplies the pad rows and columns, which a smaller shape finds inside
// what a larger one wrote.
func (x *Crossbar) fuseWeights16() {
	rows := x.usedRows
	x.rows16 = (rows + 15) &^ 15
	x.accStride = (x.usedCols + 3) &^ 3
	if need := x.accStride * x.rows16; cap(x.panel16) < need {
		x.panel16 = make([]int16, need)
	} else {
		x.panel16 = x.panel16[:need]
		clear(x.panel16)
	}
	for c := 0; c < x.usedCols; c++ {
		col := x.panel16[c*x.rows16:][:rows]
		for r, lv := range x.levels[c*x.cfg.Rows:][:rows] {
			col[r] = int16(lv)
		}
	}
}

// packSlices builds the bit-serial kernel's read-only tables for the
// programmed shape: the weight bit planes and the ADC transfer.
func (x *Crossbar) packSlices() {
	rows, bits := x.usedRows, x.cfg.WeightBits
	pw := (rows + 127) / 128 * 2
	x.planeWords = pw
	x.planes = grow(x.planes, x.usedCols*bits*pw)
	// Plane k of a column is bit k of its packed levels: bit p of slice s's
	// level is bit s*CellBits+p.
	for c := 0; c < x.usedCols; c++ {
		bitPlanes(x.planes[c*bits*pw:][:bits*pw], pw, bits, x.levels[c*x.cfg.Rows:][:rows])
	}

	// ADC transfer function for one cycle+slice: the largest possible
	// column sum is usedRows * cellMax; the ADC quantizes [0, adcMaxSum]
	// into 2^ADCBits levels. Validate guarantees ADCBits >= 1 and Rows >=
	// 1, so the step is always positive — there is deliberately no runtime
	// fallback here (a zero step would mean a broken config, which New
	// rejects).
	cellMax := float64(int(1)<<x.cfg.CellBits - 1)
	x.adcMaxSum = float64(x.usedRows) * cellMax
	x.adcStep = x.adcMaxSum / float64(int(1)<<x.cfg.ADCBits-1)

	// Tabulate the ADC transfer for every integer column sum. adcMaxSum is
	// an exact integer (usedRows · cellMax), so the table covers all
	// noise-free sums; entries reuse the noisy path's exact expression.
	if need := int(x.adcMaxSum) + 1; cap(x.adcLUT) < need {
		x.adcLUT = make([]float64, need)
	} else {
		x.adcLUT = x.adcLUT[:need]
	}
	for v := range x.adcLUT {
		x.adcLUT[v] = math.Round(float64(v)/x.adcStep) * x.adcStep
	}
}

// bitPlanes fills dst, bits runs of pw words, with the bit planes of src:
// bit r%64 of dst[k*pw+r/64] is bit k of src[r], and zero for r past src.
// Values are at most 16 bits: the bit-serial kernel's planes from the packed
// levels, and its row masks from the quantized inputs. Eight rows a step, so
// that neither Program nor quantize pays for the kernel: the low and the high
// byte of eight values are one word each, gatherBits pulls one bit out of
// each, and a plane word is built from its eight steps in a register and
// stored once.
func bitPlanes[T uint16 | int32](dst []uint64, pw, bits int, src []T) {
	var lo, hi [8]uint64
	for w := 0; w < pw; w++ {
		blk := src[min(w*64, len(src)):min(w*64+64, len(src))]
		steps := (len(blk) + 7) / 8
		for g := range steps {
			var l, h uint64
			for j, q := range blk[g*8 : min(g*8+8, len(blk))] {
				l |= uint64(q&0xFF) << uint(8*j)
				h |= uint64(q>>8) << uint(8*j)
			}
			lo[g], hi[g] = l, h
		}
		for k := 0; k < bits; k++ {
			v := &lo
			if k >= 8 {
				v = &hi
			}
			var word uint64
			for g, b := range v[:steps] {
				word |= gatherBits(b, uint(k%8)) << uint(8*g)
			}
			dst[k*pw+w] = word
		}
	}
}

// gatherBits returns bit p of each of v's eight bytes as one byte, byte j's
// bit at position j. The mask leaves one bit per byte, at 8j; the multiplier
// is Σ 2^(7i), i = 1..8, so the product holds byte j's bit at 8j+7i for
// every i. Those 64 positions are all different (8(j−j') = 7(i'−i) forces
// i = i'), so nothing carries, and i = 8−j puts it at 56+j.
func gatherBits(v uint64, p uint) uint64 {
	return (v >> p & 0x0101010101010101) * 0x0102040810204080 >> 56
}

// maxPulseTrains bounds the program-and-verify loop: one initial pulse,
// then escalating retry trains of 2, 4, 8, 16, and 32 pulses (63 pulses
// total) before the controller gives up on a cell. Escalation mirrors real
// RRAM program-and-verify controllers, which raise pulse count/amplitude
// on each failed verify.
const maxPulseTrains = 6

// cellPos packs a physical cell coordinate (bit-slice, physical column,
// row) into the fault-stream index. The packing is bit-field, not
// stride-based, so a cell's fault draws depend only on its coordinate —
// never on the array's column count or spare budget. That makes sweeps
// over Config.SpareCols apples-to-apples: growing the budget adds spare
// columns with their own faults but cannot move the faults already pinned
// to the primary grid. 20-bit fields bound rows and physical columns at
// 2^20, far beyond any simulated array.
func cellPos(s, phys, r int) uint64 {
	return uint64(s)<<40 | uint64(phys)<<20 | uint64(r)
}

// programAndVerify simulates the honest write loop for every cell of the
// desired pattern — the quantized levels program leaves in levels — then
// runs the built-in self-test and spare-column remapping:
//
//   - Each physical cell is erased and programmed with an escalating
//     pulse train; after each train a verify read compares the stored
//     level against the known desired level. Transient pulse failures
//     (faultinject.PulseFails) retry; stuck cells never verify.
//   - The BIST scan is exactly that per-cell verify against the known
//     written pattern (equivalent to marching test vectors over the
//     column): a column with any unverified cell is bad.
//   - Bad logical columns remap to spare physical columns (Config.
//     SpareCols), which are themselves programmed-and-verified — a bad
//     spare is consumed and skipped. When spares run out the column is
//     lost: its corrupted stored levels stay visible to MVM and the
//     report says so (degradation is never silent).
//
// Stored levels overwrite the desired ones at the *logical* column slot (the remap is
// resolved at program time, so the MVM kernels run unmodified), and
// endurance drift attenuates verified levels after the fact — drift is a
// retention effect the write verify cannot see. Returns total pulses and
// verify reads for the cost ledger; the blast-radius record lands in
// x.faultReport.
func (x *Crossbar) programAndVerify() (pulses, verifies int64) {
	rows := x.usedRows
	physCols := x.cfg.Cols + x.cfg.SpareCols
	cellMask := uint16(1)<<x.cfg.CellBits - 1
	rep := faultinject.Report{}
	// stored holds one candidate physical column's packed levels before
	// they are committed to the logical slot.
	stored := make([]uint16, rows)

	// programColumn simulates programming the desired logical pattern
	// into physical column phys, returning whether every cell verified.
	programColumn := func(c, phys int) bool {
		ok := true
		desired := x.levels[c*x.cfg.Rows:][:rows]
		clear(stored)
		for s := 0; s < x.numSlices; s++ {
			shift := uint(s * x.cfg.CellBits)
			for r := 0; r < rows; r++ {
				want := desired[r] >> shift & cellMask
				pos := cellPos(s, phys, r)
				fault := x.faults.Cell(x.faultSrc, pos)
				var level uint16
				cellOK := false
				switch fault {
				case faultinject.StuckLow:
					rep.StuckCells++
					level = 0
					cellOK = want == 0
				case faultinject.StuckHigh:
					rep.StuckCells++
					level = cellMask
					cellOK = want == cellMask
				default:
					if fault == faultinject.Drifter {
						rep.DriftCells++
					}
					// The cell starts from its erased (level-0) state; a
					// train settles it iff any pulse in the train lands.
					level = 0
					cellOK = want == 0
				}
				var pulse uint64
				train := 1
				for t := 0; t < maxPulseTrains; t++ {
					for p := 0; p < train; p++ {
						if fault == faultinject.None || fault == faultinject.Drifter {
							if !x.faults.PulseFails(x.faultSrc, pos, x.faultEpoch, pulse) {
								level = want
							}
						}
						pulse++
					}
					verifies++
					if level == want {
						cellOK = true
					}
					if cellOK {
						break
					}
					train *= 2
				}
				pulses += int64(pulse)
				rep.RetryPulses += int64(pulse) - 1
				if !cellOK {
					ok = false
				}
				// Endurance drift: verified analog levels relax after the
				// write settles, compounding per program epoch. The verify
				// loop cannot see it — only a later health scan can.
				if fault == faultinject.Drifter && cellOK && level > 0 {
					f := x.faults.DriftFactor(x.faultSrc, pos, x.faultEpoch+1)
					level = uint16(math.Round(float64(level) * f))
				}
				stored[r] |= level << shift
			}
		}
		return ok
	}

	commit := func(c int) { copy(x.levels[c*x.cfg.Rows:][:rows], stored) }

	spareNext := x.cfg.Cols // next unconsumed spare physical column
	for c := 0; c < x.usedCols; c++ {
		phys := c
		for {
			ok := programColumn(c, phys)
			if ok {
				if phys != c {
					rep.RemappedCols++
				}
				commit(c)
				break
			}
			if spareNext >= physCols {
				// Spare budget exhausted: the column is lost. Commit the
				// corrupted levels — the degradation is visible in every
				// MVM — and report it.
				if phys != c {
					rep.BadSpares++
				}
				rep.LostCols++
				commit(c)
				break
			}
			if phys != c {
				rep.BadSpares++
			}
			phys = spareNext
			spareNext++
			rep.SparesUsed++
		}
	}
	x.faultReport = rep
	return pulses, verifies
}

// MVMInto computes y = W · input over the programmed submatrix through the
// full analog pipeline, writing y into dst (len usedCols). input must have
// usedRows elements. ns supplies counter-based analog read noise and may be
// NoNoise when ReadNoise is zero; the draw applied to (input bit b, slice
// s, column c) is ns.Norm((b*slices+s)*usedCols + c) — one word of the
// source's counter stream, or for the 3 % of draws that leave the
// ziggurat's fast path, a chain of words seeded by that one — so results
// are independent of evaluation order. It is the batch kernel on a batch of
// one, with the same checks, the same zero steady-state allocation and the
// same concurrency contract as MVMBatchInto.
func (x *Crossbar) MVMInto(dst, input []float64, ns noise.Source) (energy.Cost, error) {
	return x.MVMBatchInto([][]float64{dst}, [][]float64{input}, []noise.Source{ns})
}

// ReadCost returns the cost of one full MVM on a rows x cols block of an
// array configured by c: InputBits array cycles (slices fire in parallel,
// each with its own ADC), plus digital merge and buffer traffic. Program
// tabulates it for the used shape (Crossbar.cost); the suitability model
// prices a board read with the full array.
func (c Config) ReadCost(usedRows, usedCols int) energy.Cost {
	cycles := int64(c.InputBits)
	slices := float64(c.slices())
	rows := float64(usedRows)
	cols := float64(usedCols)

	// ADC energy scales exponentially with resolution relative to the 8-bit
	// reference point.
	adcEnergy := energy.ADCConversionEnergyPJ * math.Pow(2, float64(c.ADCBits-8))

	perCycle := rows*cols*slices*energy.CrossbarCellReadEnergyPJ +
		rows*slices*energy.DACDriveEnergyPJ +
		cols*slices*(adcEnergy+energy.SAHoldEnergyPJ) +
		cols*slices*energy.ShiftAddEnergyPJ

	// Input and output transit the tile eDRAM buffer once per MVM.
	bufBytes := rows + 2*cols // 1B/input element, 2B/output element
	bufEnergy := bufBytes * energy.EDRAMAccessEnergyPJPerByte

	return energy.Cost{
		LatencyPS: cycles*energy.CrossbarReadLatencyPS + 2*energy.EDRAMAccessLatencyPS,
		EnergyPJ:  float64(cycles)*perCycle + bufEnergy,
	}
}
