package crossbar

// The MVM kernels. Every analog read in the simulator — one vector or a
// serving micro-batch — runs through MVMBatchInto; MVM and MVMInto are a
// batch of one. Functional mode runs one integer GEMM over the fused
// weight panel (functionalGEMM); bit-serial mode runs the nibble-histogram
// kernel over packedT, or the slice-at-a-time kernel when Program could
// not pack.
//
// The loop nest is matrix-matrix, not matrix-vector:
//
//   - Input quantization happens once per call into a single pooled 2-D
//     scratch arena (mvmBatchScratch).
//   - The kernel iterates columns outermost and batch items inside an
//     item block, so one column's weight panel is loaded once and reused
//     across every input bit of every item in the block — the weight
//     matrix is streamed once per batch instead of once per vector.
//   - Item blocks are sized so the per-item working set (active-row runs
//     for the generic bit-serial kernel, quantized inputs otherwise)
//     stays L1-resident while the panel streams through.
//
// Outputs do not depend on the batch an item rides in: the functional
// accumulator is one exact integer, and for every bit-serial (item,
// column) accumulator the (input bit, slice) accumulation order is fixed
// — the column/item loops around it cannot perturb a float64 in the
// result — and noise draws are position-keyed per item
// ((b*slices+s)*usedCols + c against that item's own source). The naive
// oracle in kernel_test.go is the reference: the suites there and in
// batch_test.go pin == against it and across batch sizes for functional,
// bit-serial (packed and generic), noisy keyed/unkeyed, and
// fault-remapped tiles.

import (
	"fmt"
	"math"

	"cimrev/internal/energy"
	"cimrev/internal/noise"
	"cimrev/internal/obs"
)

// mvmBatchScratch is the 2-D working set. One instance serves a whole
// MVMBatchInto call and cycles through the crossbar's pool, so
// steady-state MVMs allocate nothing.
type mvmBatchScratch struct {
	// xInt is the quantized, shift-encoded input panel, item-major:
	// item i occupies xInt[i*usedRows : i*usedRows+usedRows].
	xInt []int32
	// xScale and xSumInt are the per-item input scale and quantized sum.
	xScale  []float64
	xSumInt []int64
	// acc is the shift-add accumulator panel, item-major
	// (acc[i*usedCols+c]). The functional kernel assigns each element's
	// final reduction; the bit-serial kernels zero their item block up
	// front and accumulate ADC terms in (input bit, slice) order.
	acc []float64
	// active holds concatenated active-row runs for every (item, input
	// bit); activeStart[i*(InputBits+1)+b] is the offset of item i's bit-b
	// run. Built (and sized) once per call by decodeActiveRuns for the
	// generic bit-serial kernel only; the packed kernel classifies rows by
	// nibble value on the fly from xInt and the functional kernel dots
	// xInt directly.
	active      []int32
	activeStart []int32
	// runs is the per-item-block run-view arena hoisted out of the generic
	// kernel's column loop: one slice header per item per bit instead of
	// one per (column, item, bit).
	runs [][]int32
}

// blockItems returns the batch-block size for the kernel's item loop: the
// largest item count whose per-item working set (perItemBytes) fits a
// 32 KiB L1 budget alongside one column panel, clamped to [2, 64]. The
// block size affects only locality, never results — every (item, column)
// accumulation is independent and order-preserved.
func blockItems(perItemBytes int) int {
	if perItemBytes <= 0 {
		return 64
	}
	k := 32 << 10 / perItemBytes
	if k < 2 {
		return 2
	}
	if k > 64 {
		return 64
	}
	return k
}

// MVMBatch computes y_i = W · input_i for every batch item through the
// full analog pipeline, allocating the result panel. inputs[i] must have
// usedRows elements; results have usedCols. nss supplies one counter-based
// noise source per item (item i's draws are keyed exactly as a lone
// MVM(input_i, nss[i]) would be); it may be nil when ReadNoise is zero.
// The returned cost is the uniform per-item MVM cost; batch-level cost
// models (pipelining, energy totals) belong to the caller.
func (x *Crossbar) MVMBatch(inputs [][]float64, nss []noise.Source) ([][]float64, energy.Cost, error) {
	if !x.programmed {
		return nil, energy.Zero, fmt.Errorf("crossbar: MVM before Program")
	}
	slab := make([]float64, len(inputs)*x.usedCols)
	dsts := make([][]float64, len(inputs))
	for i := range dsts {
		dsts[i] = slab[i*x.usedCols : (i+1)*x.usedCols]
	}
	cost, err := x.MVMBatchInto(dsts, inputs, nss)
	if err != nil {
		return nil, energy.Zero, err
	}
	return dsts, cost, nil
}

// MVMBatchIntoCtx is MVMBatchInto under a trace span: the batched analog
// read is recorded as one "xbar.mvm_batch" child of pc carrying the
// serial-equivalent cost (per-item cost × batch) and a batch annotation.
// With a zero Ctx it is the raw batch kernel plus one branch — zero
// allocations, preserving the hot-path contract.
func (x *Crossbar) MVMBatchIntoCtx(pc obs.Ctx, dsts, inputs [][]float64, nss []noise.Source) (energy.Cost, error) {
	if !pc.Active() {
		return x.MVMBatchInto(dsts, inputs, nss)
	}
	sp := pc.Child("xbar.mvm_batch")
	cost, err := x.MVMBatchInto(dsts, inputs, nss)
	sp.Annotate("batch", float64(len(inputs)))
	sp.End(energy.Cost{
		LatencyPS: cost.LatencyPS * int64(len(inputs)),
		EnergyPJ:  cost.EnergyPJ * float64(len(inputs)),
	})
	return cost, err
}

// MVMBatchInto is MVMBatch writing results into dsts (dsts[i] of length
// usedCols). It is the zero-allocation kernel: the whole 2-D working set
// comes from the crossbar's scratch pool, so steady-state calls do not
// allocate at any batch size. Safe for concurrent use on a programmed
// crossbar. A zero-length batch is a successful no-op. Item i's output
// depends only on (inputs[i], nss[i]), never on its batchmates.
func (x *Crossbar) MVMBatchInto(dsts, inputs [][]float64, nss []noise.Source) (energy.Cost, error) {
	// Fail fast: every shape and value check completes before quantization
	// or scratch acquisition.
	if !x.programmed {
		return energy.Zero, fmt.Errorf("crossbar: MVM before Program")
	}
	n := len(inputs)
	if len(dsts) != n {
		return energy.Zero, fmt.Errorf("crossbar: %d dsts for %d inputs", len(dsts), n)
	}
	if nss != nil && len(nss) != n {
		return energy.Zero, fmt.Errorf("crossbar: %d noise sources for %d inputs", len(nss), n)
	}
	if n == 0 {
		// A zero-length batch is a successful no-op, even on a noisy
		// configuration.
		return energy.Zero, nil
	}
	if x.cfg.ReadNoise > 0 {
		if nss == nil {
			return energy.Zero, fmt.Errorf("crossbar: ReadNoise %g requires per-item noise sources", x.cfg.ReadNoise)
		}
		for i, ns := range nss {
			if !ns.Valid() {
				return energy.Zero, fmt.Errorf("crossbar: ReadNoise %g requires a noise source (item %d)", x.cfg.ReadNoise, i)
			}
		}
	}
	for i, in := range inputs {
		if len(in) != x.usedRows {
			return energy.Zero, fmt.Errorf("crossbar: input %d length %d != programmed rows %d", i, len(in), x.usedRows)
		}
		if len(dsts[i]) != x.usedCols {
			return energy.Zero, fmt.Errorf("crossbar: dst %d length %d != programmed cols %d", i, len(dsts[i]), x.usedCols)
		}
		for j, v := range in {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return energy.Zero, fmt.Errorf("crossbar: non-finite input at item %d index %d", i, j)
			}
		}
	}

	s := x.getBatchScratch(n)
	defer x.batchScratch.Put(s)

	// Quantize and shift-encode every item once, up front.
	xMax := int32(1)<<x.cfg.InputBits - 1
	for i, in := range inputs {
		xScale := 0.0
		for _, v := range in {
			if a := math.Abs(v); a > xScale {
				xScale = a
			}
		}
		if xScale == 0 {
			xScale = 1
		}
		xi := s.xInt[i*x.usedRows : (i+1)*x.usedRows]
		var sum int64
		for r, v := range in {
			x01 := (v/xScale + 1) / 2
			q := int32(math.Round(x01 * float64(xMax)))
			xi[r] = q
			sum += int64(q)
		}
		s.xScale[i] = xScale
		s.xSumInt[i] = sum
	}

	if x.cfg.Functional {
		x.functionalGEMM(s, n)
	} else if x.packedT != nil {
		// The packed kernel classifies rows by nibble value on the fly —
		// one histogram pass over the column per item replaces up to
		// InputBits per-bit gathers of the same rows.
		x.bitSerialBatchPacked(s, n, nss)
	} else {
		x.decodeActiveRuns(s, n)
		x.bitSerialBatchKernel(s, n, nss)
	}

	// Remove the shift-encoding offsets and restore each item's real-valued
	// scale: y = wScale*xScale * (4*acc/(Wmax*Xmax) - 2*colSum/Wmax -
	// 2*xSum/Xmax + rows). The colSum term is tabulated per column at
	// Program time and the xSum term computed once per item, each with the
	// expression and in the association of the formula above.
	fxMax := float64(xMax)
	full := float64(int(1)<<x.cfg.WeightBits-1) * fxMax
	rows := float64(x.usedRows)
	colOffset := x.colOffset[:x.usedCols]
	for i, dst := range dsts {
		acc := s.acc[i*x.usedCols:][:len(colOffset)]
		xOffset := 2 * float64(s.xSumInt[i]) / fxMax
		scale := x.wScale * s.xScale[i]
		for c, off := range colOffset {
			dst[c] = scale * (4*acc[c]/full - off - xOffset + rows)
		}
	}
	return x.mvmCost(), nil
}

// getBatchScratch returns a scratch sized for n items of the programmed
// shape. Buffers grow monotonically (capacity checks against the
// *current* shape and batch, never a cached size), so one pool serves
// any interleaving of reprogrammed shapes and batch sizes without ever
// handing back an undersized arena; TestScratchReuseAcrossReshapes pins
// it.
func (x *Crossbar) getBatchScratch(n int) *mvmBatchScratch {
	s, _ := x.batchScratch.Get().(*mvmBatchScratch)
	if s == nil {
		s = &mvmBatchScratch{}
	}
	if need := n * x.usedRows; cap(s.xInt) < need {
		s.xInt = make([]int32, need)
	} else {
		s.xInt = s.xInt[:need]
	}
	if cap(s.xScale) < n {
		s.xScale = make([]float64, n)
		s.xSumInt = make([]int64, n)
	} else {
		s.xScale = s.xScale[:n]
		s.xSumInt = s.xSumInt[:n]
	}
	if need := n * x.usedCols; cap(s.acc) < need {
		s.acc = make([]float64, need)
	} else {
		s.acc = s.acc[:need]
	}
	return s
}

// decodeActiveRuns sizes the active-row arenas and decodes per-bit
// active-row runs for every item once; the generic bit-serial kernel's
// column loop reuses them InputBits × usedCols times. Only that kernel
// reads them, so no other path pays for the arena (n·InputBits·usedRows
// int32 — 256 KiB at batch 64 on a 128-row array — every time the pool
// is refilled after a GC cycle).
func (x *Crossbar) decodeActiveRuns(s *mvmBatchScratch, n int) {
	bits := x.cfg.InputBits
	if need := n * (bits + 1); cap(s.activeStart) < need {
		s.activeStart = make([]int32, need)
	} else {
		s.activeStart = s.activeStart[:need]
	}
	if need := n * bits * x.usedRows; cap(s.active) < need {
		s.active = make([]int32, 0, need)
	} else {
		s.active = s.active[:0]
	}
	// The item-block loop never exceeds the blockItems clamp of 64 views.
	if cap(s.runs) < 64 {
		s.runs = make([][]int32, 64)
	} else {
		s.runs = s.runs[:64]
	}
	for i := 0; i < n; i++ {
		base := i * (bits + 1)
		xi := s.xInt[i*x.usedRows : (i+1)*x.usedRows]
		for b := 0; b < bits; b++ {
			s.activeStart[base+b] = int32(len(s.active))
			mask := int32(1) << uint(b)
			for r, q := range xi {
				if q&mask != 0 {
					s.active = append(s.active, int32(r))
				}
			}
		}
		s.activeStart[base+bits] = int32(len(s.active))
	}
}

// functionalGEMM is the functional-mode kernel (ideal converters, same
// cost model): one exact unsigned-integer matrix-matrix product of the
// fused weight panel with the quantized input panel. Per item block and
// column word, four items share each weight load; a word carries one or
// two columns (x.lanes), and with two, w·x = wLo·x + (wHi·x)<<32, so each
// 32-bit lane of the running sum is its own column's dot product — bounded
// by wMax·xMax·usedRows ≤ 2^32−1 at Program time, so no lane ever carries.
// The sum of a lane is the integer Σ_r W[r,c]·x[r] whichever way it is
// associated, so its float64 is the naive oracle's.
func (x *Crossbar) functionalGEMM(s *mvmBatchScratch, n int) {
	rows := x.usedRows
	cols := x.usedCols
	words := len(x.fused) / rows
	// unpack writes column word cw's lane sums into item i's accumulators.
	// Lane sums are below 2^63, so the signed conversion is exact.
	unpack := func(i, cw int, a uint64) {
		if x.lanes == 1 {
			s.acc[i*cols+cw] = float64(int64(a))
			return
		}
		s.acc[i*cols+2*cw] = float64(int64(a & math.MaxUint32))
		if 2*cw+1 < cols {
			s.acc[i*cols+2*cw+1] = float64(int64(a >> 32))
		}
	}
	blk := blockItems(rows * 4) // per-item xInt bytes
	for i0 := 0; i0 < n; i0 += blk {
		i1 := min(i0+blk, n)
		for cw := 0; cw < words; cw++ {
			col := x.fused[cw*rows:][:rows]
			i := i0
			for ; i+4 <= i1; i += 4 {
				a0, a1, a2, a3 := dot4(col, s.xInt[i*rows:][:4*rows])
				unpack(i, cw, a0)
				unpack(i+1, cw, a1)
				unpack(i+2, cw, a2)
				unpack(i+3, cw, a3)
			}
			for ; i < i1; i++ {
				xi := s.xInt[i*rows:][:rows]
				var a uint64
				for r, w := range col {
					a += w * uint64(xi[r])
				}
				unpack(i, cw, a)
			}
		}
	}
}

// dot4 is functionalGEMM's inner loop: one weight column word against the
// quantized rows of four consecutive items (xs, item-major), four
// independent accumulator chains on each weight load. It is kept out of
// line because the register allocator then sees only the loop's own
// values: inlined into the block loops, three of the four accumulators
// spill to the stack and every add waits on a store-to-load forward
// (1.1–1.4× slower at batch ≥ 8, docs/PERF.md).
//
//go:noinline
func dot4(col []uint64, xs []int32) (a0, a1, a2, a3 uint64) {
	rows := len(col)
	x0 := xs[:rows]
	x1 := xs[rows:][:rows]
	x2 := xs[2*rows:][:rows]
	x3 := xs[3*rows:][:rows]
	for r, w := range col {
		a0 += w * uint64(x0[r])
		a1 += w * uint64(x1[r])
		a2 += w * uint64(x2[r])
		a3 += w * uint64(x3[r])
	}
	return a0, a1, a2, a3
}

// nibGroups returns the number of nibble groups the input bits split
// into for the packed kernel's histogram classification.
func (x *Crossbar) nibGroups() int {
	return (x.cfg.InputBits + 3) / 4
}

// nibbleHistogram streams one packed column against one item's quantized
// input row, accumulating T[g][m] = Σ col[r] over the rows whose group-g
// nibble of xi[r] equals m. Each row costs two sequential loads and one
// lane add per group — no index lists, no branches — and bit b of the
// input is set for row r exactly when r's group-⌊b/4⌋ nibble has bit b%4
// set, so every per-bit column sum is a disjoint union of classes and
// can be reassembled from T with a few integer adds. All sums are uint64
// lane sums over disjoint row subsets of one column, bounded by the
// packing invariant (cellMax·usedRows ≤ 0xFFFF): no lane ever carries.
// InputBits ≤ 16 bounds groups by 4, and nibble indices are masked to 4
// bits, so every histogram access is in range.
func nibbleHistogram(T *[4][16]uint64, col []uint64, xi []int32, groups int) {
	xi = xi[:len(col)]
	if groups == 2 {
		// The dominant shape (5–8 input bits): both nibbles of one q load
		// classify the same col load, 2-way unrolled into disjoint
		// even/odd accumulators to break the read-modify-write dependency
		// on repeated classes.
		var evLo, evHi, odLo, odHi [16]uint64
		r := 0
		for ; r+2 <= len(col); r += 2 {
			v0, v1 := col[r], col[r+1]
			q0, q1 := uint32(xi[r]), uint32(xi[r+1])
			evLo[q0&15] += v0
			evHi[(q0>>4)&15] += v0
			odLo[q1&15] += v1
			odHi[(q1>>4)&15] += v1
		}
		if r < len(col) {
			v := col[r]
			q := uint32(xi[r])
			evLo[q&15] += v
			evHi[(q>>4)&15] += v
		}
		for m := 1; m < 16; m++ {
			T[0][m] = evLo[m] + odLo[m]
			T[1][m] = evHi[m] + odHi[m]
		}
		return
	}
	for r, v := range col {
		q := uint32(xi[r])
		for g := 0; g < groups; g++ {
			T[g][(q>>uint(4*g))&15] += v
		}
	}
}

// adcNoisy is one noisy analog-to-digital conversion, shared by both
// bit-serial kernels. colSum arrives already perturbed by multiplicative
// cycle-to-cycle read noise, matching the device model: each read deviates
// by the relative Gaussian factor 1 + z·sigma, z the conversion's
// position-keyed standard normal draw. The ADC clips it to [0, maxSum] and
// quantizes in steps of step.
func adcNoisy(colSum, step, maxSum float64) float64 {
	if colSum < 0 {
		colSum = 0
	}
	if colSum > maxSum {
		colSum = maxSum
	}
	return math.Round(colSum/step) * step
}

// bitSerialBatchPacked is the lane-packed batched bit-serial kernel. The
// nest is (item block, column, item): one column's packed panel is loaded
// once per block and reused by every item while L1-hot. Per (item,
// column) the kernel streams the column against the item's quantized row
// exactly once, histogramming the packed lanes by nibble value —
// T[g][m] accumulates col[r] over rows whose group-g nibble equals m —
// and then reassembles each input bit's column sum as the sum of the
// classes with that bit set. Everything is uint64 lane arithmetic over
// disjoint row subsets of one column, each bounded by the full-column
// packing invariant (cellMax·usedRows ≤ 0xFFFF), so no lane ever carries
// and the reassembled per-bit sums equal the generic kernel's gathers
// exactly. Compared with per-bit gathers (InputBits·usedRows/2 indexed
// loads expected), the histogram touches each row once with two
// sequential loads, no index lists, and no branches. Per (item, column)
// the float ADC accumulator extends in (bit, slice) order, and each
// item's noise draw stays position-keyed against its own source, so
// outputs match the generic kernel and the naive oracle bit for bit.
func (x *Crossbar) bitSerialBatchPacked(s *mvmBatchScratch, n int, nss []noise.Source) {
	rows := x.cfg.Rows
	usedRows := x.usedRows
	cols := x.usedCols
	bits := x.cfg.InputBits
	nslices := x.numSlices
	cellBits := x.cfg.CellBits
	sigma := x.cfg.ReadNoise
	adcStep, adcMaxSum := x.adcStep, x.adcMaxSum
	packedT := x.packedT
	scaleTab := x.scaleTab
	adcLUT := x.adcLUT
	acc := s.acc
	groups := x.nibGroups()
	// Per-item working set: the quantized input row. Doubled so the block
	// leaves L1 headroom for the column panel and the ADC LUT it races.
	blk := blockItems(usedRows * 8)
	for i0 := 0; i0 < n; i0 += blk {
		i1 := min(i0+blk, n)
		accBlk := acc[i0*cols : i1*cols]
		for j := range accBlk {
			accBlk[j] = 0
		}
		for c := 0; c < cols; c++ {
			col := packedT[c*rows : c*rows+usedRows]
			for i := i0; i < i1; i++ {
				xi := s.xInt[i*usedRows : i*usedRows+usedRows]
				var T [4][16]uint64
				nibbleHistogram(&T, col, xi, groups)
				idx := i*cols + c
				a := acc[idx]
				// The conversion of (bit b, slice si) takes draw
				// (b*slices+si)*usedCols + c of item i's own source, and
				// the loops below visit (b, si) in exactly that order.
				draw := uint64(c)
				for g := 0; g < groups; g++ {
					b0 := 4 * g
					gw := min(4, bits-b0)
					nc := 1 << uint(gw)
					Tg := &T[g]
					var packs [4]uint64
					if gw == 4 {
						packs[0] = Tg[1] + Tg[3] + Tg[5] + Tg[7] + Tg[9] + Tg[11] + Tg[13] + Tg[15]
						packs[1] = Tg[2] + Tg[3] + Tg[6] + Tg[7] + Tg[10] + Tg[11] + Tg[14] + Tg[15]
						packs[2] = Tg[4] + Tg[5] + Tg[6] + Tg[7] + Tg[12] + Tg[13] + Tg[14] + Tg[15]
						packs[3] = Tg[8] + Tg[9] + Tg[10] + Tg[11] + Tg[12] + Tg[13] + Tg[14] + Tg[15]
					} else {
						for bb := 0; bb < gw; bb++ {
							bit := 1 << uint(bb)
							var p uint64
							for m := bit; m < nc; m++ {
								if m&bit != 0 {
									p += Tg[m]
								}
							}
							packs[bb] = p
						}
					}
					if sigma == 0 {
						// Noise-free lane sums are integers ≤ adcMaxSum, so
						// the tabulated ADC transfer replaces the clip,
						// divide, and round — bit-exactly.
						for bb := 0; bb < gw; bb++ {
							b := b0 + bb
							packed := packs[bb]
							for si := 0; si < nslices; si++ {
								a += adcLUT[(packed>>uint(16*si))&0xFFFF] * scaleTab[b+si*cellBits]
							}
						}
					} else {
						for bb := 0; bb < gw; bb++ {
							b := b0 + bb
							packed := packs[bb]
							for si := 0; si < nslices; si++ {
								colSum := float64((packed >> uint(16*si)) & 0xFFFF)
								a += adcNoisy(colSum*(1+nss[i].Norm(draw)*sigma), adcStep, adcMaxSum) * scaleTab[b+si*cellBits]
								draw += uint64(cols)
							}
						}
					}
				}
				acc[idx] = a
			}
		}
	}
}

// bitSerialBatchKernel is the generic (slice-at-a-time) bit-serial
// kernel, taken when Program could not build packedT. The nest is (item
// block, input bit, column, item) with one 4-way unrolled integer gather
// per weight slice over the item's active-row run; per (item, column)
// the float accumulator extends in (bit, slice) order — the honest analog
// pipeline, one ADC conversion per (cycle, slice, column).
func (x *Crossbar) bitSerialBatchKernel(s *mvmBatchScratch, n int, nss []noise.Source) {
	rows := x.cfg.Rows
	usedRows := x.usedRows
	cols := x.usedCols
	bits := x.cfg.InputBits
	nslices := x.numSlices
	cellBits := x.cfg.CellBits
	sigma := x.cfg.ReadNoise
	adcStep, adcMaxSum := x.adcStep, x.adcMaxSum
	scaleTab := x.scaleTab
	acc := s.acc
	blk := blockItems(bits * usedRows * 2)
	for i0 := 0; i0 < n; i0 += blk {
		i1 := min(i0+blk, n)
		accBlk := acc[i0*cols : i1*cols]
		for j := range accBlk {
			accBlk[j] = 0
		}
		for b := 0; b < bits; b++ {
			runs := s.runs[:i1-i0]
			for k := range runs {
				base := (i0+k)*(bits+1) + b
				runs[k] = s.active[s.activeStart[base]:s.activeStart[base+1]]
			}
			for c := 0; c < cols; c++ {
				base := c * rows
				// Slice si of this (bit, column) takes draw
				// (b*slices+si)*usedCols + c of each item's own source.
				draw0 := uint64(b)*uint64(nslices)*uint64(cols) + uint64(c)
				for k, rowsB := range runs {
					i := i0 + k
					idx := i*cols + c
					a := acc[idx]
					draw := draw0
					for si := 0; si < nslices; si++ {
						col := x.sliceT[si][base : base+usedRows]
						var s0, s1, s2, s3 int64
						r, nr := 0, len(rowsB)
						for ; r <= nr-4; r += 4 {
							s0 += int64(col[rowsB[r]])
							s1 += int64(col[rowsB[r+1]])
							s2 += int64(col[rowsB[r+2]])
							s3 += int64(col[rowsB[r+3]])
						}
						for ; r < nr; r++ {
							s0 += int64(col[rowsB[r]])
						}
						if sigma == 0 {
							// Integer sums ≤ adcMaxSum: tabulated ADC
							// transfer, bit-exact with the divide path.
							a += x.adcLUT[s0+s1+s2+s3] * scaleTab[b+si*cellBits]
							continue
						}
						a += adcNoisy(float64(s0+s1+s2+s3)*(1+nss[i].Norm(draw)*sigma), adcStep, adcMaxSum) * scaleTab[b+si*cellBits]
						draw += uint64(cols)
					}
					acc[idx] = a
				}
			}
		}
	}
}
