package crossbar

// The MVM kernels. Every analog read in the simulator — one vector or a
// serving micro-batch — is two steps over one pooled scratch: quantize turns
// a panel of input vectors into the integers the programmed kernel reads,
// and multiply runs that kernel and the digital epilogue into the caller's
// destination. MVMBatchInto is the one after the other; MVM and MVMInto are
// a batch of one; a Tile runs quantize once per (row block, item chunk) and
// multiply once per block of that row (tile.go). Functional mode runs one
// exact integer GEMM, on the vector unit over 16-bit panels where Program
// found that possible (vectorGEMM: amd64 with AVX2, operands of at most 15
// bits, column sums below 2^31; one register-tiled routine, four columns by
// two items a pass, that also finishes the epilogue, fed by a vector
// quantizer) and in Go over the fused weight panel everywhere else
// (functionalGEMM, then dequantize); bit-serial mode runs the bit-plane kernel
// (bitSerialKernel): a column sum is AND + popcount of an input-bit row mask
// against a weight bit plane.
//
// The loop nest is matrix-matrix, not matrix-vector:
//
//   - quantize writes each item once, straight into the panel the kernel
//     reads, in a single pooled 2-D scratch arena (mvmBatchScratch);
//     bit-serial mode then transposes each item's quantized row into one row
//     mask per input bit (rowMasks).
//   - The kernels iterate columns outermost and batch items inside, so one
//     column's weights are loaded once and reused by every item — the
//     weight matrix is streamed once per batch instead of once per vector.
//   - functionalGEMM sizes its item blocks so the quantized inputs stay
//     L1-resident while the panel streams through; vectorGEMM's inputs are
//     half the bytes and it runs all items of the call, two a pass, per
//     group of four columns (blocking its items measured nothing,
//     docs/PERF.md). The bit-serial kernel needs no blocking: an item's masks
//     are InputBits·planeWords words, 128 bytes on the default array.
//
// Outputs do not depend on the batch an item rides in: the functional
// accumulator is one exact integer whichever kernel adds it up, and for
// every bit-serial (item, column) accumulator the (input bit, slice)
// accumulation order is fixed — the column/item loops around it cannot
// perturb a float64 in the result — and noise draws are position-keyed per
// item ((b*slices+s)*usedCols + c against that item's own source). The naive
// oracle in kernel_test.go is the reference: the suites there and in
// batch_test.go pin == against it and across batch sizes for functional
// (both kernels on a host that has both), bit-serial (every plane-word count
// and cell width), noisy keyed/unkeyed, and fault-remapped tiles, and
// TestQuantizeMatchesRound and FuzzQuantize pin the quantizer's integers,
// sums and scales to the oracle's own expressions.

import (
	"fmt"
	"math"
	"math/bits"

	"cimrev/internal/energy"
	"cimrev/internal/noise"
	"cimrev/internal/obs"
)

// mvmBatchScratch is the 2-D working set. One instance serves a quantize
// and every multiply that reads what it left — one for MVMBatchInto, one per
// block of a row for a tile task — and cycles through a crossbar's pool, so
// steady-state MVMs allocate nothing. The step that fills an arena sizes it.
type mvmBatchScratch struct {
	// xInt is the quantized, shift-encoded input panel of the Go functional
	// kernel and of bit-serial mode, item-major: item i occupies
	// xInt[i*usedRows : i*usedRows+usedRows].
	xInt []int32
	// x16 is the same panel as the vector kernel reads it, and what quantize
	// fills instead of xInt on a crossbar that runs that kernel: signed
	// 16-bit words, item i at x16[i*rows16:], zero from usedRows up to rows16.
	x16 []int16
	// xScale and xSumInt are the per-item input scale and quantized sum.
	xScale  []float64
	xSumInt []int64
	// terms[2i] and terms[2i+1] are item i's epilogue terms, xOffset =
	// 2·xSum/xMax and scale = wScale·xScale, computed once per multiply (the
	// scale follows the block's weights).
	terms []float64
	// acc is the shift-add accumulator panel, item-major
	// (acc[i*accStride+c]); each kernel assigns every element once, and
	// the epilogue turns it into the block's outputs y in place — the vector
	// routine stores y directly. Sized by multiply: the blocks of a tile row
	// share inputs, not column counts.
	acc []float64
	// masks holds one row mask per (item, input bit), the binary word-line
	// vector of that array cycle: word masks[(i*InputBits+b)*planeWords+w]
	// has bit r%64 set when bit b of item i's quantized input at row
	// 64w+r%64 is set. Built by rowMasks for the bit-serial kernel only.
	masks []uint64
	// sums and z are the bit-serial kernel's buffers for the conversions
	// of one (item, column): the InputBits·slices integer column sums and
	// their noise draws, in conversion order. Sized by rowMasks from the
	// configuration (at most the 16·16 conversions Validate admits), not
	// kept at that bound on the kernel's stack.
	sums []uint32
	z    []float64
}

// grow returns buf with length n, reallocated only when its capacity is
// short: a pooled arena grows monotonically and is re-sliced to the current
// shape and batch on every use, so one pool serves any interleaving of
// reprogrammed shapes and batch sizes (TestScratchReuseAcrossReshapes). A
// reused arena holds whatever the last call left there.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// blockItems returns the batch-block size for the functional kernel's item
// loop: the largest item count whose per-item working set (perItemBytes)
// fits a 32 KiB L1 budget alongside one column panel, clamped to [2, 64].
// The block size affects only locality, never results — every (item,
// column) accumulation is independent and order-preserved.
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
	dsts := newPanel(len(inputs), x.usedCols)
	cost, err := x.MVMBatchInto(dsts, inputs, nss)
	if err != nil {
		return nil, energy.Zero, err
	}
	return dsts, cost, nil
}

// newPanel returns a fresh n × width result panel: one slab and its rows.
func newPanel(n, width int) [][]float64 {
	slab := make([]float64, n*width)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = slab[i*width : (i+1)*width]
	}
	return rows
}

// MVMBatchIntoCtx is MVMBatchInto under a trace span: the batched analog
// read is recorded as one "xbar.mvm_batch" child of pc carrying the
// serial-equivalent cost (per-item cost × batch) and a batch annotation.
// With a zero Ctx it is the raw batch kernel plus a few nil checks — zero
// allocations, preserving the hot-path contract.
func (x *Crossbar) MVMBatchIntoCtx(pc obs.Ctx, dsts, inputs [][]float64, nss []noise.Source) (energy.Cost, error) {
	sp := pc.Child("xbar.mvm_batch")
	cost, err := x.MVMBatchInto(dsts, inputs, nss)
	endBatchSpan(sp, cost, len(inputs))
	return cost, err
}

// endBatchSpan ends the span of a batched read of n items whose per-item
// cost is cost: annotated with the batch, carrying the serial-equivalent
// cost (per-item × batch).
func endBatchSpan(sp obs.Ctx, cost energy.Cost, n int) {
	if sp.Active() {
		sp.Annotate("batch", float64(n))
	}
	sp.End(cost.Scale(int64(n)))
}

// MVMBatchInto is MVMBatch writing results into dsts (dsts[i] of length
// usedCols). It is the zero-allocation kernel: the whole 2-D working set
// comes from the crossbar's scratch pool, so steady-state calls do not
// allocate at any batch size. Safe for concurrent use on a programmed
// crossbar. A zero-length batch is a successful no-op. Item i's output
// depends only on (inputs[i], nss[i]), never on its batchmates.
func (x *Crossbar) MVMBatchInto(dsts, inputs [][]float64, nss []noise.Source) (energy.Cost, error) {
	// Every check completes before the kernel starts — a non-finite input
	// is found by the quantizer's own scan — so dsts are untouched on error.
	if !x.programmed {
		return energy.Zero, fmt.Errorf("crossbar: MVM before Program")
	}
	n := len(inputs)
	if len(dsts) != n {
		return energy.Zero, fmt.Errorf("crossbar: %d dsts for %d inputs", len(dsts), n)
	}
	if err := x.cfg.checkSources(nss, n); err != nil {
		return energy.Zero, err
	}
	if n == 0 {
		return energy.Zero, nil
	}
	for i, dst := range dsts {
		if len(dst) != x.usedCols {
			return energy.Zero, fmt.Errorf("crossbar: dst %d length %d != programmed cols %d", i, len(dst), x.usedCols)
		}
	}
	s := x.getScratch()
	defer x.batchScratch.Put(s)
	if err := x.quantize(s, inputs); err != nil {
		return energy.Zero, err
	}
	x.multiply(s, dsts, nss, store)
	return x.cost, nil
}

// checkSources is the noise precondition of a batch of n: one source per
// item when any are given, and on a noisy configuration every one present
// and valid. A zero-length batch passes even there.
func (c Config) checkSources(nss []noise.Source, n int) error {
	if nss != nil && len(nss) != n {
		return fmt.Errorf("crossbar: %d noise sources for %d inputs", len(nss), n)
	}
	if n == 0 || !(c.ReadNoise > 0) {
		return nil
	}
	if nss == nil {
		return fmt.Errorf("crossbar: ReadNoise %g requires per-item noise sources", c.ReadNoise)
	}
	for i, ns := range nss {
		if !ns.Valid() {
			return fmt.Errorf("crossbar: ReadNoise %g requires a noise source (item %d)", c.ReadNoise, i)
		}
	}
	return nil
}

// getScratch pops the pool's scratch, or makes an empty one: quantize and
// multiply size what they fill.
func (x *Crossbar) getScratch() *mvmBatchScratch {
	s, _ := x.batchScratch.Get().(*mvmBatchScratch)
	if s == nil {
		s = &mvmBatchScratch{}
	}
	return s
}

// The sign-cleared IEEE-754 bits of a float64 order as its magnitude does,
// and ±Inf and every NaN sit at or above infBits: one unsigned maximum over
// an item's cleared bits is both its max |v| and its "any NaN or Inf".
const (
	signBit = 1 << 63
	infBits = 0x7FF << 52
)

// quantize is the input half of an MVM, and the only place an input is
// checked, scaled, rounded or narrowed: it rejects a mis-sized or non-finite
// item, takes each item's scale max |v| (1 for an all-zero item),
// shift-encodes v to Round((v/scale + 1)/2 · xMax) and leaves in s what the
// programmed kernel reads — x16 for the vector kernel, its pad zeroed on
// every call (the arena is reused across shapes and the routine multiplies
// the pad; panel16's pad is zero too, and neither side relies on the other),
// xInt for the Go kernel, xInt and its row masks for bit-serial — beside the
// per-item scale and sum the epilogue needs. On the vector panel one
// vectorQuantize call per item does the scan and the rounding; elsewhere
// quantizeRow does the rounding. All of it follows from the configuration,
// usedRows and the kernel Program chose, never from usedCols: the blocks of
// one tile row share a call.
func (x *Crossbar) quantize(s *mvmBatchScratch, inputs [][]float64) error {
	n, rows := len(inputs), x.usedRows
	for i, in := range inputs {
		if len(in) != rows {
			return fmt.Errorf("crossbar: input %d length %d != programmed rows %d", i, len(in), rows)
		}
	}
	s.xScale, s.xSumInt = grow(s.xScale, n), grow(s.xSumInt, n)
	xMax := float64(int32(1)<<x.cfg.InputBits - 1)
	if x.panel16 != nil {
		s.x16 = grow(s.x16, n*x.rows16)
		for i, in := range inputs {
			xi := s.x16[i*x.rows16:][:x.rows16]
			sum, top := vectorQuantize(&xi[0], &in[0], rows, xMax)
			if top >= infBits {
				return nonFinite(i, in)
			}
			s.xScale[i], s.xSumInt[i] = scaleOf(top), sum
			clear(xi[rows:]) // after the routine, whose last group of four stores into the pad
		}
		return nil
	}
	s.xInt = grow(s.xInt, n*rows)
	for i, in := range inputs {
		var top uint64
		for _, v := range in {
			top = max(top, math.Float64bits(v)&^signBit)
		}
		if top >= infBits {
			return nonFinite(i, in)
		}
		s.xScale[i] = scaleOf(top)
		s.xSumInt[i] = quantizeRow(s.xInt[i*rows:][:rows], in, s.xScale[i], xMax)
	}
	if !x.cfg.Functional {
		x.rowMasks(s, n)
	}
	return nil
}

// scaleOf is an item's scale from the maximum of its sign-cleared bits: max
// |v|, or 1 for an all-zero item.
func scaleOf(top uint64) float64 {
	if top == 0 {
		return 1
	}
	return math.Float64frombits(top)
}

// quantizeRow is the quantization loop: dst[r] = Round((in[r]/scale + 1)/2 ·
// xMax), the oracle's expression, returning the sum. The conversion rounds
// the product before roundHalfUp doubles it, which a compiler with a fused
// multiply-add may otherwise do from the unrounded one. The vector routine
// evaluates the same expression four lanes at a time (dot_amd64.s).
func quantizeRow(dst []int32, in []float64, scale, xMax float64) (sum int64) {
	for r, v := range in {
		x01 := (v/scale + 1) / 2
		q := roundHalfUp(float64(x01 * xMax))
		dst[r] = q
		sum += int64(q)
	}
	return sum
}

// roundHalfUp is math.Round for 0 ≤ t < 2^30, without its branches: rounding
// half away from zero is ⌊t⌋ plus one when the fraction reaches a half, and
// that is (⌊2t⌋ + 1) >> 1 — 2t is exact, ⌊2t⌋ = 2⌊t⌋ + [frac ≥ ½], and the
// truncating conversion is the floor of a non-negative value. (⌊t + ½⌋ is not
// it: below 1 the sum is inexact, and 0.49999999999999994 + 0.5 is 1.)
func roundHalfUp(t float64) int32 {
	return (int32(2*t) + 1) >> 1
}

// nonFinite names the first NaN or Inf of item i: the rescan that runs only
// once quantize's integer compare has found that there is one.
func nonFinite(i int, in []float64) error {
	for j, v := range in {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("crossbar: non-finite input at item %d index %d", i, j)
		}
	}
	panic("crossbar: nonFinite called on a finite item")
}

// merge says how multiply's results meet what dsts hold.
type merge int

const (
	store merge = iota // dst = y: the exported entry points
	first              // dst = 0 + y: a tile's first block row (a merge starts from +0, and 0 + −0 is +0)
	add                // dst += y: its later block rows
)

// multiply is the array half of an MVM: it runs the kernel Program chose
// over the panel quantize left in s, for len(dsts) items, and the digital
// epilogue, and merges the block's outputs into dsts (dsts[i] of length
// usedCols) as m says. The vector routine finishes its outputs itself; the
// Go kernels leave integer sums that dequantize finishes. nss is read on a
// noisy configuration only. It cannot fail: every check ran before it.
func (x *Crossbar) multiply(s *mvmBatchScratch, dsts [][]float64, nss []noise.Source, m merge) {
	n := len(dsts)
	s.acc = grow(s.acc, n*x.accStride)
	s.terms = grow(s.terms, 2*n)
	fxMax := float64(int32(1)<<x.cfg.InputBits - 1)
	for i := range n {
		s.terms[2*i] = 2 * float64(s.xSumInt[i]) / fxMax
		s.terms[2*i+1] = x.wScale * s.xScale[i]
	}
	switch {
	case x.panel16 != nil:
		x.vectorGEMM(s, n)
	case x.cfg.Functional:
		x.functionalGEMM(s, n)
		x.dequantize(s, n)
	default:
		x.bitSerialKernel(s, n, nss)
		x.dequantize(s, n)
	}

	for i, dst := range dsts {
		y := s.acc[i*x.accStride:][:len(dst)]
		switch m {
		case store:
			copy(dst, y)
		case first:
			for c, v := range y {
				dst[c] = v + 0
			}
		case add:
			for c, v := range y {
				dst[c] += v
			}
		}
	}
}

// dequantize is the digital epilogue of the Go kernels, in place over acc:
// it removes the shift-encoding offsets and restores each item's real-valued
// scale, y = wScale·xScale · (4·acc/(wMax·xMax) − 2·colSum/wMax − 2·xSum/xMax
// + rows), with colOffset[c] tabulated at Program, the item's terms computed
// by multiply and the constants from dequant, each with the expression and
// in the association of the formula. The vector routine's REDUCE evaluates
// the same operations in the same order, four columns a lane each. y is
// stored before multiply's merge adds it to dst, so no fused multiply-add
// can round scale·(…) + dst[c] once.
func (x *Crossbar) dequantize(s *mvmBatchScratch, n int) {
	four, full, rows := x.dequant[0], x.dequant[1], x.dequant[2]
	colOffset := x.colOffset[:x.usedCols]
	for i := 0; i < n; i++ {
		acc := s.acc[i*x.accStride:][:len(colOffset)]
		xOffset, scale := s.terms[2*i], s.terms[2*i+1]
		for c, off := range colOffset {
			acc[c] = scale * (four*acc[c]/full - off - xOffset + rows)
		}
	}
}

// multiplyCtx is multiply under the span MVMBatchIntoCtx records.
func (x *Crossbar) multiplyCtx(pc obs.Ctx, s *mvmBatchScratch, dsts [][]float64, nss []noise.Source, m merge) {
	sp := pc.Child("xbar.mvm_batch")
	x.multiply(s, dsts, nss, m)
	endBatchSpan(sp, x.cost, len(dsts))
}

// rowMasks sizes the bit-serial arenas and transposes every item's
// quantized row into its per-input-bit row masks, once per quantize; the
// kernel's column loop reuses them usedCols times. Eight rows a step, as
// packSlices builds the planes: the low and the high byte of eight
// quantized inputs are one word each, and gatherBits pulls one input bit
// out of each.
func (x *Crossbar) rowMasks(s *mvmBatchScratch, n int) {
	inBits, pw, rows := x.cfg.InputBits, x.planeWords, x.usedRows
	s.masks = grow(s.masks, n*inBits*pw)
	clear(s.masks) // OR-built below
	if s.sums == nil {
		// Fixed by the configuration, which a crossbar and so its pool
		// never changes, not by the programmed shape.
		s.sums = make([]uint32, inBits*x.numSlices)
		s.z = make([]float64, inBits*x.numSlices)
	}
	for i := 0; i < n; i++ {
		xi := s.xInt[i*rows:][:rows]
		mk := s.masks[i*inBits*pw:][:inBits*pw]
		for r := 0; r < rows; r += 8 {
			var lo, hi uint64
			for j, q := range xi[r:min(r+8, rows)] {
				lo |= uint64(q&0xFF) << uint(8*j)
				hi |= uint64(q>>8) << uint(8*j)
			}
			for b := 0; b < inBits; b++ {
				v := lo
				if b >= 8 {
					v = hi
				}
				mk[b*pw+r/64] |= gatherBits(v, uint(b%8)) << uint(r%64)
			}
		}
	}
}

// vectorDot and vectorQuantize are the host's vector routines, or nil when
// the host has none: set together once at start-up from the CPU's feature
// bits (dot_amd64.go; there is no other implementation). vectorDot is a whole
// functional-mode read — y[i*stride+c] = dequantize's output for the integer
// Σ_r w[c*rows+r]·x[i*rows+r], for each of cols columns and n items, rows a
// multiple of 16 and cols of 4 — and vectorQuantize one item of quantize into
// the 16-bit panel, returning its sum and the maximum of its sign-cleared
// bits. fuseWeights reads vectorDot when it picks the kernel, and the panel it
// builds selects both routines: tests set vectorDot alone to nil to get the Go
// kernel and quantizer on a host that has both.
var (
	vectorDot      func(y *float64, stride int, w, x *int16, rows, cols, n int, colOffset, terms *float64, k *[3]float64)
	vectorQuantize func(dst *int16, in *float64, n int, xMax float64) (sum int64, top uint64)
)

// vectorGEMM is the functional-mode kernel and epilogue on the vector unit:
// the exact integer product functionalGEMM computes, over 16-bit panels, and
// dequantize's expression over it, in one vectorDot call. quantize left each
// item's row in x16, pad zeroed; panel16 is zero-padded to the routine's
// 16-row step and four-column tile, colOffset is as long as that tile, and
// acc's stride is the padded column count, so the pad columns' outputs land
// between items where the merge does not read. fuseWeights built panel16
// only for shapes on which the integer is exact, so the float64 it converts
// to is the one functionalGEMM and the oracle produce, and the y it stores
// the one dequantize computes from it.
func (x *Crossbar) vectorGEMM(s *mvmBatchScratch, n int) {
	vectorDot(&s.acc[0], x.accStride, &x.panel16[0], &s.x16[0], x.rows16, x.accStride, n,
		&x.colOffset[0], &s.terms[0], &x.dequant)
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

// adcNoisy is one noisy analog-to-digital conversion. colSum arrives
// already perturbed by multiplicative cycle-to-cycle read noise, matching
// the device model: each read deviates by the relative Gaussian factor
// 1 + z·sigma, z the conversion's position-keyed standard normal draw. The
// ADC clips it to [0, maxSum] and quantizes in steps of step: the quotient is
// at most 2^ADCBits − 1 ≤ 65535, where roundHalfUp is the oracle's math.Round.
func adcNoisy(colSum, step, maxSum float64) float64 {
	if colSum < 0 {
		colSum = 0
	}
	if colSum > maxSum {
		colSum = maxSum
	}
	return float64(roundHalfUp(colSum/step)) * step
}

// bitSerialKernel is the bit-serial kernel: the honest analog pipeline, one
// ADC conversion per (array cycle, slice, column). The nest is (column,
// item): one column's planes are loaded once and meet every item's masks.
// Per (item, column) it fills the InputBits·slices integer column sums in
// conversion order (columnSums), takes that many draws in one fill —
// conversion k uses draw c + k·usedCols of the item's own source — and
// converts them in one flat loop, so the float accumulator extends in the
// oracle's (bit ascending, slice ascending) order and outputs match it bit
// for bit.
func (x *Crossbar) bitSerialKernel(s *mvmBatchScratch, n int, nss []noise.Source) {
	cols := x.usedCols
	inBits, pw := x.cfg.InputBits, x.planeWords
	sigma := x.cfg.ReadNoise
	adcStep, adcMaxSum := x.adcStep, x.adcMaxSum
	adcLUT := x.adcLUT
	sums, z := s.sums, s.z[:len(s.sums)]
	scale := x.scaleTab[:len(sums)]
	colWords, itemWords := x.cfg.WeightBits*pw, inBits*pw
	for c := 0; c < cols; c++ {
		pc := x.planes[c*colWords:][:colWords]
		for i := 0; i < n; i++ {
			columnSums(sums, pc, s.masks[i*itemWords:][:itemWords], x.numSlices, x.cfg.CellBits, pw)
			var a float64
			if sigma == 0 {
				// Noise-free sums are integers ≤ adcMaxSum, so the tabulated
				// ADC transfer replaces the clip, divide, and round —
				// bit-exactly.
				for k, v := range sums {
					a += adcLUT[v] * scale[k]
				}
			} else {
				nss[i].NormStride(z, uint64(c), uint64(cols))
				for k, v := range sums {
					a += adcNoisy(float64(v)*(1+z[k]*sigma), adcStep, adcMaxSum) * scale[k]
				}
			}
			s.acc[i*cols+c] = a
		}
	}
}

// columnSums fills sums[b*slices+s] with the analog column sum of array
// cycle b on slice s, for one column's planes pc and one item's masks mk
// (pw words each). A cycle drives the binary word-line vector of one input
// bit into the cells, so the sum is Σ_p 2^p · popcount(mask_b AND
// plane_{s,p}), 64 rows an instruction: an exact integer ≤ adcMaxSum, the
// one a gather over the stored levels adds up.
//
// The loops specialise on the programmed shape, never on a knob. The default
// block (two plane words, 2-bit cells) holds a slice's four plane words
// across the input-bit loop: four popcounts a conversion and no loop inside
// it, which at one trip would cost as much as the popcounts. It walks the
// masks by reslicing: indexed, the same loop ran 16 or 21 µs a 128² MVM
// depending on which 64-byte boundary the linker gave the function. Any
// other shape takes two planes of a slice at a time and, per input bit,
// counts both over the words in one loop, 128 rows a step, summing in
// registers; a lone last plane (odd cell widths) rides as its own upper
// plane at weight zero. docs/PERF.md has the shapes tried and their times.
func columnSums(sums []uint32, pc, mk []uint64, slices, cellBits, pw int) {
	if pw == 2 && cellBits == 2 {
		for s := 0; s < slices; s++ {
			q := pc[4*s:][:4]
			l0, l1, h0, h1 := q[0], q[1], q[2], q[3]
			k := s
			for m := mk; len(m) >= 2; m = m[2:] {
				m0, m1 := m[0], m[1]
				sums[k] = uint32(bits.OnesCount64(m0&l0) + bits.OnesCount64(m1&l1) +
					2*(bits.OnesCount64(m0&h0)+bits.OnesCount64(m1&h1)))
				k += slices
			}
		}
		return
	}
	inBits := len(mk) / pw
	for s := 0; s < slices; s++ {
		for p := 0; p < cellBits; p += 2 {
			lo := pc[(s*cellBits+p)*pw:][:pw]
			hi, hiWeight := lo, 0
			if p+1 < cellBits {
				hi, hiWeight = pc[(s*cellBits+p+1)*pw:][:pw], 2
			}
			for b := 0; b < inBits; b++ {
				m := mk[b*pw:][:pw]
				lo, hi := lo[:len(m)], hi[:len(m)] // pw words each; said here, it spares the loop bounds checks (5–8 %)
				var l, h int
				for w := 0; w+1 < len(m); w += 2 {
					l += bits.OnesCount64(m[w]&lo[w]) + bits.OnesCount64(m[w+1]&lo[w+1])
					h += bits.OnesCount64(m[w]&hi[w]) + bits.OnesCount64(m[w+1]&hi[w+1])
				}
				if p == 0 {
					sums[b*slices+s] = uint32(l + hiWeight*h)
				} else {
					sums[b*slices+s] += uint32(l+hiWeight*h) << uint(p)
				}
			}
		}
	}
}
