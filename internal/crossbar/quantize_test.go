package crossbar

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleQuantize is the input quantization as naiveMVM writes it — Abs scan,
// all-zero guard, shift encoding, math.Round — kept beside the quantizer the
// way the oracle is kept beside the kernels.
func oracleQuantize(inputBits int, in []float64) (q []int, scale float64, sum int64) {
	for _, v := range in {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	xMax := float64(int(1)<<inputBits - 1)
	q = make([]int, len(in))
	for i, v := range in {
		x01 := (v/scale + 1) / 2
		q[i] = int(math.Round(x01 * xMax))
		sum += int64(q[i])
	}
	return q, scale, sum
}

// quantizerFor returns a programmed rows × 1 crossbar whose quantize fills
// the 16-bit panel (vector) or the 32-bit one, or nil when the host or the
// shape cannot give the panel asked for.
func quantizerFor(t testing.TB, inputBits, rows int, vector bool) *Crossbar {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Functional = true
	cfg.InputBits = inputBits
	cfg.Rows, cfg.Cols = rows, 1
	if !vector {
		defer goKernelOnly()()
	}
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := make([][]float64, rows)
	for r := range w {
		w[r] = []float64{1}
	}
	if _, err := xb.Program(w); err != nil {
		t.Fatal(err)
	}
	if vector != xb.vectorKernel() {
		return nil
	}
	return xb
}

// checkQuantize runs quantize over ins on both panels and compares each
// item's integers, pad, sum and scale to oracleQuantize with ==. The 16-bit
// arena is dirty before the call — every row of every item, the rows
// [rows, ⌈rows/4⌉·4) the vector routine's last group of four stores into
// included, and one item's worth past the last — and comes back with every
// item's pad zero and nothing written past the last item.
func checkQuantize(t *testing.T, inputBits int, ins [][]float64) {
	t.Helper()
	rows := len(ins[0])
	for _, vector := range []bool{false, true} {
		xb := quantizerFor(t, inputBits, rows, vector)
		if xb == nil {
			continue
		}
		s := xb.getScratch()
		s.x16 = make([]int16, (len(ins)+1)*(rows+16))
		for i := range s.x16 {
			s.x16[i] = 1
		}
		if err := xb.quantize(s, ins); err != nil {
			t.Fatal(err)
		}
		if vector {
			if (rows+3)&^3 > xb.stride {
				t.Fatalf("rows=%d: the routine's last group of four ends past the item's %d rows", rows, xb.stride)
			}
			for j, q := range s.x16[len(ins)*xb.stride : cap(s.x16)] {
				if q != 1 {
					t.Fatalf("input=%d rows=%d: the arena %d elements past the last item holds %d", inputBits, rows, j, q)
				}
			}
		}
		for i, in := range ins {
			want, scale, sum := oracleQuantize(inputBits, in)
			if s.xScale[i] != scale || s.xSumInt[i] != sum {
				t.Fatalf("input=%d vector=%v item %d: scale %v sum %d, oracle %v %d", inputBits, vector, i, s.xScale[i], s.xSumInt[i], scale, sum)
			}
			for r := range in {
				var got int
				if vector {
					got = int(s.x16[i*xb.stride+r])
				} else {
					got = int(s.xInt[i*rows+r])
				}
				if got != want[r] {
					t.Fatalf("input=%d vector=%v item %d row %d: v=%v (scale %v) quantized to %d, oracle %d", inputBits, vector, i, r, in[r], scale, got, want[r])
				}
			}
			if vector {
				for r, q := range s.x16[i*xb.stride:][rows:xb.stride] {
					if q != 0 {
						t.Fatalf("input=%d item %d: pad row %d holds %d", inputBits, i, rows+r, q)
					}
				}
			}
		}
		xb.batchScratch.Put(s)
	}
}

// TestQuantizeMatchesRound pins the quantizer to the oracle's expressions.
// The rounding: roundHalfUp == math.Round at every exact half k + ½ of every
// input width's range, at both float64 neighbours of each, at 0, at xMax and
// at 0.49999999999999994 — the value ⌊t + ½⌋ gets wrong — and, for adcNoisy,
// whose quotient is clipped to [0, 2^ADCBits − 1] on the same widths and may
// sit an ulp past that, at k = xMax and just above xMax too: every half below
// 2^16 in all. The whole step: for every input width, inputs that land t =
// x01·xMax on and beside every half the expression can reach, through both
// panels. The scale: an all-zero item scales by 1; a lone denormal and a lone
// MaxFloat64 are their item's scale, taken from the integer order of the IEEE
// bits.
func TestQuantizeMatchesRound(t *testing.T) {
	for bits := 1; bits <= 16; bits++ {
		xMax := float64(int(1)<<bits - 1)
		ts := []float64{0, 0.49999999999999994, xMax, math.Nextafter(xMax, 0), math.Nextafter(xMax, 2*xMax)}
		for k := 0.0; k <= xMax; k++ {
			h := k + 0.5
			ts = append(ts, h, math.Nextafter(h, 0), math.Nextafter(h, 2*xMax))
		}
		for _, v := range ts {
			if got, want := roundHalfUp(v), int32(math.Round(v)); got != want {
				t.Fatalf("input=%d: roundHalfUp(%v) = %d, math.Round gives %d", bits, v, got, want)
			}
		}

		// Through the expression: v = 2t/xMax − 1 lands x01·xMax on t or
		// within an ulp or two of it, so a few neighbours of v on each side
		// cross every half that can be crossed. First element 1: scale 1.
		in := []float64{1}
		for k := 0.0; k < xMax; k += max(1, math.Floor(xMax/512)) {
			v := 2*(k+0.5)/xMax - 1
			lo, hi := v, v
			in = append(in, v)
			for j := 0; j < 3; j++ {
				lo, hi = math.Nextafter(lo, -1), math.Nextafter(hi, 1)
				in = append(in, lo, hi)
			}
		}
		in = append(in, -1, 0, math.Copysign(0, -1), 2*0.49999999999999994/xMax-1)
		halves := 0
		for _, v := range in {
			if h := (v + 1) / 2 * xMax; h-math.Floor(h) == 0.5 {
				halves++
			}
		}
		if halves == 0 {
			t.Fatalf("input=%d: none of %d inputs lands on an exact half; the sweep is vacuous", bits, len(in))
		}
		checkQuantize(t, bits, [][]float64{in})
	}

	denormal := math.SmallestNonzeroFloat64
	for _, bits := range []int{1, 8, 15, 16} {
		checkQuantize(t, bits, [][]float64{
			{0, 0, 0, 0, 0},
			{0, math.Copysign(0, -1), 0, 0, 0},
			{0, 0, denormal, 0, 0},
			{-denormal, 0, denormal, 3 * denormal, 0},
			{0, -math.MaxFloat64, 0, 1, 0},
			{math.MaxFloat64, math.MaxFloat64 / 3, -1e300, 1, 0},
		})
	}
}

// testNonFinite is TestMVMBatchValidation's value check: a NaN, +Inf or −Inf
// at the first, a middle and the last index of items 1–5, 7, 128 and 129
// long — a lone masked lane, every partial group of four and a whole one of
// the vector quantizer, below, on and past the 16-row step and the 128-row
// array — is rejected with the error text, item and index the validation
// loop the quantizer's scan replaced gave, by MVMBatchInto on both
// functional panels and in bit-serial mode, and dsts come back untouched:
// the item before the bad one has been quantized by then, and nothing has
// been multiplied.
func testNonFinite(t *testing.T) {
	bad := map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)}
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 128, 129} {
		for _, mode := range []string{"vector", "go", "bit-serial"} {
			var xb *Crossbar
			if mode == "bit-serial" {
				cfg := DefaultConfig()
				cfg.Rows, cfg.Cols = rows, 2
				var err error
				if xb, err = New(cfg); err != nil {
					t.Fatal(err)
				}
				if _, err := xb.Program(randomMatrix(rand.New(rand.NewSource(1)), rows, 2)); err != nil {
					t.Fatal(err)
				}
			} else if xb = quantizerFor(t, 8, rows, mode == "vector"); xb == nil {
				continue
			}
			for name, v := range bad {
				for _, idx := range []int{0, rows / 2, rows - 1} {
					rng := rand.New(rand.NewSource(int64(rows)))
					ins := batchInputs(rng, 3, rows)
					ins[1][idx] = v
					ins[2][0] = v // a later item's does not win
					dsts := make([][]float64, len(ins))
					for i := range dsts {
						dsts[i] = make([]float64, xb.usedCols)
						for c := range dsts[i] {
							dsts[i][c] = 42
						}
					}
					_, err := xb.MVMBatchInto(dsts, ins, nil)
					want := fmt.Sprintf("crossbar: non-finite input at item 1 index %d", idx)
					if err == nil || err.Error() != want {
						t.Fatalf("%s rows=%d %s at %d: error %v, want %q", mode, rows, name, idx, err, want)
					}
					for i := range dsts {
						for c, y := range dsts[i] {
							if y != 42 {
								t.Fatalf("%s rows=%d %s at %d: dst %d col %d written (%v) by a failed call", mode, rows, name, idx, i, c, y)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzQuantize: for any input width, item length, magnitude and values, the
// panel quantize leaves — either one — its pad, the item's quantized sum and
// its scale equal the oracle's expressions.
func FuzzQuantize(f *testing.F) {
	f.Add(int64(1), uint8(8), uint16(128), int16(0))
	f.Add(int64(2), uint8(16), uint16(129), int16(300))   // inputs near MaxFloat64
	f.Add(int64(3), uint8(1), uint16(1), int16(-320))     // one denormal
	f.Add(int64(4), uint8(15), uint16(17), int16(-1000))  // underflows to an all-zero item
	f.Add(int64(5), uint8(12), uint16(250), int16(-3000)) // exponent clamps
	f.Add(int64(6), uint8(8), uint16(4), int16(0))        // five rows: one masked lane after a group of four
	f.Add(int64(7), uint8(7), uint16(5), int16(2))        // six: two masked lanes
	f.Add(int64(8), uint8(15), uint16(6), int16(-2))      // seven: three masked lanes
	f.Fuzz(func(t *testing.T, seed int64, inBits uint8, rows uint16, exp10 int16) {
		bits := 1 + int(inBits)%16
		n := 1 + int(rows)%300
		rng := rand.New(rand.NewSource(seed))
		mag := math.Pow(10, float64(max(min(int(exp10), 308), -330)))
		ins := batchInputs(rng, 3, n)
		for _, in := range ins {
			for r := range in {
				in[r] *= mag
				switch rng.Intn(8) {
				case 0:
					in[r] = 0
				case 1: // on a quantization step's edge, or an ulp off it
					k := float64(rng.Intn(1<<bits)) + 0.5
					in[r] = math.Nextafter((2*k/float64(int(1)<<bits-1)-1)*mag, float64(rng.Intn(3)-1)*math.MaxFloat64)
				}
			}
		}
		for _, in := range ins {
			for r, v := range in {
				if math.IsInf(v, 0) || math.IsNaN(v) {
					in[r] = math.MaxFloat64
				}
			}
		}
		checkQuantize(t, bits, ins)
	})
}
