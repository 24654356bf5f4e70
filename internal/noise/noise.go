// Package noise is the simulator's counter-based analog-noise generator.
//
// The crossbar model perturbs every analog column sum with Gaussian read
// noise. The original implementation drew from a shared *rand.Rand, which
// made every noisy draw depend on the global draw *order* — so any code
// path touching noise had to force itself sequential to stay reproducible,
// and the worker pool sat idle exactly on the sweeps (noise ablations,
// Section VI accuracy studies) it was built to accelerate.
//
// This package replaces the stream with a splitmix64-style counter
// generator: a Source is an immutable 8-byte key, and the i-th draw is a
// pure function of (key, i). Determinism becomes *positional* instead of
// temporal — the noise applied to (input bit b, weight slice s, column c)
// of a given MVM is the same no matter which goroutine computes it, or in
// what order. That single property deletes every "noisy ⇒ sequential"
// fallback in crossbar, dpe, and experiments (see docs/PARALLELISM.md).
//
// # Key derivation
//
// Sources form a tree. A root comes from a seed (NewSource); each level of
// the simulation derives a child per unit of work:
//
//	engine   = NewSource(cfg.Seed)
//	perMVM   = engine.Derive(mvmSequence)  // one per inference/batch item
//	perStage = perMVM.Derive(stageIndex)   // one per network layer
//	perBlock = perStage.Derive(blockIndex) // one per crossbar in a tile
//	draw     = perBlock.Norm((b*slices+s)*cols + c)
//
// Every edge is a splitmix64 finalizer, so sibling streams are
// statistically independent, and the whole tree is reproducible from the
// one seed.
//
// The zero Source is "no source": Valid reports false, and noisy consumers
// reject it the way they used to reject a nil *rand.Rand. NewSource and
// Derive never return the zero Source.
//
// # The normal sampler
//
// Norm is the inner loop of every noisy simulation — one draw per (input
// bit, weight slice, column) ADC conversion, 74,048 per inference of the
// benchmark's 256-wide MLP — so it is a ziggurat over the one word
// Uint64(i): a table compare and a multiply for 97 % of draws. A ziggurat
// is a rejection method, and the stock ones (rand.NormFloat64) take their
// retry from the next word of a shared stream, which would make draw i
// depend on how many words draw i-1 consumed. Here a draw that needs more
// words takes them from a chain seeded by its own first word,
// w' = mix(w + golden), so it never touches the counter of another draw
// and positional determinism survives any number of rejections.
//
// Norm is the definition of a draw; the crossbar kernel takes its draws
// through NormStride, which fills a slice with Norm over a strided run of
// indices — the conversions of one column are draws c, c+cols, c+2·cols, …
// — so that the call leaves the conversion loop (Norm is too big for the Go
// inliner to move into another package) and the fast path runs in a loop
// of this package's own — on an AVX-512 host an assembly routine that takes
// eight draws a step (norm_amd64.s), in Go everywhere else. The fill is
// Norm bit for bit, slow paths included.
//
// Uint64, Float64 and Derive are the stream everything else is keyed by
// (arrival schedules, fault maps, chaos spikes); TestStreamGolden pins
// them, and a change of sampler re-rolls Norm alone.
package noise

import "math"

// golden is the splitmix64 increment (2^64 / phi).
const golden = 0x9e3779b97f4a7c15

// Source is an immutable counter-based noise stream. The zero value is the
// "no noise" source (Valid() == false). Source is a tiny value type: copy
// it freely, share it across goroutines, derive children without
// allocating.
type Source struct {
	key uint64
}

// mix is the splitmix64 finalizer: a bijective avalanche over uint64.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// nonzero remaps the (single) zero key so valid sources never collide with
// the zero Source sentinel.
func nonzero(k uint64) uint64 {
	if k == 0 {
		return golden
	}
	return k
}

// NewSource returns the root source for a seed. Distinct seeds give
// statistically independent streams; the same seed always gives the same
// stream.
func NewSource(seed int64) Source {
	return Source{key: nonzero(mix(uint64(seed) + golden))}
}

// Valid reports whether s is a real source (false for the zero Source).
func (s Source) Valid() bool { return s.key != 0 }

// Derive returns the i-th child source. Children with different indices,
// and children of different parents, are statistically independent.
func (s Source) Derive(i uint64) Source {
	return Source{key: nonzero(mix(s.key ^ mix(i*golden+golden)))}
}

// Uint64 returns the i-th raw draw of the stream: a pure function of
// (source, i), so draws may be evaluated in any order by any goroutine.
func (s Source) Uint64(i uint64) uint64 {
	return mix(s.key + (i+1)*golden)
}

// Float64 returns the i-th uniform draw in the open interval (0, 1).
func (s Source) Float64(i uint64) float64 {
	// 53 high bits, centered on the lattice: never exactly 0 or 1.
	return (float64(s.Uint64(i)>>11) + 0.5) * (1.0 / (1 << 53))
}

// The ziggurat (Marsaglia & Tsang 2000) covers the half-normal density
// f(x) = exp(-x²/2) with zigLayers regions of equal area zigV: layers
// 1..127 are rectangles [0, x_l] × [f(x_l), f(x_{l-1})] with x_127 = zigR
// down to x_0 = 0, and layer 0 is the base strip, the rectangle
// [0, zigR] × [0, f(zigR)] plus the tail beyond zigR. zigR is the edge at
// which the recurrence f(x_{l-1}) = f(x_l) + zigV/x_l closes on f(x_0) = 1,
// solved to float64 precision (Marsaglia & Tsang print its first twelve
// digits); TestZigguratTables recomputes the tables and the closure.
const (
	zigLayers = 128
	zigR      = 3.442619855896652
	zigV      = 9.912563035336461e-3
)

// zigK, zigW and zigF are the per-layer tables. A layer's 53-bit signed
// uniform j maps to x = j·zigW[l], which spans (-x_l, x_l) (the strip's
// width zigV/f(zigR) for l = 0); |j| < zigK[l] means |x| < x_{l-1}, where
// the whole rectangle lies under the curve; zigF[l] = f(x_l).
var zigK, zigW, zigF = zigTables()

func zigTables() (k [zigLayers]uint64, w, f [zigLayers]float64) {
	const m = 1 << 52
	fr := math.Exp(-0.5 * zigR * zigR)
	k[0], w[0], f[0] = uint64(zigR*fr/zigV*m), zigV/fr/m, 1
	x := zigR
	for l := zigLayers - 1; l >= 1; l-- {
		w[l], f[l] = x/m, math.Exp(-0.5*x*x)
		inner := 0.0
		if l > 1 {
			inner = math.Sqrt(-2 * math.Log(zigV/x+f[l]))
		}
		k[l] = uint64(inner / x * m)
		x = inner
	}
	return k, w, f
}

// Norm returns the i-th standard normal draw (mean 0, std 1): an exact
// ziggurat sample over the single word Uint64(i). The low 7 bits of the
// word pick the layer and the high 53 the signed uniform — disjoint bits,
// so the two are independent — and 97.2 % of draws return from the one
// compare and one multiply below; the rest finish in normSlow, still as a
// pure function of (source, i). (Through PR 17 this was Box-Muller over
// two uniforms: as pure, but a log, a sqrt and a cos per draw, 57 % of a
// noisy inference; docs/PERF.md.)
func (s Source) Norm(i uint64) float64 {
	w := s.Uint64(i)
	j := int64(w) >> 11
	l := w % zigLayers
	if uint64(max(j, -j)) < zigK[l] {
		return float64(j) * zigW[l]
	}
	return normSlow(w)
}

// NormStride fills dst[k] = s.Norm(start + k·stride), bit for bit, index
// arithmetic wrapping mod 2^64 as Norm's does. It is Norm with the call
// taken out of the caller's loop: the crossbar kernel's draws for one
// (item, column) are one strided run, and Norm cannot inline into another
// package (docs/PERF.md), so the counter steps by stride·golden and the
// fast path runs here, in a fill of this package's own — the host's vector
// routine where it has one (normStrideVec), normStrideGo otherwise. Norm
// stays the definition; TestNormStrideMatchesNorm holds the fill to it.
func (s Source) NormStride(dst []float64, start, stride uint64) {
	ctr, step := s.key+(start+1)*golden, stride*golden
	if normStrideVec != nil {
		normStrideVec(dst, ctr, step)
		return
	}
	normStrideGo(dst, ctr, step)
}

// normStrideVec is the host's vector fill, or nil where it has none: set at
// start-up from CPUID (norm_amd64.go; there is no other implementation). It
// fills dst[k] with the draw of counter ctr + k·step, as normStrideGo does,
// and is held == to it and to Norm by the same tests.
var normStrideVec func(dst []float64, ctr, step uint64)

// normStrideGo is the fill in Go, and the only one on a host without a
// vector routine: dst[k] is the draw of the counter word ctr + k·step.
func normStrideGo(dst []float64, ctr, step uint64) {
	for k := range dst {
		w := mix(ctr)
		ctr += step
		j := int64(w) >> 11
		l := w % zigLayers
		if uint64(max(j, -j)) < zigK[l] {
			dst[k] = float64(j) * zigW[l]
		} else {
			dst[k] = normSlow(w)
		}
	}
}

// normSlow finishes a draw whose word w missed its layer's fast region.
// Layer 0 samples the tail beyond zigR (Marsaglia's exponential rejection,
// bounded by zigR + 54·ln2/zigR < 14.4 on the Float64 lattice); any other
// layer tests the wedge between its rectangle and the curve (underCurve),
// and on rejection starts over. Every further word comes from the chain
// w ← mix(w + golden) seeded by the draw's own word, never from a
// neighbouring counter, so the value cannot depend on evaluation order.
func normSlow(w uint64) float64 {
	for {
		j := int64(w) >> 11
		l := w % zigLayers
		x := float64(j) * zigW[l]
		if uint64(max(j, -j)) < zigK[l] {
			return x // only a retry lands here
		}
		if l == 0 {
			for {
				w = mix(w + golden)
				x = -math.Log(unit(w)) / zigR
				w = mix(w + golden)
				if y := -math.Log(unit(w)); y+y >= x*x {
					break
				}
			}
			if j < 0 {
				return -zigR - x
			}
			return zigR + x
		}
		w = mix(w + golden)
		if underCurve(l, x, zigF[l]+unit(w)*(zigF[l-1]-zigF[l])) {
			return x
		}
		w = mix(w + golden)
	}
}

// underCurve reports whether the wedge point (x, y) of layer l ≥ 1 lies
// under the curve, y < exp(−x²/2) with math.Exp's value of the right side,
// calling math.Exp only when zigSqueeze[l]'s two lines cannot decide.
func underCurve(l uint64, x, y float64) bool {
	q := &zigSqueeze[l]
	ax := math.Abs(x)
	if y < q.lo0+q.lo1*ax {
		return true
	}
	if y >= q.hi0+q.hi1*ax {
		return false
	}
	return y < math.Exp(-0.5*x*x)
}

// zigSqueeze[l] brackets the curve f(x) = exp(−x²/2) over layer l's wedge,
// |x| ∈ [x_{l−1}, x_l] (x_0 = 0), between two lines in |x|: lo0 + lo1·|x|
// below it and hi0 + hi1·|x| above — McFarland's convexity squeeze (2016).
// One line is the chord through the layer's end points, the other the
// tangent at its middle. Where f is convex (|x| ≥ 1) the chord lies above
// the curve and the tangent below; where it is concave, the other way
// round. The one layer that straddles |x| = 1 has neither, so its lines are
// −∞ and +∞ and every one of its wedge tests calls math.Exp.
//
// Both lines are moved apart by squeezeMargin·f(x_{l−1}), f's largest value
// on the layer. What underCurve compares with is not f but its computed
// value math.Exp(−0.5·x·x), and its lines are float64 expressions too: the
// Exp result is within an ulp or two of f at the rounded argument, the
// rounding of −0.5·x·x moves f by at most x²/2 ≈ 6 ulps relative at zigR,
// a line's coefficients and its evaluation add a few ulps of the terms
// (which cancel by at most 1 + x_l² ≈ 13×), and |x| falls short of
// x_{l−1} by at most x_l·2⁻⁵² (zigK is truncated) — all under
// 1e-14·f(x_{l−1}), a hundredth of the margin. So a point below the lower line is under the
// computed curve and one at or above the upper line is not, and underCurve
// decides every wedge test as `y < math.Exp(-0.5*x*x)` alone would:
// TestNormSlowMatchesRef and TestSqueezeBounds hold it to that.
var zigSqueeze = squeezeTables()

// squeezeMargin is the relative gap between each squeeze line and the curve.
const squeezeMargin = 1e-12

type squeeze struct{ lo0, lo1, hi0, hi1 float64 }

func squeezeTables() (q [zigLayers]squeeze) {
	const m = 1 << 52
	for l := 1; l < zigLayers; l++ {
		a, b := 0.0, zigW[l]*m
		if l > 1 {
			a = zigW[l-1] * m
		}
		fa, fb := zigF[l-1], zigF[l]
		s := (fb - fa) / (b - a)
		chord0, chord1 := fa-s*a, s
		t := (a + b) / 2
		ft := math.Exp(-0.5 * t * t)
		tan0, tan1 := ft*(1+t*t), -t*ft
		d := squeezeMargin * fa
		switch {
		case b <= 1: // concave
			q[l] = squeeze{chord0 - d, chord1, tan0 + d, tan1}
		case a >= 1: // convex
			q[l] = squeeze{tan0 - d, tan1, chord0 + d, chord1}
		default:
			q[l] = squeeze{math.Inf(-1), 0, math.Inf(1), 0}
		}
	}
	return q
}

// unit maps a chain word to the same centered (0, 1) lattice as Float64.
func unit(w uint64) float64 {
	return (float64(w>>11) + 0.5) * (1.0 / (1 << 53))
}
