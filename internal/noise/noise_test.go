package noise

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestZeroSourceInvalid(t *testing.T) {
	var s Source
	if s.Valid() {
		t.Error("zero Source must be invalid")
	}
	if !NewSource(0).Valid() {
		t.Error("NewSource(0) must be valid")
	}
	if !NewSource(0).Derive(0).Valid() {
		t.Error("derived source must be valid")
	}
}

func TestDeterminism(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := uint64(0); i < 100; i++ {
		if a.Norm(i) != b.Norm(i) {
			t.Fatalf("draw %d differs for identical sources", i)
		}
		if a.Derive(i) != b.Derive(i) {
			t.Fatalf("child %d differs for identical sources", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := NewSource(1), NewSource(2)
	if a == b {
		t.Fatal("different seeds produced identical sources")
	}
	same := 0
	for i := uint64(0); i < 64; i++ {
		if a.Uint64(i) == b.Uint64(i) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/64 draws collide across seeds", same)
	}
}

func TestDeriveDecorrelates(t *testing.T) {
	root := NewSource(7)
	c0, c1 := root.Derive(0), root.Derive(1)
	if c0 == c1 || c0 == root || c1 == root {
		t.Fatal("Derive must produce distinct sources")
	}
	// Sibling streams must not be shifted copies of each other.
	for i := uint64(0); i < 64; i++ {
		if c0.Uint64(i) == c1.Uint64(i) {
			t.Fatalf("draw %d identical across siblings", i)
		}
	}
}

func TestOrderIndependence(t *testing.T) {
	// The defining property: draw i is the same whether evaluated first,
	// last, or concurrently.
	s := NewSource(99)
	forward := make([]float64, 256)
	for i := range forward {
		forward[i] = s.Norm(uint64(i))
	}
	backward := make([]float64, 256)
	for i := len(backward) - 1; i >= 0; i-- {
		backward[i] = s.Norm(uint64(i))
	}
	for i := range forward {
		if forward[i] != backward[i] {
			t.Fatalf("draw %d depends on evaluation order", i)
		}
	}
	// And concurrently, under -race.
	concurrent := make([]float64, 256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 256; i += 8 {
				concurrent[i] = s.Norm(uint64(i))
			}
		}(w)
	}
	wg.Wait()
	for i := range forward {
		if forward[i] != concurrent[i] {
			t.Fatalf("draw %d differs under concurrent evaluation", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewSource(3)
	for i := uint64(0); i < 10000; i++ {
		v := s.Float64(i)
		if v <= 0 || v >= 1 {
			t.Fatalf("Float64(%d) = %v outside (0,1)", i, v)
		}
	}
}

// TestStreamGolden pins the raw stream. Arrival schedules and class mixes
// (workloadgen), fault maps (faultinject), chaos spikes and breaker jitter
// are all drawn from Uint64 / Float64 of derived sources, so these values
// may never move: a sampler change re-rolls Norm and nothing else. The
// values were captured at PR 17, the commit before the ziggurat.
func TestStreamGolden(t *testing.T) {
	for _, g := range []struct {
		seed int64
		j, i uint64
		word uint64
		unit float64
	}{
		{0, 0, 0, 0x6e789e6aa1b965f4, 0.43152799704851},
		{1, 0, 0, 0x0c7ba33b30576ab0, 0.048761560392760195},
		{1, 1, 1, 0x90c92fb3deca1053, 0.5655698598991779},
		{1, 2, 12345, 0xc0c240682e8443fc, 0.7529640440320842},
		{-1, 7, 1 << 40, 0xe1c719ed391523f0, 0.8819442943723357},
		{42, 1 << 63, 3, 0x7069220551e37d11, 0.43910420064811534},
		{2026, 3, 1<<64 - 1, 0x67d16e155733b6ba, 0.40553939839374104},
	} {
		s := NewSource(g.seed).Derive(g.j)
		if got := s.Uint64(g.i); got != g.word {
			t.Errorf("NewSource(%d).Derive(%d).Uint64(%d) = %#016x, pinned %#016x", g.seed, g.j, g.i, got, g.word)
		}
		if got := s.Float64(g.i); got != g.unit {
			t.Errorf("NewSource(%d).Derive(%d).Float64(%d) = %v, pinned %v", g.seed, g.j, g.i, got, g.unit)
		}
	}
}

// density is the unnormalized half-normal the ziggurat covers.
func density(x float64) float64 { return math.Exp(-0.5 * x * x) }

// TestZigguratTables recomputes the tables from what defines them instead
// of from zigTables' own loop: zigV is the base strip's area (rectangle
// plus tail, the tail by erfc), every layer is a rectangle of that same
// area — which for layer 1, whose upper edge is f(0) = 1, is the closure
// condition that fixes zigR — and the edges walked down from zigR by the
// recurrence land on the tabulated widths, heights and thresholds.
func TestZigguratTables(t *testing.T) {
	const m = 1 << 52
	near := func(name string, got, want, rel float64) {
		t.Helper()
		if math.Abs(got-want) > rel*math.Abs(want) {
			t.Errorf("%s = %.17g, want %.17g (±%g relative)", name, got, want, rel)
		}
	}
	fr := density(zigR)
	near("zigV", zigV, zigR*fr+math.Sqrt(math.Pi/2)*math.Erfc(zigR/math.Sqrt2), 1e-14)
	near("base strip area", zigW[0]*m*fr, zigV, 1e-14)
	near("base strip threshold", float64(zigK[0])/m, zigR/(zigV/fr), 1e-14)
	if zigF[0] != 1 || zigK[1] != 0 {
		t.Errorf("top layer: zigF[0] = %v, zigK[1] = %d; want f(0) = 1 and no fast region", zigF[0], zigK[1])
	}
	x := zigR
	for l := zigLayers - 1; l >= 1; l-- {
		near(fmt.Sprintf("zigW[%d]·2^52", l), zigW[l]*m, x, 1e-12)
		near(fmt.Sprintf("zigF[%d]", l), zigF[l], density(x), 1e-12)
		near(fmt.Sprintf("layer %d area", l), zigW[l]*m*(zigF[l-1]-zigF[l]), zigV, 1e-10)
		if l == 1 {
			break
		}
		inner := math.Sqrt(-2 * math.Log(zigV/x+density(x)))
		if !(inner < x) {
			t.Fatalf("edge %d = %v is not inside edge %d = %v", l-1, inner, l, x)
		}
		near(fmt.Sprintf("zigK[%d]/2^52", l), float64(zigK[l])/m, inner/x, 1e-12)
		x = inner
	}
}

// pathOf re-walks the sampler over a draw's first word and names the
// branches taken, in order: "F" a fast accept, "W+" / "W-" a wedge test
// accepted / rejected (a rejection restarts from the next chain word),
// "t-" a rejection inside the tail loop, "T" a tail accept. It is the
// sampler written a second time, so TestNormBranches also holds Norm to
// it value for value.
func pathOf(w uint64) (path string, x float64) {
	for {
		j := int64(w) >> 11
		l := w % zigLayers
		x = float64(j) * zigW[l]
		if uint64(max(j, -j)) < zigK[l] {
			return path + "F", x
		}
		if l == 0 {
			for {
				w = mix(w + golden)
				x = -math.Log(unit(w)) / zigR
				w = mix(w + golden)
				if y := -math.Log(unit(w)); y+y >= x*x {
					break
				}
				path += "t-"
			}
			if j < 0 {
				x = -x - zigR
			} else {
				x += zigR
			}
			return path + "T", x
		}
		w = mix(w + golden)
		if zigF[l]+unit(w)*(zigF[l-1]-zigF[l]) < density(x) {
			return path + "W+", x
		}
		path += "W-"
		w = mix(w + golden)
	}
}

// slowDraws names one draw per sampler branch, found by search. The
// crossbar and tile purity suites lean on the two sources: NewSource(82)
// is the noise source of crossbar's TestNoisySlowPathDraws (a 16×16 array
// draws indices 0..511), and NewSource(8).Derive(0) is block 0 of the tile
// that TestTileNoisyParallelEquivalence runs at pool widths 1/4/16
// (indices 0..1023).
var slowDraws = []struct {
	src  Source
	i    uint64
	path string
}{
	{NewSource(82), 0, "F"},
	{NewSource(82), 52, "W+"},   // top layer: no fast region at all
	{NewSource(82), 298, "W+"},  // layer 44
	{NewSource(82), 48, "W-F"},  // wedge reject, retry accepted fast
	{NewSource(82), 244, "W-F"}, // layer 126, next to the base strip
	{NewSource(82), 123, "T"},   // negative tail
	{NewSource(82), 382, "T"},
	{NewSource(82), 5232, "T"}, // positive tail
	{NewSource(82), 2017, "W-W+"},
	{NewSource(82), 6420, "W-W-F"},
	{NewSource(82), 2650, "t-T"},     // one rejection inside the tail loop
	{NewSource(82), 506236, "W-T"},   // wedge reject, retry lands in the tail
	{NewSource(82), 50016, "W-W-W+"}, // three words deep into the chain
	{NewSource(8).Derive(0), 127, "W-F"},
	{NewSource(8).Derive(0), 506, "T"},
}

// TestNormBranches: every branch of the sampler is reached by a named
// draw, agrees with the second implementation, and — the property the
// rejection chain exists for — comes out the same on repeat and from 16
// goroutines at once, however many words it consumed.
func TestNormBranches(t *testing.T) {
	for _, d := range slowDraws {
		path, want := pathOf(d.src.Uint64(d.i))
		if path != d.path {
			t.Errorf("draw %d of %v takes path %q, named %q", d.i, d.src, path, d.path)
		}
		if tail := math.Abs(want) > zigR; tail != strings.HasSuffix(path, "T") {
			t.Errorf("draw %d of %v: path %q but value %v (only the tail sampler reaches past %v)", d.i, d.src, path, want, zigR)
		}
		got := make([]float64, 16)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g] = d.src.Norm(d.i)
			}(g)
		}
		wg.Wait()
		if repeat := d.src.Norm(d.i); repeat != want {
			t.Fatalf("draw %d of %v (%s): Norm = %v, second implementation %v", d.i, d.src, d.path, repeat, want)
		}
		for g, v := range got {
			if v != want {
				t.Fatalf("draw %d of %v (%s): goroutine %d got %v, want %v", d.i, d.src, d.path, g, v, want)
			}
		}
	}
	// The same agreement over a plain run of draws, and the branch mix the
	// docs quote: 97.2 % fast, 1.2 % rejected (1 − √(π/2)/(128·zigV)).
	s := NewSource(5)
	const n = 1 << 20
	var fast, rejected int
	for i := uint64(0); i < n; i++ {
		path, want := pathOf(s.Uint64(i))
		if got := s.Norm(i); got != want {
			t.Fatalf("Norm(%d) = %v, second implementation %v (path %s)", i, got, want, path)
		}
		if path == "F" {
			fast++
		}
		if strings.HasPrefix(path, "W-") {
			rejected++
		}
	}
	if f := float64(fast) / n; math.Abs(f-0.9724) > 0.001 {
		t.Errorf("fast-path share %.4f, want 0.9724", f)
	}
	if r := float64(rejected) / n; math.Abs(r-0.0122) > 0.0006 {
		t.Errorf("wedge-reject share %.4f, want 0.0122", r)
	}
}

// sigmas is the tolerance every statistical check below allows: 4.5
// standard errors of the statistic under the null hypothesis, a two-sided
// false-alarm rate of 7e-6 per check on a fresh seed. The seeds are
// fixed, so a pass is a pass forever; the bound says how surprising a
// failure would have been.
const sigmas = 4.5

// TestNormDistribution holds the sampler to the standard normal: moments
// through the fourth, symmetry, a chi-square over 128 equiprobable bins of
// Φ, and the two-sided tail mass beyond 3σ, 4σ and 5σ against erfc within
// the binomial tolerance.
func TestNormDistribution(t *testing.T) {
	s := NewSource(12345)
	const n = 1 << 22
	const bins = 128
	var m1, m2, m3, m4 float64
	var positive int
	var hist [bins]int
	for i := uint64(0); i < n; i++ {
		v := s.Norm(i)
		v2 := v * v
		m1 += v
		m2 += v2
		m3 += v2 * v
		m4 += v2 * v2
		if v > 0 {
			positive++
		}
		hist[min(int(0.5*math.Erfc(-v/math.Sqrt2)*bins), bins-1)]++
	}
	// Standard errors of the raw moments of N(0,1): Var(x^k) = (2k−1)!! − E[x^k]².
	for _, c := range []struct {
		name            string
		got, want, var1 float64
	}{
		{"mean", m1 / n, 0, 1},
		{"second moment", m2 / n, 1, 2},
		{"third moment", m3 / n, 0, 15},
		{"fourth moment", m4 / n, 3, 96},
		{"P(x > 0)", float64(positive) / n, 0.5, 0.25},
	} {
		tol := sigmas * math.Sqrt(c.var1/n)
		t.Logf("%s = %.5f, want %g ± %.5f", c.name, c.got, c.want, tol)
		if math.Abs(c.got-c.want) > tol {
			t.Errorf("%s out of tolerance", c.name)
		}
	}
	chi2 := 0.0
	for _, c := range hist {
		d := float64(c) - n/bins
		chi2 += d * d / (n / bins)
	}
	// χ² with bins−1 degrees of freedom: mean bins−1, variance 2(bins−1).
	tol := sigmas * math.Sqrt(2*(bins-1))
	t.Logf("chi-square over %d equiprobable bins = %.1f, want %d ± %.1f", bins, chi2, bins-1, tol)
	if math.Abs(chi2-(bins-1)) > tol {
		t.Error("chi-square out of tolerance")
	}

	for _, tail := range []struct {
		k float64
		n uint64
	}{{3, 1 << 24}, {4, 1 << 25}, {5, 1 << 27}} {
		if tail.k == 5 && testing.Short() {
			continue // 134 M draws for an expected 77
		}
		beyond := 0
		ts := s.Derive(uint64(tail.k))
		for i := uint64(0); i < tail.n; i++ {
			if math.Abs(ts.Norm(i)) > tail.k {
				beyond++
			}
		}
		p := math.Erfc(tail.k / math.Sqrt2)
		want := p * float64(tail.n)
		tol := sigmas * math.Sqrt(want*(1-p))
		t.Logf("%d of %d draws beyond %gσ, want %.1f ± %.1f", beyond, tail.n, tail.k, want, tol)
		if math.Abs(float64(beyond)-want) > tol {
			t.Errorf("tail mass beyond %gσ out of tolerance", tail.k)
		}
	}
}

// TestNormIndependence: no linear correlation, in value or in magnitude
// (x², which is what a coupling between the layer bits and the uniform
// bits of neighbouring words would show up in), between the index pairs
// the kernels actually place side by side — (i, i+1) adjacent columns,
// (i, i^1), (i, i+128) the same column one conversion later — nor between
// the same index of Derive siblings.
func TestNormIndependence(t *testing.T) {
	s := NewSource(2718)
	a, b := s.Derive(0), s.Derive(1)
	const n = 1 << 20
	for _, c := range []struct {
		name string
		x, y func(i uint64) float64
	}{
		{"(i, i+1)", s.Norm, func(i uint64) float64 { return s.Norm(i + 1) }},
		{"(i, i^1)", func(i uint64) float64 { return s.Norm(2 * i) }, func(i uint64) float64 { return s.Norm(2*i ^ 1) }},
		{"(i, i+128)", s.Norm, func(i uint64) float64 { return s.Norm(i + 128) }},
		{"Derive siblings", a.Norm, b.Norm},
		{"parent and child", s.Norm, a.Norm},
	} {
		var sxy, sx2y2, sx2, sy2 float64
		for i := uint64(0); i < n; i++ {
			x, y := c.x(i), c.y(i)
			sxy += x * y
			sx2y2 += x * x * y * y
			sx2 += x * x
			sy2 += y * y
		}
		// For independent N(0,1) pairs xy has variance 1, and x²y² has
		// mean 1 and variance 8.
		if r, tol := sxy/n, sigmas/math.Sqrt(n); math.Abs(r) > tol {
			t.Errorf("%s: correlation %.5f, want 0 ± %.5f", c.name, r, tol)
		}
		cov := sx2y2/n - (sx2/n)*(sy2/n)
		if tol := sigmas * math.Sqrt(8.0/n); math.Abs(cov) > tol {
			t.Errorf("%s: covariance of squares %.5f, want 0 ± %.5f", c.name, cov, tol)
		}
	}
}

// normBound is the largest |x| the sampler can return: the tail sampler's
// exponential variate is -ln(u)/zigR with u no smaller than 2^-54 on the
// Float64 lattice. inBound is false for NaN too.
const normBound = zigR + 54*math.Ln2/zigR

func inBound(v float64) bool { return math.Abs(v) <= normBound }

func TestNormFinite(t *testing.T) {
	check := func(s Source, i uint64) {
		t.Helper()
		if v := s.Norm(i); !inBound(v) {
			t.Fatalf("Norm(%d) of %v = %v", i, s, v)
		}
	}
	s := NewSource(-1)
	for i := uint64(0); i < 100000; i++ {
		check(s, i)
	}
	for _, d := range slowDraws {
		check(d.src, d.i)
	}
	// The words at the sampler's corners, as first words of the slow path:
	// every layer with the uniform at either end of its range.
	for l := uint64(0); l < zigLayers; l++ {
		for _, hi := range []uint64{0, 1<<63 - 1<<11, 1 << 63, 1<<64 - 1<<11} {
			if v := normSlow(hi | l); !inBound(v) {
				t.Fatalf("normSlow(%#x) = %v", hi|l, v)
			}
		}
	}
}

// strideMatches holds NormStride to its definition: element k of a fill of
// n draws from start at stride is Norm(start + k·stride), == and in any
// order, the index wrapping mod 2^64 in both.
func strideMatches(t *testing.T, s Source, start, stride uint64, n int) {
	t.Helper()
	dst := make([]float64, n)
	s.NormStride(dst, start, stride)
	for k := n - 1; k >= 0; k-- {
		i := start + uint64(k)*stride
		if want := s.Norm(i); dst[k] != want {
			t.Fatalf("NormStride(start %d, stride %d)[%d] = %v, Norm(%d) = %v (source %v)", start, stride, k, dst[k], i, want, s)
		}
	}
}

// TestNormStrideMatchesNorm: the fill is Norm and nothing else — over the
// strides the crossbar issues (1, a 10-column head, a 128-column array) and
// one past 2^32, from starts whose indices wrap past 2^64, at lengths 0, 1
// and the 256 conversions a column can have; on every draw slowDraws names
// as a fill's first, last and middle element, so wedge accepts, rejections
// and tail draws come out of the chain the same as out of Norm; and from 16
// goroutines filling their own buffers at once.
func TestNormStrideMatchesNorm(t *testing.T) {
	s := NewSource(5)
	for _, stride := range []uint64{1, 10, 128, 1<<32 + 1} {
		for _, start := range []uint64{0, 7, 1<<64 - 1, 1<<64 - 300, -(255 * stride)} { // the last: element 255 is index 0
			for _, n := range []int{0, 1, 256} {
				strideMatches(t, s, start, stride, n)
			}
		}
	}
	for _, d := range slowDraws {
		for _, stride := range []uint64{1, 16, 128} {
			for _, at := range []uint64{0, 17, 31} { // the named draw is element at of 32
				strideMatches(t, d.src, d.i-at*stride, stride, 32)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			src := NewSource(82)
			dst := make([]float64, 512)
			src.NormStride(dst, g, 16) // 16 columns: draws 48, 52, 123, 382 … land in one fill or another
			for k, v := range dst {
				if want := src.Norm(g + uint64(k)*16); v != want {
					t.Errorf("goroutine %d: NormStride[%d] = %v, Norm = %v", g, k, v, want)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
}

// FuzzNorm: for any key and index the draw is finite, inside the tail
// sampler's bound, and the same when evaluated again; and for any start,
// stride and length a strided fill is Norm element by element.
func FuzzNorm(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(1), uint8(0))
	f.Add(NewSource(82).key, uint64(123), uint64(128), uint8(32)) // a tail draw
	f.Add(NewSource(82).key, uint64(48), uint64(16), uint8(255))  // a wedge rejection
	f.Add(uint64(1<<64-1), uint64(1<<64-1), uint64(1<<64-1), uint8(3))
	f.Fuzz(func(t *testing.T, key, i, stride uint64, n uint8) {
		s := Source{key: key}
		v := s.Norm(i)
		if !inBound(v) {
			t.Fatalf("Norm(%d) with key %#x = %v, outside ±%v", i, key, v, normBound)
		}
		if again := s.Norm(i); again != v {
			t.Fatalf("Norm(%d) with key %#x = %v, then %v", i, key, v, again)
		}
		strideMatches(t, s, i, stride, int(n))
	})
}

var normSink float64

// BenchmarkNorm is the ns/draw figure docs/PERF.md quotes: independent
// draws at consecutive indices of one source.
func BenchmarkNorm(b *testing.B) {
	s := NewSource(1)
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += s.Norm(uint64(i))
	}
	normSink = sum
}

// BenchmarkNormStride is the same figure for the fill, as the crossbar
// kernel issues it: the 32 conversions of one column of a 128-column
// array, a fresh column every fill. ns/op is ns per draw.
func BenchmarkNormStride(b *testing.B) {
	s := NewSource(1)
	var z [32]float64
	for i := 0; i < b.N; i += len(z) {
		s.NormStride(z[:], uint64(i/len(z)), 128)
	}
	normSink = z[0]
}
