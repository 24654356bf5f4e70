package main

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"cimrev/internal/energy"
	"cimrev/internal/fleet"
	"cimrev/internal/metrics"
	"cimrev/internal/serve"
	"cimrev/internal/workloadgen"
)

func isPowerOfTwo(v float64) bool {
	if v <= 0 {
		return false
	}
	frac, _ := math.Frexp(v)
	return frac == 0.5
}

// The quantile is a sample of the data, by nearest rank, with the count
// beyond it: metrics.Histogram's bucket edges (every archived p95 a power
// of two) cannot come out of it.
func TestQuantileIsAnExactSample(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, 3*float64(i)+0.7) // never a power of two
	}
	for _, c := range []struct {
		q      float64
		want   float64
		beyond int
	}{
		{0.50, 3*500 + 0.7, 500},
		{0.95, 3*950 + 0.7, 50},
		{0.99, 3*990 + 0.7, 10},
		{0.999, 3*999 + 0.7, 1},
		{1, 3*1000 + 0.7, 0},
		{0, 3*1 + 0.7, 999},
	} {
		got, beyond := quantile(xs, c.q)
		if got != c.want || beyond != c.beyond {
			t.Errorf("quantile(q=%g) = %g with %d beyond, want %g with %d", c.q, got, beyond, c.want, c.beyond)
		}
		if isPowerOfTwo(got) {
			t.Errorf("quantile(q=%g) = %g is a power-of-two bucket edge", c.q, got)
		}
	}
	if v, b := quantile(nil, 0.5); v != 0 || b != 0 {
		t.Errorf("quantile of nothing = %g, %d", v, b)
	}
}

// One stalled window moves a whole-run p95 and leaves the window median
// where it was.
func TestWindowQuantileIgnoresOneBadWindow(t *testing.T) {
	var samples []sample
	for w := 0; w < latWindows; w++ {
		for i := 0; i < 100; i++ {
			lat := 1 + float64(i)/100 // 1.00 .. 1.99
			if w == 3 {
				lat += 250 // the host descheduled the process
			}
			samples = append(samples, sample{at: float64(w) + float64(i)/100, lat: lat})
		}
	}
	got, beyond := windowQuantile(samples, latWindows, 0.95)
	if got != 1.94 || beyond != 5 {
		t.Errorf("window p95 = %g with %d beyond, want 1.94 with 5", got, beyond)
	}
	all := make([]float64, len(samples))
	for i, s := range samples {
		all[i] = s.lat
	}
	sort.Float64s(all)
	if whole, _ := quantile(all, 0.95); whole < 250 {
		t.Errorf("whole-run p95 = %g, expected the stall to dominate it", whole)
	}
	// A failed request is +Inf and sits beyond every quantile below it.
	samples[0].lat = math.Inf(1)
	if got, _ := windowQuantile(samples, latWindows, 0.5); math.IsInf(got, 0) {
		t.Errorf("one failure moved the window p50 to %g", got)
	}
}

func TestWindowRateSpreadsIntervals(t *testing.T) {
	// Calls of 64 inferences, 0.4 s each, back to back for 4 s: 160/s in
	// every window although no window holds a whole number of calls.
	var done []completion
	for i := 0; i < 10; i++ {
		done = append(done, completion{from: 0.4 * float64(i), to: 0.4 * float64(i+1), n: 64})
	}
	if got := windowRate(done, 4); math.Abs(got-160) > 1e-9 {
		t.Errorf("interval rate = %g, want 160", got)
	}
	// Instant completions count in the window they fall in; the median
	// ignores the empty one.
	pts := []completion{{0.5, 0.5, 3}, {1.5, 1.5, 3}, {2.5, 2.5, 3}, {2.6, 2.6, 0}}
	if got := windowRate(pts, 3.9); got != 3 {
		t.Errorf("point rate = %g, want 3", got)
	}
	if got := windowRate([]completion{{0, 0.25, 8}}, 0.25); got != 32 {
		t.Errorf("sub-window rate = %g, want 32", got)
	}
}

// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartileSpread(xs); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) is [1.0, 2.0, 4.0].
	if got := quartileSpread([]float64{1, 2, 4}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("spread = %g, want 1.5", got)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %g", got)
	}
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name     string
		old, new []float64
		better   string
		bound    float64
		status   string
	}{
		{"same", []float64{10, 10.1, 9.9}, []float64{10.05, 9.95, 10}, "lower", 0.1, statusOK},
		{"worse beyond the bound", []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, "lower", 0.1, statusRegression},
		{"higher is better", []float64{100, 101, 99}, []float64{80, 81, 79}, "higher", 0.1, statusRegression},
		{"improved", []float64{100, 101, 99}, []float64{120, 121, 119}, "higher", 0.1, statusOK},
		{"too noisy to tell", []float64{10, 14, 7, 12}, []float64{11, 8, 15, 9}, "lower", 0.1, statusUnresolved},
		{"noisy, but every run better", []float64{10, 14, 12}, []float64{5, 6.5, 4}, "lower", 0.1, statusOK},
		{"noisy, but every run worse", []float64{10, 14, 12}, []float64{25, 30, 40}, "lower", 0.1, statusRegression},
		{"single runs", []float64{10}, []float64{10.5}, "lower", 0.1, statusOK},
	} {
		if _, _, got := judge(c.old, c.new, c.better, c.bound); got != c.status {
			t.Errorf("%s: %s, want %s", c.name, got, c.status)
		}
	}
}

func TestCompareFlagsChangedDigest(t *testing.T) {
	d, err := readDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(digest string, rps float64) *resultsFile {
		return &resultsFile{Runs: []result{{
			Workload: "sim_bitserial_b1", Seed: 1, Seconds: 20, Digest: digest,
			Metrics: map[string]metric{"wall_rps": {rps, "1/s"}},
		}}}
	}
	rows, digests := compare(d, mk("aa", 100), mk("aa", 99))
	if len(rows) != 1 || rows[0].status != statusOK || len(digests) != 0 {
		t.Errorf("same digest, 1%% slower: rows %+v digests %v", rows, digests)
	}
	rows, digests = compare(d, mk("aa", 100), mk("bb", 60))
	if len(rows) != 1 || rows[0].status != statusRegression || len(digests) != 1 {
		t.Errorf("changed digest, 40%% slower: rows %+v digests %v", rows, digests)
	}
}

// Same seed, same offered load: due times, classes and inputs.
func TestSeedFixesTheLoad(t *testing.T) {
	for _, s := range specs {
		if !reflect.DeepEqual(s.genInputs(7), s.genInputs(7)) {
			t.Errorf("%s: inputs differ for one seed", s.name)
		}
		if reflect.DeepEqual(s.genInputs(7), s.genInputs(8)) {
			t.Errorf("%s: inputs do not follow the seed", s.name)
		}
		if !s.open {
			continue
		}
		a, err := s.load(7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := s.load(7, 2)
		c, _ := s.load(8, 2)
		if a.requests != int(s.rate*2) {
			t.Errorf("%s: %d requests for 2 s at %g/s", s.name, a.requests, s.rate)
		}
		ta, tb, tc := workloadgen.Times(a.arrivals, a.requests), workloadgen.Times(b.arrivals, b.requests), workloadgen.Times(c.arrivals, c.requests)
		if !reflect.DeepEqual(ta, tb) {
			t.Errorf("%s: due times differ for one seed", s.name)
		}
		if reflect.DeepEqual(ta, tc) {
			t.Errorf("%s: due times do not follow the seed", s.name)
		}
		sameClasses := true
		for i := 0; i < a.requests; i++ {
			if a.batchOf(uint64(i)) != b.batchOf(uint64(i)) {
				t.Fatalf("%s: class of request %d differs for one seed", s.name, i)
			}
			sameClasses = sameClasses && a.batchOf(uint64(i)) == c.batchOf(uint64(i))
		}
		if s.mix && sameClasses {
			t.Errorf("%s: class mix does not follow the seed", s.name)
		}
	}
}

// A 1/100-length run of every workload, untraced and traced, reports
// exactly the workloads and metrics BENCHMARK.json declares, with the
// declared units, loses no request and agrees with the oracle.
func TestSmokeRunMatchesDeclaration(t *testing.T) {
	d, err := readDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared, have []string
	for _, w := range d.Workloads {
		declared = append(declared, w.Name)
	}
	for _, s := range specs {
		have = append(have, s.name)
	}
	if !reflect.DeepEqual(declared, have) {
		t.Fatalf("workloads: BENCHMARK.json declares %v, the program has %v", declared, have)
	}
	e2e := map[string]string{}
	for _, m := range d.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layers := map[string]string{}
	for _, m := range d.PerLayer {
		layers[m.Name] = m.Unit
	}
	for i, m := range endToEnd {
		if dm := d.EndToEnd[i]; dm.Name != m.name || dm.Unit != m.unit || dm.Better != m.better || dm.Bound != m.bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %+v, the program %+v", i, dm, m)
		}
	}

	o := runOptions{seed: 3, seconds: 0.1, setupReps: 2}
	for _, s := range specs {
		// The real warm-up is a fixed number of calls; a smoke run cannot
		// afford two hundred bit-serial inferences before it starts.
		s.warmupCalls = 2
		var runs [2]*result
		for trace, want := range []map[string]string{e2e, layers} {
			var r *result
			if trace == 0 {
				r, err = s.runUntraced(o)
			} else {
				o3 := o
				o3.seconds = 3 * o.seconds
				r, err = s.runTraced(o3)
			}
			if err != nil {
				t.Fatalf("%s trace=%d: %v", s.name, trace, err)
			}
			runs[trace] = r
			got := map[string]string{}
			for name, m := range r.Metrics {
				got[name] = m.Unit
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%d: %s = %g", s.name, trace, name, m.Value)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", s.name, name, m.Value)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%d: reported metrics differ from BENCHMARK.json:\n got  %v\n want %v", s.name, trace, got, want)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 || r.Digest == "" {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d digest=%q", s.name, trace, r.Correct, r.Attempted, r.Failed, r.Digest)
			}
			if trace == 0 && s.open && r.Attempted != int(s.rate*o.seconds) {
				t.Errorf("%s: %d requests attempted, %d offered", s.name, r.Attempted, int(s.rate*o.seconds))
			}
			if trace == 1 && r.Metrics["bench.oracle_checked"].Value < 1 {
				t.Errorf("%s: traced run checked no output", s.name)
			}
			if trace == 1 && s.open {
				// Conservation between the benchmark's spans and the
				// program's own counters: every request the fleet counted
				// is an element the client recorded, and every element was
				// served by exactly one recorded flush.
				reqs := r.Metrics["fleet.requests"].Value
				items := r.Metrics["serve.batches"].Value * r.Metrics["serve.batch_size_mean"].Value
				if math.Abs(items-reqs) > 0.5 || reqs < 1 {
					t.Errorf("%s: fleet counted %g requests, backend spans carried %g items", s.name, reqs, items)
				}
			}
		}
		// The simulated cost the ladder's engine rung reports is the cost
		// the end-to-end run reports, exactly: at the workload's batch size
		// closed loop, at batch 1 open loop.
		e, l := runs[0].Metrics, runs[1].Metrics
		if ps := l["dpe.sim_ps_per_req"].Value; 1e12/ps != e["sim_inf_per_s"].Value {
			t.Errorf("%s: ladder %g ps/inference, end to end %g inferences/s", s.name, ps, e["sim_inf_per_s"].Value)
		}
		if pj := l["dpe.sim_pj_per_req"].Value; pj != e["sim_pj_per_req"].Value {
			t.Errorf("%s: ladder %g pJ, end to end %g pJ", s.name, pj, e["sim_pj_per_req"].Value)
		}
	}
}

// Same seed, same simulated results: digest, error and simulated cost
// repeat exactly however many inferences the phase fitted.
func TestDigestRepeatsForASeed(t *testing.T) {
	s, err := specByName("sim_functional_b64")
	if err != nil {
		t.Fatal(err)
	}
	s.warmupCalls = 1
	// A phase is as long as it takes this host, today, to fill the digest.
	run := func(seed int64, seconds float64) *phase {
		for ; ; seconds *= 2 {
			sys, err := s.build(seed)
			if err != nil {
				t.Fatal(err)
			}
			p, err := s.runClosed(sys, seconds)
			if err != nil {
				t.Fatal(err)
			}
			if p.inferences >= digestOutputs {
				return p
			}
		}
	}
	a, b := run(1, 0.4), run(1, 0.5)
	if a.digest != b.digest || a.relErr != b.relErr || a.simPJ != b.simPJ || a.simPS != b.simPS {
		t.Errorf("seed 1 twice: digest %s / %s, rel err %g / %g", a.digest, b.digest, a.relErr, b.relErr)
	}
}

// keyDropper is the trap spans.go warns about: a wrapper that forwards
// InferBatch alone. It still satisfies serve.Backend.
type keyDropper struct{ inner serve.Backend }

func (k keyDropper) InferBatch(in [][]float64) ([][]float64, energy.Cost, error) {
	return k.inner.InferBatch(in)
}

// On a noisy configuration the span wrapper leaves every output as it was
// without a wrapper, bit for bit, and equal to the oracle; a wrapper that
// drops the noise keys does not, and the oracle check sees it.
func TestSpanWrapperIsBitIdentical(t *testing.T) {
	s := spec{name: "noisy", sizes: smallMLP, xbar: 64, bitSerial: true, readNoise: 0.02, hostShare: 1,
		open: true, rate: 2000, engines: 2, maxBatch: 8, maxDelay: 100 * time.Microsecond}
	rec := &flushRecorder{}
	dropKeys := fleet.WithWrapBackend(func(_ int, b serve.Backend, _ *metrics.Registry) serve.Backend { return keyDropper{b} })
	run := func(extra ...fleet.Option) [][]float64 {
		sys, err := s.build(1, extra...)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.close()
		var outs [][]float64
		// Keys out of order, so that an engine counting 0, 1, 2, ... on
		// its own cannot agree with them by accident.
		for _, key := range []uint64{90, 3, 41, 7, 1000, 12, 55, 8} {
			out, _, err := sys.fleet.SubmitSeq(context.Background(), key, sys.inputs[key%inputPool])
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, out)
		}
		return outs
	}
	plain, wrapped, dropped := run(), run(rec.wrap()), run(dropKeys)
	differs := false
	for i := range plain {
		if !equalBits(plain[i], wrapped[i]) {
			t.Errorf("output %d differs under the span wrapper", i)
		}
		differs = differs || !equalBits(plain[i], dropped[i])
	}
	if !differs {
		t.Error("a wrapper that drops the noise keys changed no output: the check cannot catch it")
	}
	if len(rec.spans) == 0 {
		t.Fatal("span wrapper recorded no flush")
	}
	for _, f := range rec.spans {
		if len(f.seqs) != f.n || f.n < 1 || f.end.Before(f.start) {
			t.Errorf("flush span %+v", f)
		}
	}

	// And the benchmark's own oracle check fails a run served that way.
	sys, err := s.build(1, dropKeys)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	p, err := s.runOpen(sys, 1, 0.1, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.mismatched == 0 || p.failed == 0 {
		t.Errorf("oracle check passed a key-dropping backend: checked %d, mismatched %d", p.checked, p.mismatched)
	}
}
