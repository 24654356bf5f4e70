package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cimrev/internal/dpe"
	"cimrev/internal/faultinject"
	"cimrev/internal/hybrid"
	"cimrev/internal/metrics"
	"cimrev/internal/nn"
	"cimrev/internal/noise"
	"cimrev/internal/parallel"
	"cimrev/internal/serve"
	"cimrev/internal/vonneumann"
)

// testConfig is a small noisy DPE so determinism tests exercise the keyed
// noise path, not just the deterministic matrix math. Bit-serial, because
// functional mode never draws noise (crossbar.Config.Validate rejects the
// combination); TestFleetDeterminism asserts the noise is live.
func testConfig() dpe.Config {
	cfg := dpe.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 64, 64
	cfg.Crossbar.Functional = false
	cfg.Crossbar.ReadNoise = 0.02
	return cfg
}

func testMLP(t *testing.T, seed int64, sizes ...int) *nn.Network {
	t.Helper()
	net, err := nn.NewMLP("fleet-test", sizes, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func testInputs(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([][]float64, n)
	for i := range inputs {
		inputs[i] = make([]float64, dim)
		for j := range inputs[i] {
			inputs[i][j] = rng.Float64()*2 - 1
		}
	}
	return inputs
}

func sliceEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{Engines: 0},
		{Engines: -2},
		{Engines: 2, Weights: []int{1}},
		{Engines: 2, Weights: []int{1, 0}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d (%+v) accepted", i, cfg)
		}
	}
	net := testMLP(t, 3, 16, 8)
	if _, _, err := New(testConfig(), net, WithEngines(0)); err == nil {
		t.Error("New accepted zero engines")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("ParsePolicy(%q).Name() = %q", name, p.Name())
		}
	}
	for alias, want := range map[string]string{
		"rr": "round-robin", "ll": "least-loaded", "wear": "wear-aware", "RoundRobin": "round-robin",
	} {
		p, err := ParsePolicy(alias)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", alias, err)
		}
		if p.Name() != want {
			t.Errorf("ParsePolicy(%q).Name() = %q, want %q", alias, p.Name(), want)
		}
	}
	if _, err := ParsePolicy("random"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestFleetDeterminism is the cluster determinism contract: per-request
// outputs are bit-identical between a 1-engine and a 4-engine fleet, under
// every routing policy, at worker-pool widths 1 and 8, with analog read
// noise enabled. The noise key is the request's sequence number, so
// placement, batch composition, and parallelism are all invisible.
func TestFleetDeterminism(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })
	const n = 48
	net := testMLP(t, 3, 32, 24, 10)
	inputs := testInputs(n, 32, 7)

	// Reference: single engine, requests submitted one at a time in order.
	parallel.SetWidth(1)
	ref, _, err := New(testConfig(), net, WithEngines(1))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, n)
	for i := 0; i < n; i++ {
		out, _, err := ref.SubmitSeq(context.Background(), uint64(i), inputs[i])
		if err != nil {
			t.Fatalf("reference request %d: %v", i, err)
		}
		want[i] = out
	}
	ref.Close()

	// The contract is about noise only if testConfig draws some: request 0
	// on its noise-free twin must come out different.
	quietCfg := testConfig()
	quietCfg.Crossbar.ReadNoise = 0
	quiet, _, err := New(quietCfg, net, WithEngines(1))
	if err != nil {
		t.Fatal(err)
	}
	flat, _, err := quiet.SubmitSeq(context.Background(), 0, inputs[0])
	quiet.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sliceEq(flat, want[0]) {
		t.Fatal("testConfig output equals the noise-free output: the determinism suites are vacuous")
	}

	// And it must hold where the sampler is hardest to keep pure: on draws
	// that leave the ziggurat's fast path and consume a rejection chain.
	// Request seq's first layer (32×24 on one 64×64 array, 8 bits × 4
	// slices × 24 columns) reads src.Derive(seq).Derive(0).Derive(0); only
	// the tail sampler returns a value past the last ziggurat edge, so a
	// tail draw among the requests shows from here (wedge rejections are
	// twenty times as frequent).
	tails := 0
	src := noise.NewSource(testConfig().Seed)
	for seq := uint64(0); seq < n; seq++ {
		layer0 := src.Derive(seq).Derive(0).Derive(0)
		for i := uint64(0); i < 8*4*24; i++ {
			if math.Abs(layer0.Norm(i)) > 3.4427 {
				tails++
			}
		}
	}
	if tails == 0 {
		t.Fatal("no request draws from the sampler's tail: the contract is not tested on the rejection paths")
	}

	for _, policyName := range PolicyNames() {
		for _, width := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/width=%d", policyName, width), func(t *testing.T) {
				parallel.SetWidth(width)
				policy, err := ParsePolicy(policyName)
				if err != nil {
					t.Fatal(err)
				}
				opts := []Option{WithEngines(4), WithPolicy(policy)}
				if policyName == "weighted" {
					opts = append(opts, WithWeights(1, 2, 3, 2))
				}
				f, _, err := New(testConfig(), net, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()

				got := make([][]float64, n)
				var wg sync.WaitGroup
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						out, _, err := f.SubmitSeq(context.Background(), uint64(i), inputs[i])
						if err != nil {
							t.Errorf("request %d: %v", i, err)
							return
						}
						got[i] = out
					}(i)
				}
				wg.Wait()
				for i := range want {
					if !sliceEq(got[i], want[i]) {
						t.Fatalf("request %d: 4-engine output differs from 1-engine reference\n got %v\nwant %v",
							i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestFleetErrorTyping pins the fleet-wide error distinction: every
// breaker tripped wraps serve.ErrUnhealthy, every server refusing on
// capacity wraps serve.ErrOverloaded, and an empty fleet is ErrNoEngines.
func TestFleetErrorTyping(t *testing.T) {
	net := testMLP(t, 3, 16, 8)
	in := testInputs(1, 16, 9)[0]

	// Build a probe guaranteed to fail: labels deliberately off by one
	// from the live engines' argmax, floor at 1.0.
	scout, _, err := New(testConfig(), net, WithEngines(1))
	if err != nil {
		t.Fatal(err)
	}
	probeIns := testInputs(4, 16, 11)
	wrongLabels := make([]int, len(probeIns))
	for i, pin := range probeIns {
		out, _, err := scout.SubmitSeq(context.Background(), uint64(1000+i), pin)
		if err != nil {
			t.Fatal(err)
		}
		am := 0
		for j := range out {
			if out[j] > out[am] {
				am = j
			}
		}
		wrongLabels[i] = (am + 1) % len(out)
	}
	scout.Close()

	t.Run("all-unhealthy", func(t *testing.T) {
		f, _, err := New(testConfig(), net, WithEngines(2),
			WithServeOptions(serve.WithProbe(1.0, probeIns, wrongLabels)))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rep := f.RollingReprogram(net)
		if rep.Failed != 2 || rep.Err() == nil {
			t.Fatalf("rolling reprogram with failing probe: failed=%d err=%v", rep.Failed, rep.Err())
		}
		for _, e := range f.Engines() {
			if !e.Tripped() {
				t.Fatalf("engine %d not tripped after failed probe", e.ID())
			}
		}
		_, _, err = f.SubmitSeq(context.Background(), 0, in)
		if !errors.Is(err, serve.ErrUnhealthy) {
			t.Errorf("all-tripped fleet: err = %v, want ErrUnhealthy", err)
		}
		if errors.Is(err, serve.ErrOverloaded) {
			t.Errorf("all-tripped fleet error should not be ErrOverloaded: %v", err)
		}
		if got := f.Registry().Counter("fleet.unrouteable").Value(); got == 0 {
			t.Error("fleet.unrouteable not counted")
		}
	})

	t.Run("failover-around-tripped", func(t *testing.T) {
		f, _, err := New(testConfig(), net, WithEngines(2),
			WithServeOptions(serve.WithProbe(1.0, probeIns, wrongLabels)))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		// Trip only engine 0; engine 1 stays healthy.
		engines := f.Engines()
		if _, _, err := engines[0].Breaker().Reprogram(net); err == nil {
			t.Fatal("expected probe failure")
		}
		if !engines[0].Tripped() || engines[1].Tripped() {
			t.Fatalf("want exactly engine 0 tripped: %v %v", engines[0].Tripped(), engines[1].Tripped())
		}
		// Round-robin would lead with engine 0 for even seqs; the router
		// must filter it out and serve from engine 1 regardless.
		for seq := uint64(0); seq < 4; seq++ {
			if _, _, err := f.SubmitSeq(context.Background(), seq, in); err != nil {
				t.Fatalf("seq %d: %v (want failover to healthy engine)", seq, err)
			}
		}
		if got := engines[1].Routed(); got != 4 {
			t.Errorf("healthy engine served %d requests, want 4", got)
		}
	})

	t.Run("all-capacity", func(t *testing.T) {
		f, _, err := New(testConfig(), net, WithEngines(2))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		// Close the servers out-of-band (no draining flag): the router
		// still offers both engines, both refuse with ErrClosed, and the
		// fleet must type the refusal as capacity, not health.
		for _, e := range f.Engines() {
			e.srv.Close()
		}
		_, _, err = f.SubmitSeq(context.Background(), 0, in)
		if !errors.Is(err, serve.ErrOverloaded) {
			t.Errorf("all-closed fleet: err = %v, want ErrOverloaded", err)
		}
		if errors.Is(err, serve.ErrUnhealthy) {
			t.Errorf("all-closed fleet error should not be ErrUnhealthy: %v", err)
		}
	})

	t.Run("no-engines", func(t *testing.T) {
		f, _, err := New(testConfig(), net, WithEngines(1))
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		_, _, err = f.SubmitSeq(context.Background(), 0, in)
		if !errors.Is(err, ErrNoEngines) {
			t.Errorf("empty fleet: err = %v, want ErrNoEngines", err)
		}
	})

	t.Run("canceled-context-not-failed-over", func(t *testing.T) {
		f, _, err := New(testConfig(), net, WithEngines(2))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, _, err = f.SubmitSeq(ctx, 0, in)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled submit: err = %v, want context.Canceled", err)
		}
		if got := f.Registry().Counter("fleet.failovers").Value(); got != 0 {
			t.Errorf("canceled request failed over %d times, want 0", got)
		}
	})
}

// TestJoinLeaveDuringTraffic: membership churn under concurrent load. A
// graceful drain must never fail a request — racing submits fail over.
func TestJoinLeaveDuringTraffic(t *testing.T) {
	net := testMLP(t, 3, 24, 12)
	f, _, err := New(testConfig(), net, WithEngines(2), WithPolicy(LeastLoaded()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	inputs := testInputs(16, 24, 5)
	var stop atomic.Bool
	var seq atomic.Uint64
	var reqs, fails atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				_, _, err := f.SubmitSeq(context.Background(), seq.Add(1)-1, inputs[(w+i)%len(inputs)])
				reqs.Add(1)
				if err != nil {
					fails.Add(1)
					t.Errorf("worker %d request %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}

	// Churn: join a third engine, drain an original, drain the joiner.
	e3, cost, err := f.Join()
	if err != nil {
		t.Fatal(err)
	}
	if cost.LatencyPS <= 0 {
		t.Errorf("join programming cost %v, want positive", cost)
	}
	time.Sleep(20 * time.Millisecond)
	if err := f.Leave(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := f.Leave(e3.ID()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if fails.Load() != 0 {
		t.Fatalf("%d/%d requests failed during churn", fails.Load(), reqs.Load())
	}
	if got := f.Size(); got != 1 {
		t.Errorf("fleet size after churn = %d, want 1", got)
	}
	if err := f.Leave(99); err == nil {
		t.Error("Leave(99) on absent engine succeeded")
	}
	if got := f.Registry().Counter("fleet.joins").Value(); got != 1 {
		t.Errorf("fleet.joins = %d, want 1", got)
	}
	if got := f.Registry().Counter("fleet.leaves").Value(); got != 2 {
		t.Errorf("fleet.leaves = %d, want 2", got)
	}
}

// TestRollingReprogramZeroDowntime: the fleet serves continuously while
// every engine reprograms, one at a time; afterwards every engine is on
// the new weights and keyed outputs match a fresh fleet built from them.
func TestRollingReprogramZeroDowntime(t *testing.T) {
	netA := testMLP(t, 3, 24, 16, 8)
	netB := testMLP(t, 4, 24, 16, 8)
	f, _, err := New(testConfig(), netA, WithEngines(3))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	inputs := testInputs(8, 24, 5)
	var stop atomic.Bool
	var seq atomic.Uint64
	var reqs, fails atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if _, _, err := f.SubmitSeq(context.Background(), seq.Add(1)-1, inputs[(w+i)%len(inputs)]); err != nil {
					fails.Add(1)
					t.Errorf("worker %d request %d: %v", w, i, err)
					return
				}
				reqs.Add(1)
			}
		}(w)
	}

	time.Sleep(10 * time.Millisecond)
	rep := f.RollingReprogram(netB)
	time.Sleep(10 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if err := rep.Err(); err != nil {
		t.Fatalf("rolling reprogram: %v", err)
	}
	if rep.Attempted != 3 || rep.Succeeded != 3 {
		t.Fatalf("rolling report attempted=%d succeeded=%d, want 3/3", rep.Attempted, rep.Succeeded)
	}
	if rep.Hidden.LatencyPS <= 0 || rep.Hidden.EnergyPJ <= 0 {
		t.Errorf("rolling hidden cost %v, want positive", rep.Hidden)
	}
	if rep.Visible.LatencyPS >= rep.Hidden.LatencyPS {
		t.Errorf("visible latency %d not hidden behind serving (hidden %d)",
			rep.Visible.LatencyPS, rep.Hidden.LatencyPS)
	}
	if fails.Load() != 0 {
		t.Fatalf("%d/%d requests failed during rolling reprogram", fails.Load(), reqs.Load())
	}
	st := f.RollingStatus()
	if st.Active || st.Done != 3 || st.Failed != 0 {
		t.Errorf("post-roll status %+v", st)
	}
	for _, e := range f.Engines() {
		if got := e.Pair().Swaps(); got != 1 {
			t.Errorf("engine %d swaps = %d, want 1", e.ID(), got)
		}
	}

	// Every engine now serves netB: keyed outputs must match a fresh
	// single-engine fleet programmed with netB directly.
	fresh, _, err := New(testConfig(), netB, WithEngines(1))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for i, in := range inputs {
		seq := uint64(1 << 20)
		want, _, err := fresh.SubmitSeq(context.Background(), seq+uint64(i), in)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range f.Engines() {
			got, _, err := e.srv.SubmitKeyed(context.Background(), seq+uint64(i), in)
			if err != nil {
				t.Fatalf("engine %d: %v", e.ID(), err)
			}
			if !sliceEq(got, want) {
				t.Fatalf("engine %d input %d: post-roll output differs from fresh netB engine", e.ID(), i)
			}
		}
	}
}

// TestRollingReprogramReloadsTwin is the stale-twin regression: an engine
// wrapped in a forced-vn hybrid dispatcher serves from the dispatcher's
// digital twin, so a rolling reprogram has to go through the dispatcher
// (crossbar swap + twin reload), not through the breaker underneath it —
// otherwise the fleet keeps answering from the old network after the roll.
func TestRollingReprogramReloadsTwin(t *testing.T) {
	netA := testMLP(t, 3, 24, 16, 8)
	netB := testMLP(t, 4, 24, 16, 8)
	cfg := dpe.DefaultConfig() // noise-free: the only kind of config with a twin
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 64, 64
	var wrapErr error
	f, _, err := New(cfg, netA, WithEngines(1),
		WithWrapBackend(func(_ int, b serve.Backend, reg *metrics.Registry) serve.Backend {
			twin, err := vonneumann.NewBackend(vonneumann.CPU(), vonneumann.DefaultHierarchy(), cfg.Crossbar, netA)
			if err != nil {
				wrapErr = err
				return b
			}
			d, err := hybrid.New(b.(hybrid.CIMBackend), twin, hybrid.WithMode(hybrid.ModeVN), hybrid.WithRegistry(reg))
			if err != nil {
				wrapErr = err
				return b
			}
			return d
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if wrapErr != nil {
		t.Fatal(wrapErr)
	}

	oracle := func(net *nn.Network, in []float64) []float64 {
		eng, err := dpe.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Load(net); err != nil {
			t.Fatal(err)
		}
		out, _, err := eng.Infer(in)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	in := testInputs(1, 24, 5)[0]
	wantA, wantB := oracle(netA, in), oracle(netB, in)
	if sliceEq(wantA, wantB) {
		t.Fatal("netA and netB agree on the probe input: the test cannot tell them apart")
	}

	got, _, err := f.SubmitSeq(context.Background(), 0, in)
	if err != nil {
		t.Fatal(err)
	}
	if !sliceEq(got, wantA) {
		t.Fatalf("before the roll: %v, want netA's %v", got, wantA)
	}
	if rep := f.RollingReprogram(netB); rep.Err() != nil || rep.Succeeded != 1 {
		t.Fatalf("rolling reprogram: %+v (%v)", rep, rep.Err())
	}
	got, _, err = f.SubmitSeq(context.Background(), 1, in)
	if err != nil {
		t.Fatal(err)
	}
	if !sliceEq(got, wantB) {
		t.Errorf("after the roll the twin still serves the old network: %v, want netB's %v", got, wantB)
	}
	e := f.Engines()[0]
	if vn := e.Registry().Counter("dispatch.vn").Value(); vn != 2 {
		t.Errorf("dispatch.vn = %d, want 2: the test must be served by the twin", vn)
	}
	if e.Pair().Swaps() != 1 {
		t.Errorf("crossbar side swapped %d times, want 1", e.Pair().Swaps())
	}
}

// TestRoundRobinOrder pins the rotation: request seq leads with engine
// seq mod n and wraps in ring order.
func TestRoundRobinOrder(t *testing.T) {
	net := testMLP(t, 3, 16, 8)
	f, _, err := New(testConfig(), net, WithEngines(3))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	engines := f.Engines()
	order, tripped := f.Router().Route(engines, 4)
	if tripped != 0 {
		t.Fatalf("tripped = %d, want 0", tripped)
	}
	wantIDs := []int{1, 2, 0} // 4 mod 3 = 1
	for i, e := range order {
		if e.ID() != wantIDs[i] {
			t.Fatalf("round-robin order[%d] = engine %d, want %d", i, e.ID(), wantIDs[i])
		}
	}
}

// TestWeightedSpread: over a full weight wheel, each engine leads
// proportionally to its weight.
func TestWeightedSpread(t *testing.T) {
	net := testMLP(t, 3, 16, 8)
	f, _, err := New(testConfig(), net, WithEngines(3), WithPolicy(Weighted()), WithWeights(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	engines := f.Engines()
	leads := map[int]int{}
	for seq := uint64(0); seq < 6; seq++ { // one full wheel (total weight 6)
		order, _ := f.Router().Route(engines, seq)
		leads[order[0].ID()]++
	}
	want := map[int]int{0: 1, 1: 2, 2: 3}
	for id, n := range want {
		if leads[id] != n {
			t.Errorf("engine %d led %d/6 requests, want %d (weight)", id, leads[id], n)
		}
	}
}

// TestWearAwareFallback: with fault injection disabled there is no wear
// differential — the policy must fall back to least-loaded ordering, not
// pin all traffic on the lowest engine ID.
func TestWearAwareFallback(t *testing.T) {
	net := testMLP(t, 3, 16, 8)
	f, _, err := New(testConfig(), net, WithEngines(3), WithPolicy(WearAware()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	engines := f.Engines()
	wear0 := engines[0].Wear()
	for _, e := range engines {
		if e.Wear() != wear0 {
			t.Fatalf("fault-free engines should wear identically: %d vs %d", e.Wear(), wear0)
		}
	}
	got := WearAware().Order(engines, 0)[0]
	want := LeastLoaded().Order(engines, 0)[0]
	if got.ID() != want.ID() {
		t.Errorf("wear-aware lead = engine %d, least-loaded fallback = engine %d", got.ID(), want.ID())
	}
	// Requests must still spread across queue state, not hammer engine 0
	// exclusively by ID; with idle queues the tiebreak is ID order, so the
	// check is simply that routing succeeds and is deterministic.
	o1, _ := f.Router().Route(engines, 1)
	o2, _ := f.Router().Route(engines, 1)
	for i := range o1 {
		if o1[i].ID() != o2[i].ID() {
			t.Fatal("wear-aware fallback ordering not deterministic")
		}
	}
}

// TestWearAwareDifferential: with per-engine fault seeds, engines damage
// differently; the policy must lead with the least-damaged engine.
func TestWearAwareDifferential(t *testing.T) {
	cfg := testConfig()
	cfg.Crossbar.ReadNoise = 0
	cfg.Faults = faultinject.Model{StuckLowRate: 0.03, StuckHighRate: 0.03, Seed: 11}
	net := testMLP(t, 3, 32, 24, 10)
	f, _, err := New(cfg, net, WithEngines(4), WithPolicy(WearAware()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	engines := f.Engines()

	score := func(e *Engine) int64 {
		h := e.Health().Total
		return int64(h.LostCols)*wearLostCol + int64(h.SparesUsed)*wearSpareUsed + e.Wear()/wearWriteDiv
	}
	distinct := map[int64]bool{}
	for _, e := range engines {
		distinct[score(e)] = true
	}
	if len(distinct) < 2 {
		t.Skip("fault seeds produced identical damage; differential not exercised at this rate")
	}
	order, _ := f.Router().Route(engines, 0)
	for i := 1; i < len(order); i++ {
		if score(order[i-1]) > score(order[i]) {
			t.Fatalf("wear-aware order not ascending by damage: engine %d (score %d) before engine %d (score %d)",
				order[i-1].ID(), score(order[i-1]), order[i].ID(), score(order[i]))
		}
	}
}

// TestFleetSimTime: fleet simulated time is the max over engines, and the
// fleet-level metrics see every request.
func TestFleetMetricsAndSimTime(t *testing.T) {
	net := testMLP(t, 3, 16, 8)
	f, _, err := New(testConfig(), net, WithEngines(2))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in := testInputs(1, 16, 9)[0]
	const n = 10
	for i := 0; i < n; i++ {
		if _, _, err := f.SubmitSeq(context.Background(), uint64(i), in); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.Registry().Counter("fleet.requests").Value(); got != n {
		t.Errorf("fleet.requests = %d, want %d", got, n)
	}
	if h := f.Registry().Histogram("fleet.latency_ns"); h.Count() != n {
		t.Errorf("fleet.latency_ns count = %d, want %d", h.Count(), n)
	}
	var maxPS int64
	var total int64
	for _, e := range f.Engines() {
		if ps := e.SimTimePS(); ps > maxPS {
			maxPS = ps
		}
		total += e.Routed()
	}
	if f.SimTimePS() != maxPS {
		t.Errorf("fleet SimTimePS = %d, want max over engines %d", f.SimTimePS(), maxPS)
	}
	if maxPS <= 0 {
		t.Error("no simulated serving time accumulated")
	}
	if total != n {
		t.Errorf("routed totals sum to %d, want %d", total, n)
	}
}
