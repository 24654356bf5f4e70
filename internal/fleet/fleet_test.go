package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
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
	"cimrev/internal/workloadgen"
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
	byName := map[string]Policy{"round-robin": RoundRobin(), "least-loaded": LeastLoaded(), "wear-aware": WearAware()}
	for _, name := range PolicyNames() {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if want, ok := byName[name]; !ok || p != want {
			t.Errorf("ParsePolicy(%q) = %T, want %T", name, p, want)
		}
	}
	for alias, name := range map[string]string{
		"rr": "round-robin", "ll": "least-loaded", "wear": "wear-aware", "RoundRobin": "round-robin",
	} {
		p, err := ParsePolicy(alias)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", alias, err)
		}
		if p != byName[name] {
			t.Errorf("ParsePolicy(%q) = %T, want %T", alias, p, byName[name])
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
				f, _, err := New(testConfig(), net, WithEngines(4), WithPolicy(policy))
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
// shadow pair tripped wraps serve.ErrUnhealthy, every server refusing on
// capacity wraps serve.ErrOverloaded, and an empty fleet is ErrNoEngines.
func TestFleetErrorTyping(t *testing.T) {
	net := testMLP(t, 3, 16, 8)
	in := testInputs(1, 16, 9)[0]

	// Stuck cells past a zero spare budget: no standby can be repaired,
	// so every reprogram fails and trips the engine's shadow pair.
	faulty := testConfig()
	faulty.Crossbar.SpareCols = 0
	faulty.Faults = faultinject.Model{StuckLowRate: 0.05, StuckHighRate: 0.05, Seed: 11}

	t.Run("all-unhealthy", func(t *testing.T) {
		f, _, err := New(faulty, net, WithEngines(2))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rep := f.RollingReprogram(net)
		if rep.Failed != 2 || rep.Err() == nil {
			t.Fatalf("rolling reprogram onto unrepairable standbys: failed=%d err=%v", rep.Failed, rep.Err())
		}
		for _, e := range f.Engines() {
			if !e.Tripped() {
				t.Fatalf("engine %d not tripped after a failed reprogram", e.ID())
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
		f, _, err := New(faulty, net, WithEngines(2))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		// Trip only engine 0; engine 1 stays healthy.
		engines := f.Engines()
		if _, _, err := engines[0].Pair().Reprogram(net); err == nil {
			t.Fatal("expected reprogram failure")
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

// vnFleet builds a one-engine fleet on net whose engine is wrapped in a
// forced-vn hybrid dispatcher, so every request is served by the
// dispatcher's digital twin.
func vnFleet(t *testing.T, cfg dpe.Config, net *nn.Network) *Fleet {
	t.Helper()
	var wrapErr error
	f, _, err := New(cfg, net, WithEngines(1),
		WithWrapBackend(func(_ int, b serve.Backend, reg *metrics.Registry) serve.Backend {
			twin, err := vonneumann.NewBackend(vonneumann.CPU(), vonneumann.DefaultHierarchy(), cfg.Crossbar, net)
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
	t.Cleanup(f.Close)
	if wrapErr != nil {
		t.Fatal(wrapErr)
	}
	return f
}

// oracleOut is a fresh engine's output for in on net.
func oracleOut(t *testing.T, cfg dpe.Config, net *nn.Network, in []float64) []float64 {
	t.Helper()
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

// TestRollingReprogramReloadsTwin is the stale-twin regression: an engine
// wrapped in a forced-vn hybrid dispatcher serves from the dispatcher's
// digital twin, so a rolling reprogram has to go through the dispatcher
// (crossbar swap + twin reload), not through the pair underneath it —
// otherwise the fleet keeps answering from the old network after the roll.
func TestRollingReprogramReloadsTwin(t *testing.T) {
	netA := testMLP(t, 3, 24, 16, 8)
	netB := testMLP(t, 4, 24, 16, 8)
	cfg := dpe.DefaultConfig() // noise-free: the only kind of config with a twin
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 64, 64
	f := vnFleet(t, cfg, netA)

	in := testInputs(1, 24, 5)[0]
	wantA, wantB := oracleOut(t, cfg, netA, in), oracleOut(t, cfg, netB, in)
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

// TestRollingReprogramNewTopology is the split-brain regression: a rolling
// reprogram onto a network of another hidden width, under a forced-vn
// dispatcher, succeeds on the engine (the pair swaps and the twin reloads
// the new topology), and the twin then serves the new network.
func TestRollingReprogramNewTopology(t *testing.T) {
	netA := testMLP(t, 3, 24, 16, 8)
	netW := testMLP(t, 6, 24, 32, 8)
	cfg := dpe.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 64, 64
	f := vnFleet(t, cfg, netA)

	rep := f.RollingReprogram(netW)
	if rep.Failed != 0 || rep.Succeeded != 1 {
		t.Fatalf("rolling reprogram onto a wider hidden layer: %+v (%v)", rep, rep.Err())
	}
	in := testInputs(1, 24, 5)[0]
	got, _, err := f.SubmitSeq(context.Background(), 0, in)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleOut(t, cfg, netW, in); !sliceEq(got, want) {
		t.Errorf("after the roll the twin serves %v, want the new network's %v", got, want)
	}
	e := f.Engines()[0]
	if vn := e.Registry().Counter("dispatch.vn").Value(); vn != 1 {
		t.Errorf("dispatch.vn = %d, want 1: the probe must be served by the twin", vn)
	}
	if e.Pair().Swaps() != 1 {
		t.Errorf("crossbar side swapped %d times, want 1", e.Pair().Swaps())
	}
}

// TestRoundRobinOrder pins the spread: request seq leads with engine
// h(seq) mod n, h the fixed mixer, and wraps in ring order.
func TestRoundRobinOrder(t *testing.T) {
	net := testMLP(t, 3, 16, 8)
	f, _, err := New(testConfig(), net, WithEngines(3))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	engines := f.Engines()
	for _, c := range []struct {
		seq  uint64
		want []int
	}{
		{0, []int{0, 1, 2}},  // h(0) mod 3 = 0
		{4, []int{2, 0, 1}},  // h(4) mod 3 = 2
		{8, []int{2, 0, 1}},  // h(8) mod 3 = 2
		{16, []int{1, 2, 0}}, // h(16) mod 3 = 1
	} {
		order, tripped := NewRouter(RoundRobin()).Route(nil, engines, c.seq)
		if tripped != 0 {
			t.Fatalf("tripped = %d, want 0", tripped)
		}
		for i, e := range order {
			if e.ID() != c.want[i] {
				t.Fatalf("seq %d: round-robin order[%d] = engine %d, want %d", c.seq, i, e.ID(), c.want[i])
			}
		}
	}
}

// TestRoundRobinSpreadsElementKeys: the keys callers route by are
// ElementKeys, seq·8 + j, so 4,000 sequential batch-1 requests route by
// 0, 8, 16, …; at K = 2, 3, 4 and 8 engines each engine leads within ±10 %
// of 1/K of them. (A rotation by the key itself gave engine 0 all of them
// at K = 2, 4 and 8.)
func TestRoundRobinSpreadsElementKeys(t *testing.T) {
	net := testMLP(t, 3, 16, 8)
	f, _, err := New(testConfig(), net, WithEngines(8))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const requests = 4000
	for _, k := range []int{2, 3, 4, 8} {
		engines := f.Engines()[:k]
		share := make([]int, k)
		var buf []*Engine
		for seq := uint64(0); seq < requests; seq++ {
			key := workloadgen.Request{Seq: seq}.ElementKey(0)
			buf, _ = NewRouter(RoundRobin()).Route(buf, engines, key)
			share[buf[0].ID()]++
		}
		fair := float64(requests) / float64(k)
		for id, n := range share {
			if math.Abs(float64(n)-fair) > 0.1*fair {
				t.Errorf("K=%d: engine %d leads %d of %d batch-1 requests, want %.0f ± 10 %% (shares %v)", k, id, n, requests, fair, share)
			}
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
	got, want := slices.Clone(engines), slices.Clone(engines)
	WearAware().Order(got, 0)
	LeastLoaded().Order(want, 0)
	if got[0].ID() != want[0].ID() {
		t.Errorf("wear-aware lead = engine %d, least-loaded fallback = engine %d", got[0].ID(), want[0].ID())
	}
	// Requests must still spread across queue state, not hammer engine 0
	// exclusively by ID; with idle queues the tiebreak is ID order, so the
	// check is simply that routing succeeds and is deterministic.
	router := NewRouter(WearAware())
	o1, _ := router.Route(nil, engines, 1)
	o2, _ := router.Route(nil, engines, 1)
	for i := range o1 {
		if o1[i].ID() != o2[i].ID() {
			t.Fatal("wear-aware fallback ordering not deterministic")
		}
	}
}

// damageScore is the wear-aware policy's score, written out from its
// definition: lost columns, then used spares, then writes.
func damageScore(e *Engine) int64 {
	h := e.Health().Total
	return int64(h.LostCols)*wearLostCol + int64(h.SparesUsed)*wearSpareUsed + e.Wear()/wearWriteDiv
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

	distinct := map[int64]bool{}
	for _, e := range engines {
		distinct[damageScore(e)] = true
	}
	if len(distinct) < 2 {
		t.Skip("fault seeds produced identical damage; differential not exercised at this rate")
	}
	order, _ := NewRouter(WearAware()).Route(nil, engines, 0)
	for i := 1; i < len(order); i++ {
		if damageScore(order[i-1]) > damageScore(order[i]) {
			t.Fatalf("wear-aware order not ascending by damage: engine %d (score %d) before engine %d (score %d)",
				order[i-1].ID(), damageScore(order[i-1]), order[i].ID(), damageScore(order[i]))
		}
	}
}

// TestPolicyOrderMatchesDefinition pins each built-in policy's in-place
// order to its definition, over random loads, sequence numbers and 1–8
// candidates: round-robin rotates by h(seq), word seq of the zero-seeded
// noise stream; least-loaded rotates by seq and then
// stable-sorts by load; wear-aware does the same by (wear score, load).
// The faulted fleet gives its engines different wear scores.
func TestPolicyOrderMatchesDefinition(t *testing.T) {
	net := testMLP(t, 3, 16, 8)
	faulted := testConfig()
	faulted.Crossbar.ReadNoise = 0
	faulted.Faults = faultinject.Model{StuckLowRate: 0.03, StuckHighRate: 0.03, Seed: 11}
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []dpe.Config{testConfig(), faulted} {
		f, _, err := New(cfg, net, WithEngines(8))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		all := f.Engines()
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(len(all))
			idx := rng.Perm(len(all))[:n]
			sort.Ints(idx)
			cands := make([]*Engine, n)
			for i, k := range idx {
				cands[i] = all[k]
			}
			for _, e := range all {
				e.inflight.Store(int64(rng.Intn(3)))
			}
			seq := rng.Uint64()
			ring := func(lead uint64) []*Engine {
				r := make([]*Engine, n)
				for i := range r {
					r[i] = cands[(int(lead%uint64(n))+i)%n]
				}
				return r
			}
			for _, p := range []Policy{RoundRobin(), LeastLoaded(), WearAware()} {
				want := ring(seq)
				switch p.(type) {
				case roundRobin:
					want = ring(noise.NewSource(0).Uint64(seq))
				case leastLoaded:
					sort.SliceStable(want, func(i, j int) bool { return want[i].Load() < want[j].Load() })
				case wearAware:
					sort.SliceStable(want, func(i, j int) bool {
						wi, wj := damageScore(want[i]), damageScore(want[j])
						return wi < wj || wi == wj && want[i].Load() < want[j].Load()
					})
				}
				got := slices.Clone(cands)
				p.Order(got, seq)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%T, %d candidates, seq %d: order[%d] = engine %d, want %d",
							p, n, seq, i, got[i].ID(), want[i].ID())
					}
				}
			}
		}
		for _, e := range all {
			e.inflight.Store(0)
		}
	}
}

// TestRouteAllocs: routing a request — member snapshot, pooled order
// buffer, least-loaded ordering — allocates nothing, so the fleet adds no
// allocation over its engine's serve path.
func TestRouteAllocs(t *testing.T) {
	net := testMLP(t, 3, 16, 8)
	f, _, err := New(testConfig(), net, WithEngines(2), WithPolicy(LeastLoaded()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var seq uint64
	allocs := testing.AllocsPerRun(100, func() {
		_, buf, _ := f.route(seq)
		buf.release()
		seq++
	})
	if allocs != 0 {
		t.Errorf("routing one request: %v allocs, want 0", allocs)
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
	if h := f.Registry().Histogram("fleet.latency_ns"); h.Snapshot().Count != n {
		t.Errorf("fleet.latency_ns count = %d, want %d", h.Snapshot().Count, n)
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
