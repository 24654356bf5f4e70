package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cimrev/internal/chaos"
	"cimrev/internal/metrics"
	"cimrev/internal/parallel"
	"cimrev/internal/serve"
)

// stragglerInjector builds an injector that slows engine 0 by delay on
// every batch — the canonical hedging target.
func stragglerInjector(delay time.Duration) *chaos.Injector {
	return chaos.New(chaos.Plan{
		Name: "straggler", Seed: 1, SlowEngine: 0, SlowDelay: delay,
		CrashEngine: -1,
	})
}

// TestHedgeBitIdentity is the hedging determinism contract: a hedged fleet
// racing a chaos straggler produces outputs bit-identical to an unhedged
// single-engine keyed submission, at client widths 1 and 8. Whichever lane
// wins the race, the keyed-noise contract makes its answer the only
// possible answer.
func TestHedgeBitIdentity(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })
	const n = 32
	net := testMLP(t, 3, 32, 24, 10)
	inputs := testInputs(n, 32, 7)

	// Unhedged reference: one engine, no chaos, serial keyed submission.
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

	for _, width := range []int{1, 8} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			parallel.SetWidth(width)
			// Aggressive hedging (short delay cap, a bucket as deep as the
			// run) against a slowed engine 0, so hedges actually fire and win.
			f, _, err := New(testConfig(), net,
				WithEngines(3),
				WithPolicy(RoundRobin()),
				WithChaos(stragglerInjector(2*time.Millisecond)),
				WithHedge(HedgeConfig{MaxDelay: 500 * time.Microsecond, Burst: n}),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			got := make([][]float64, n)
			sem := make(chan struct{}, width)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				sem <- struct{}{}
				go func(i int) {
					defer wg.Done()
					defer func() { <-sem }()
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
					t.Fatalf("request %d: hedged output differs from unhedged reference\n got %v\nwant %v",
						i, got[i], want[i])
				}
			}
			if hedged := f.Registry().Counter("fleet.hedged").Value(); hedged == 0 {
				t.Error("no hedges fired; the straggler race was not exercised")
			}
		})
	}
}

// TestHedgeWinsAgainstStraggler: with engine 0 stalled well past the hedge
// delay, hedges must both fire and win, and no request may fail.
func TestHedgeWinsAgainstStraggler(t *testing.T) {
	net := testMLP(t, 3, 24, 12)
	f, _, err := New(testConfig(), net,
		WithEngines(3),
		WithPolicy(RoundRobin()),
		WithChaos(stragglerInjector(5*time.Millisecond)),
		WithHedge(HedgeConfig{MaxDelay: 300 * time.Microsecond, Burst: 64}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	in := testInputs(1, 24, 9)[0]
	for seq := uint64(0); seq < 24; seq++ {
		if _, _, err := f.SubmitSeq(context.Background(), seq, in); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
	}
	reg := f.Registry()
	hedged := reg.Counter("fleet.hedged").Value()
	won := reg.Counter("fleet.hedge_won").Value()
	if hedged == 0 {
		t.Fatal("fleet.hedged = 0, want hedges against a 5ms straggler with a 300µs delay cap")
	}
	if won == 0 {
		t.Errorf("fleet.hedge_won = 0 with %d hedges fired; hedge never beat the straggler", hedged)
	}
	if won > hedged {
		t.Errorf("fleet.hedge_won %d > fleet.hedged %d", won, hedged)
	}
}

// TestHedgeBudget: the token bucket caps hedge volume at roughly
// hedgeBudget × requests + Burst, and denials are counted.
func TestHedgeBudget(t *testing.T) {
	h := newHedger(HedgeConfig{Burst: 2}, nil)
	// Drain the initial burst.
	spent := 0
	for h.spend() {
		spent++
	}
	if spent != 2 {
		t.Fatalf("initial burst allowed %d hedges, want 2", spent)
	}
	// 5% budget: 20 requests earn exactly one hedge.
	for i := 0; i < 19; i++ {
		h.earn()
		if h.spend() {
			t.Fatalf("hedge allowed after only %d requests at 5%% budget", i+1)
		}
	}
	h.earn()
	if !h.spend() {
		t.Error("hedge denied after 20 requests at 5% budget")
	}
}

// TestHedgerDelayClamps: the adaptive delay tracks the latency histogram's
// quantile but never leaves [minDelay, MaxDelay], and stays at MaxDelay
// while there is no history.
func TestHedgerDelayClamps(t *testing.T) {
	reg := newFleetMetrics(metrics.NewRegistry())
	h := newHedger(HedgeConfig{MaxDelay: 8 * time.Millisecond}, reg.latencyNS)
	h.minDelay = time.Millisecond
	if got := h.delay(); got != 8*time.Millisecond {
		t.Fatalf("empty-history delay = %v, want MaxDelay", got)
	}
	// Saturate the histogram with tiny latencies: the delay must clamp up
	// to minDelay, not chase the 100ns p95.
	for i := 0; i < 1000; i++ {
		reg.latencyNS.Observe(100)
	}
	for i := 0; i < 2*delayEvery; i++ {
		h.delay()
	}
	if got := h.delay(); got != time.Millisecond {
		t.Errorf("fast-fleet delay = %v, want minDelay clamp", got)
	}
	// Now huge latencies: the delay must clamp down to MaxDelay.
	for i := 0; i < 100000; i++ {
		reg.latencyNS.Observe(5e9)
	}
	for i := 0; i < 2*delayEvery; i++ {
		h.delay()
	}
	if got := h.delay(); got != 8*time.Millisecond {
		t.Errorf("slow-fleet delay = %v, want MaxDelay clamp", got)
	}
}

// TestAIMDLimiter pins the control law: a full limit's worth of successes
// adds one; an overload halves; both respect the clamps.
func TestAIMDLimiter(t *testing.T) {
	l := newAIMDLimiter(OverloadConfig{InitialLimit: 8})
	l.min, l.max = 2, 10
	if got := l.Limit(); got != 8 {
		t.Fatalf("initial limit = %d, want 8", got)
	}
	for i := 0; i < 8; i++ {
		l.onSuccess()
	}
	if got := l.Limit(); got != 9 {
		t.Errorf("limit after one success window = %d, want 9 (additive increase)", got)
	}
	l.onOverload()
	if got := l.Limit(); got != 4 {
		t.Errorf("limit after overload = %d, want 4 (multiplicative decrease)", got)
	}
	l.onOverload()
	l.onOverload()
	if got := l.Limit(); got != 2 {
		t.Errorf("limit after repeated overload = %d, want min 2", got)
	}
	for i := 0; i < 1000; i++ {
		l.onSuccess()
	}
	if got := l.Limit(); got != 10 {
		t.Errorf("limit after sustained success = %d, want max 10", got)
	}
	if !l.admits(9) || l.admits(10) {
		t.Errorf("admits(9)=%v admits(10)=%v at limit 10, want true/false", l.admits(9), l.admits(10))
	}
}

// TestBrownoutStateMachine pins the debounced transitions: onAfter
// consecutive overloaded samples switch shedding on, offAfter healthy
// samples switch it off, and interleaved samples reset the streaks.
func TestBrownoutStateMachine(t *testing.T) {
	b := newBrownout()
	b.onAfter, b.offAfter = 3, 2
	over := func() { b.update(100, 10) }
	calm := func() { b.update(1, 10) }

	over()
	over()
	if b.active() {
		t.Fatal("brownout after 2/3 overloaded samples")
	}
	calm() // resets the on-streak
	over()
	over()
	if b.active() {
		t.Fatal("brownout despite streak reset")
	}
	over()
	if !b.active() {
		t.Fatal("no brownout after 3 consecutive overloaded samples")
	}
	calm()
	if !b.active() {
		t.Fatal("brownout cleared after 1/2 healthy samples")
	}
	calm()
	if b.active() {
		t.Fatal("brownout not cleared after offAfter healthy samples")
	}
}

// TestBrownoutShedsLowPriorityOnly: with shedding forced on, PriorityLow
// submissions are refused at the door with a capacity-typed error while
// PriorityHigh traffic still serves.
func TestBrownoutShedsLowPriorityOnly(t *testing.T) {
	net := testMLP(t, 3, 16, 8)
	f, _, err := New(testConfig(), net, WithEngines(2), WithOverloadControl(OverloadConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in := testInputs(1, 16, 9)[0]

	f.over.shedding.Store(true)
	_, _, err = f.SubmitSeqPri(context.Background(), 1, in, PriorityLow)
	if !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("brownout shed err = %v, want ErrOverloaded", err)
	}
	if got := f.Registry().Counter("fleet.brownout_shed").Value(); got != 1 {
		t.Errorf("fleet.brownout_shed = %d, want 1", got)
	}
	if _, _, err := f.SubmitSeqPri(context.Background(), 2, in, PriorityHigh); err != nil {
		t.Fatalf("high-priority request during brownout: %v", err)
	}
	if !f.BrownoutActive() {
		t.Error("BrownoutActive() = false while shedding")
	}

	f.over.shedding.Store(false)
	if _, _, err := f.SubmitSeqPri(context.Background(), 3, in, PriorityLow); err != nil {
		t.Fatalf("low-priority request after brownout lifted: %v", err)
	}
}

// TestLimiterRefusesOverLimit: engines whose in-flight count sits at the
// AIMD limit are skipped as capacity refusals; when every engine is over
// limit the fleet types the failure ErrOverloaded, and traffic resumes
// when the load drains.
func TestLimiterRefusesOverLimit(t *testing.T) {
	net := testMLP(t, 3, 16, 8)
	f, _, err := New(testConfig(), net, WithEngines(2),
		WithOverloadControl(OverloadConfig{InitialLimit: 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in := testInputs(1, 16, 9)[0]

	for _, e := range f.Engines() {
		if e.Limit() != 4 {
			t.Fatalf("engine %d limit = %d, want 4", e.ID(), e.Limit())
		}
		e.inflight.Store(4) // simulate a saturated pipeline
	}
	_, _, err = f.SubmitSeq(context.Background(), 1, in)
	if !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("over-limit submit err = %v, want ErrOverloaded", err)
	}
	if got := f.Registry().Counter("fleet.limiter_refused").Value(); got != 2 {
		t.Errorf("fleet.limiter_refused = %d, want 2 (both engines)", got)
	}
	for _, e := range f.Engines() {
		e.inflight.Store(0)
	}
	if _, _, err := f.SubmitSeq(context.Background(), 2, in); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestChaosCrashFailsOver: an engine in its chaos dark window sheds typed
// (serve.ErrUnhealthy under the hood) and the fleet fails every affected
// keyed request over to a healthy engine — zero lost requests, outputs
// still bit-identical to a fault-free single engine.
func TestChaosCrashFailsOver(t *testing.T) {
	const n = 40
	net := testMLP(t, 3, 24, 12)
	inputs := testInputs(n, 24, 5)

	ref, _, err := New(testConfig(), net, WithEngines(1))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, n)
	for i := 0; i < n; i++ {
		out, _, err := ref.SubmitSeq(context.Background(), uint64(i), inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	ref.Close()

	// Engine 0 is dark from its very first batch; round-robin still offers
	// it first for a third of the requests.
	inj := chaos.New(chaos.Plan{Name: "crash", Seed: 2, SlowEngine: -1, CrashEngine: 0, CrashStart: 0, CrashEnd: 1 << 30})
	f, _, err := New(testConfig(), net, WithEngines(3), WithChaos(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < n; i++ {
		out, _, err := f.SubmitSeq(context.Background(), uint64(i), inputs[i])
		if err != nil {
			t.Fatalf("request %d lost to chaos crash: %v", i, err)
		}
		if !sliceEq(out, want[i]) {
			t.Fatalf("request %d: output differs from fault-free reference after failover", i)
		}
	}
	if f.Engines()[0].Routed() != 0 {
		t.Error("dark engine credited with routed requests")
	}
	if got := f.Registry().Counter("fleet.failovers").Value(); got == 0 {
		t.Error("fleet.failovers = 0; crash window never exercised failover")
	}
}

// TestRollingReprogramRacingHedges is the roll's worst case, pinned under
// `make race`: hedged keyed traffic against a straggler in flight while a
// rolling reprogram walks the fleet. No request may fail, and the keyed outputs must stay bit-identical to the
// pre-roll network's single-engine oracle for requests served before the
// roll's weights land (both networks are checked; every output must match
// one of them — which weights serve a racing request is deliberately
// unspecified, the *identity* of the answer per network is not).
func TestRollingReprogramRacingHedges(t *testing.T) {
	netA := testMLP(t, 3, 24, 16, 8)
	netB := testMLP(t, 4, 24, 16, 8)
	f, _, err := New(testConfig(), netA,
		WithEngines(3),
		WithPolicy(LeastLoaded()),
		WithChaos(stragglerInjector(500*time.Microsecond)),
		WithHedge(HedgeConfig{MaxDelay: time.Millisecond, Burst: 32}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Per-network oracles for the bit-identity check.
	oracleA, _, err := New(testConfig(), netA, WithEngines(1))
	if err != nil {
		t.Fatal(err)
	}
	defer oracleA.Close()
	oracleB, _, err := New(testConfig(), netB, WithEngines(1))
	if err != nil {
		t.Fatal(err)
	}
	defer oracleB.Close()

	inputs := testInputs(8, 24, 5)
	var stop atomic.Bool
	var seqCtr atomic.Uint64
	var reqs, fails atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				seq := seqCtr.Add(1)
				in := inputs[seq%uint64(len(inputs))]
				out, _, err := f.SubmitSeq(context.Background(), seq, in)
				reqs.Add(1)
				if err != nil {
					fails.Add(1)
					t.Errorf("worker %d seq %d: %v", w, seq, err)
					return
				}
				wantA, _, err := oracleA.SubmitSeq(context.Background(), seq, in)
				if err != nil {
					t.Errorf("oracle A seq %d: %v", seq, err)
					return
				}
				if sliceEq(out, wantA) {
					continue
				}
				wantB, _, err := oracleB.SubmitSeq(context.Background(), seq, in)
				if err != nil {
					t.Errorf("oracle B seq %d: %v", seq, err)
					return
				}
				if !sliceEq(out, wantB) {
					fails.Add(1)
					t.Errorf("seq %d: output matches neither netA nor netB oracle", seq)
					return
				}
			}
		}(w)
	}

	// The race: roll to netB under the hedged traffic.
	time.Sleep(2 * time.Millisecond)
	if err := f.RollingReprogram(netB).Err(); err != nil {
		t.Errorf("rolling reprogram: %v", err)
	}
	time.Sleep(5 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if fails.Load() != 0 {
		t.Fatalf("%d/%d requests failed during the hedged roll", fails.Load(), reqs.Load())
	}
	if reqs.Load() == 0 {
		t.Fatal("no traffic flowed during the race")
	}
}
