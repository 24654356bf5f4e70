package serve

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/faultinject"
	"cimrev/internal/metrics"
	"cimrev/internal/nn"
	"cimrev/internal/obs"
)

// faultyEngineConfig is testEngineConfig with a device-fault model.
func faultyEngineConfig(m faultinject.Model, spares int) dpe.Config {
	cfg := testEngineConfig()
	cfg.Crossbar.SpareCols = spares
	cfg.Faults = m
	return cfg
}

// faultFreeOutputs programs net into a fault-free engine and returns its
// outputs on inputs — the bit-exact reference a repaired pipeline must hit.
func faultFreeOutputs(t *testing.T, net *nn.Network, inputs [][]float64) [][]float64 {
	t.Helper()
	eng, err := dpe.New(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(net); err != nil {
		t.Fatal(err)
	}
	outs, _, err := eng.InferBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

func TestBreakerConfigValidate(t *testing.T) {
	net := testMLP(t, 32, 24, 10)
	bad := []Option{
		WithRetry(-1),
		WithBatch(0, 0),
		WithQueueBound(0),
	}
	for i, opt := range bad {
		if _, _, err := NewShadowPair(testEngineConfig(), net, opt); err == nil {
			t.Errorf("option %d accepted", i)
		}
	}
	if _, _, err := NewShadowPair(testEngineConfig(), nil); err == nil {
		t.Error("nil network accepted")
	}
	if _, _, err := NewShadowPair(testEngineConfig(), net); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestShadowRepairBeforeSwap pins the repair-before-swap path: at seed 1
// the standby's Load loses a column to transient write failures, one
// in-place Repair clears it, and the swapped-in engine serves outputs
// bit-identical to a fault-free engine — with the repair charged to the
// hidden ledger.
func TestShadowRepairBeforeSwap(t *testing.T) {
	netA, netB := twoNets(t, 32, 24, 10)
	cfg := faultyEngineConfig(faultinject.Model{WriteFailRate: 0.885, Seed: 1}, 0)
	pair, _, err := NewShadowPair(cfg, netA)
	if err != nil {
		t.Fatal(err)
	}
	_, hidden, err := pair.Reprogram(netB)
	if err != nil {
		t.Fatalf("reprogram with repairable standby failed: %v", err)
	}
	if pair.Swaps() != 1 {
		t.Fatalf("swaps = %d, want 1", pair.Swaps())
	}
	if h := pair.live.Load().eng.HealthCheck(); !h.Healthy() {
		t.Fatalf("swapped-in engine unhealthy: %s", h)
	}

	inputs := testInputs(8, 32, 17)
	outs, _, err := pair.InferBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs, faultFreeOutputs(t, netB, inputs)) {
		t.Fatal("repaired live engine output differs from fault-free engine")
	}

	// The hidden ledger must show the honest price: the 0.885 pulse-failure
	// rate forces far more programming energy than a clean load.
	ref, err := dpe.New(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	cleanCost, err := ref.Load(netB)
	if err != nil {
		t.Fatal(err)
	}
	if hidden.EnergyPJ <= cleanCost.EnergyPJ {
		t.Fatalf("hidden energy %g not above clean load %g", hidden.EnergyPJ, cleanCost.EnergyPJ)
	}
}

// TestBreakerRetryUntilHealthy pins the retry loop: at seed 3 the standby
// needs several Load epochs before program-and-verify settles every
// column, so the pair's first attempts fail and a later retry lands.
func TestBreakerRetryUntilHealthy(t *testing.T) {
	netA, netB := twoNets(t, 32, 24, 10)
	cfg := faultyEngineConfig(faultinject.Model{WriteFailRate: 0.885, Seed: 3}, 0)
	reg := metrics.NewRegistry()
	pair, _, err := NewShadowPair(cfg, netA, WithRetry(5), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	_, hidden, err := pair.Reprogram(netB)
	if err != nil {
		t.Fatalf("reprogram did not recover within 6 attempts: %v", err)
	}
	if pair.Tripped() {
		t.Fatal("pair tripped after successful reprogram")
	}
	retries := reg.Counter("serve.reprogram_retries").Value()
	if retries == 0 {
		t.Fatal("seed 3 no longer exercises the retry path (0 retries)")
	}
	if pair.Swaps() != 1 {
		t.Fatalf("swaps = %d, want 1", pair.Swaps())
	}
	// Hidden cost accumulated across every failed attempt, so it must
	// exceed a single clean load several times over.
	ref, err := dpe.New(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	cleanCost, err := ref.Load(netB)
	if err != nil {
		t.Fatal(err)
	}
	if hidden.EnergyPJ <= 2*cleanCost.EnergyPJ {
		t.Fatalf("hidden energy %g does not reflect %d failed attempts (clean load %g)",
			hidden.EnergyPJ, retries, cleanCost.EnergyPJ)
	}
}

// TestBreakerTripsOnSpareExhaustion pins the degradation path: stuck cells
// past a zero spare budget cannot repair, every retry fails with
// ErrUnhealthy, the pair trips and sheds, and the old weights stay live.
func TestBreakerTripsOnSpareExhaustion(t *testing.T) {
	netA, netB := twoNets(t, 32, 24, 10)
	cfg := faultyEngineConfig(faultinject.Model{StuckLowRate: 0.05, StuckHighRate: 0.05, Seed: 11}, 0)
	reg := metrics.NewRegistry()
	pair, _, err := NewShadowPair(cfg, netA,
		WithRetry(2),
		WithRegistry(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = pair.Reprogram(netB)
	if !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("want ErrUnhealthy, got %v", err)
	}
	if !pair.Tripped() {
		t.Fatal("pair did not trip")
	}
	if pair.Swaps() != 0 {
		t.Fatalf("unhealthy standby was swapped in (%d swaps)", pair.Swaps())
	}
	if got := reg.Counter("serve.reprogram_retries").Value(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	if got := reg.Counter("serve.breaker_trips").Value(); got != 1 {
		t.Fatalf("trips = %d, want 1", got)
	}

	// A tripped pair sheds whole batches with the typed error, on every
	// entry point.
	inputs := testInputs(4, 32, 23)
	if _, _, err := pair.InferBatch(inputs); !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("tripped pair served: %v", err)
	}
	if _, _, err := pair.InferBatchKeyedCtx(obs.Ctx{}, []uint64{0, 1, 2, 3}, inputs); !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("tripped pair served keyed: %v", err)
	}
	if got := reg.Counter("serve.breaker_shed").Value(); got != 8 {
		t.Fatalf("shed = %d, want 8", got)
	}
}

// TestServerShedsUnhealthyBatches pins the flusher integration: batches
// against a tripped pair shed whole with ErrUnhealthy — no per-request
// fallback hammering — and the shed count lands in serve.unhealthy.
func TestServerShedsUnhealthyBatches(t *testing.T) {
	netA, netB := twoNets(t, 32, 24, 10)
	// Stuck cells past a zero spare budget: the reprogram cannot land.
	cfg := faultyEngineConfig(faultinject.Model{StuckLowRate: 0.05, StuckHighRate: 0.05, Seed: 11}, 0)
	reg := metrics.NewRegistry()
	pair, _, err := NewShadowPair(cfg, netA, WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pair.Reprogram(netB); !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("setup: %v", err)
	}

	srv, err := New(pair, WithBatch(8, 0), WithQueueBound(256), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	var wg sync.WaitGroup
	errs := make([]error, n)
	in := testInputs(n, 32, 41)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = srv.SubmitKeyed(context.Background(), uint64(i), in[i])
		}(i)
	}
	wg.Wait()
	srv.Close()
	for i, err := range errs {
		if !errors.Is(err, ErrUnhealthy) {
			t.Fatalf("request %d: want ErrUnhealthy, got %v", i, err)
		}
	}
	if got := reg.Counter("serve.unhealthy").Value(); got != n {
		t.Fatalf("serve.unhealthy = %d, want %d", got, n)
	}
	if got := reg.Counter("serve.errors").Value(); got != 0 {
		t.Fatalf("per-request fallback ran %d times against a tripped pair", got)
	}
}

// TestBreakerConcurrentAccess exercises the health gate under the race
// detector: concurrent inference, reprogramming, and state flips.
func TestBreakerConcurrentAccess(t *testing.T) {
	netA, netB := twoNets(t, 32, 24, 10)
	pair, _, err := NewShadowPair(testEngineConfig(), netA, WithRetry(1))
	if err != nil {
		t.Fatal(err)
	}
	inputs := testInputs(4, 32, 53)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := pair.InferBatch(inputs); err != nil && !errors.Is(err, ErrUnhealthy) {
					t.Errorf("infer: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			net := netA
			if i%2 == 0 {
				net = netB
			}
			if _, _, err := pair.Reprogram(net); err != nil {
				t.Errorf("reprogram: %v", err)
				return
			}
			_ = pair.Tripped()
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestReprogramSpanTree pins the reprogram trace: one "serve.reprogram"
// root per Reprogram whose attempts note counts its "serve.shadow_swap"
// children, with the visible cost on the root and the hidden cost split
// across the children — on a clean swap and on seed 3's retried one.
func TestReprogramSpanTree(t *testing.T) {
	netA, netB := twoNets(t, 32, 24, 10)
	for _, tc := range []struct {
		name  string
		cfg   dpe.Config
		retry bool // the faulty config must take more than one attempt
	}{
		{"clean", testEngineConfig(), false},
		{"seed3", faultyEngineConfig(faultinject.Model{WriteFailRate: 0.885, Seed: 3}, 0), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.New()
			pair, _, err := NewShadowPair(tc.cfg, netA, WithRetry(5), WithTracer(tr))
			if err != nil {
				t.Fatal(err)
			}
			visible, hidden, err := pair.Reprogram(netB)
			if err != nil {
				t.Fatal(err)
			}
			spans := tr.Snapshot()
			var roots []obs.Span
			for _, s := range spans {
				if s.Parent == 0 {
					roots = append(roots, s)
				}
			}
			if len(roots) != 1 || roots[0].Name != "serve.reprogram" {
				t.Fatalf("roots = %+v, want one serve.reprogram", roots)
			}
			root := roots[0]
			attempts := -1.0
			for _, n := range root.Notes {
				if n.Key == "attempts" {
					attempts = n.Val
				}
			}
			children, sum := 0, energy.Zero
			for _, s := range spans {
				if s.Parent == root.ID {
					if s.Name != "serve.shadow_swap" {
						t.Fatalf("root child %q, want serve.shadow_swap", s.Name)
					}
					children++
					sum = sum.Seq(s.Cost)
				}
			}
			if attempts != float64(children) {
				t.Errorf("attempts note = %g, shadow_swap children = %d", attempts, children)
			}
			if tc.retry && children < 2 {
				t.Errorf("%d attempts: seed 3 no longer exercises the retry path", children)
			}
			if root.Cost != visible {
				t.Errorf("root cost %+v, want visible %+v", root.Cost, visible)
			}
			if sum != hidden {
				t.Errorf("children's costs sum to %+v, want hidden %+v", sum, hidden)
			}
		})
	}
}
