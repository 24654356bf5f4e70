package serve

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"cimrev/internal/dpe"
	"cimrev/internal/faultinject"
	"cimrev/internal/metrics"
	"cimrev/internal/nn"
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
	pair, _, err := NewShadowPair(testEngineConfig(), testMLP(t, 32, 24, 10))
	if err != nil {
		t.Fatal(err)
	}
	bad := []Option{
		WithProbe(-0.1, nil, nil),
		WithProbe(1.5, nil, nil),
		WithProbe(0.5, make([][]float64, 3), make([]int, 2)),
		WithRetry(-1, 0, 0),
		WithRetry(0, -time.Second, 0),
		WithRetry(0, time.Second, time.Millisecond),
	}
	for i, opt := range bad {
		if _, err := NewBreaker(pair, opt); err == nil {
			t.Errorf("option %d accepted", i)
		}
	}
	if _, err := NewBreaker(nil); err == nil {
		t.Error("nil pair accepted")
	}
	if _, err := NewBreaker(pair); err != nil {
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
	if h := pair.Live().HealthCheck(); !h.Healthy() {
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
// column, so the breaker's first attempts fail and a later retry lands.
func TestBreakerRetryUntilHealthy(t *testing.T) {
	netA, netB := twoNets(t, 32, 24, 10)
	cfg := faultyEngineConfig(faultinject.Model{WriteFailRate: 0.885, Seed: 3}, 0)
	pair, _, err := NewShadowPair(cfg, netA)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	br, err := NewBreaker(pair, WithRetry(5, 0, 0), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	_, hidden, err := br.Reprogram(netB)
	if err != nil {
		t.Fatalf("reprogram did not recover within 6 attempts: %v", err)
	}
	if br.Tripped() {
		t.Fatal("breaker tripped after successful reprogram")
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
// ErrUnhealthy, the breaker trips and sheds, and the old weights stay live.
func TestBreakerTripsOnSpareExhaustion(t *testing.T) {
	netA, netB := twoNets(t, 32, 24, 10)
	cfg := faultyEngineConfig(faultinject.Model{StuckLowRate: 0.05, StuckHighRate: 0.05, Seed: 11}, 0)
	pair, _, err := NewShadowPair(cfg, netA)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	br, err := NewBreaker(pair,
		WithRetry(2, time.Microsecond, time.Millisecond),
		WithSeed(1),
		WithRegistry(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = br.Reprogram(netB)
	if !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("want ErrUnhealthy, got %v", err)
	}
	if !br.Tripped() {
		t.Fatal("breaker did not trip")
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

	// Open breaker sheds whole batches with the typed error.
	inputs := testInputs(4, 32, 23)
	if _, _, err := br.InferBatch(inputs); !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("tripped breaker served: %v", err)
	}
	if got := reg.Counter("serve.breaker_shed").Value(); got != 4 {
		t.Fatalf("shed = %d, want 4", got)
	}

	// Reset closes it; the live engine (old weights, degraded but loaded)
	// serves again.
	br.Reset()
	if _, _, err := br.InferBatch(inputs); err != nil {
		t.Fatalf("reset breaker still shedding: %v", err)
	}
}

// TestBreakerProbeTrip pins accuracy gating: a swap that lands but probes
// below MinAccuracy trips the breaker with a typed UnhealthyError carrying
// the evidence, while a passing probe keeps it closed.
func TestBreakerProbeTrip(t *testing.T) {
	netA, netB := twoNets(t, 32, 24, 10)
	probe := testInputs(16, 32, 31)

	// Impossible labels: argmax never returns -1, so accuracy probes 0.
	badLabels := make([]int, len(probe))
	for i := range badLabels {
		badLabels[i] = -1
	}
	pair, _, err := NewShadowPair(testEngineConfig(), netA)
	if err != nil {
		t.Fatal(err)
	}
	br, err := NewBreaker(pair, WithProbe(0.5, probe, badLabels))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = br.Reprogram(netB)
	var ue *UnhealthyError
	if !errors.As(err, &ue) {
		t.Fatalf("want *UnhealthyError, got %v", err)
	}
	if !errors.Is(err, ErrUnhealthy) {
		t.Fatal("UnhealthyError does not unwrap to ErrUnhealthy")
	}
	if ue.Accuracy != 0 || ue.MinAccuracy != 0.5 {
		t.Fatalf("evidence %+v", ue)
	}
	if !br.Tripped() {
		t.Fatal("failed probe did not trip the breaker")
	}

	// Labels matching the fault-free reference: probe accuracy 1.0, the
	// breaker stays closed, and the gauge records it.
	goodLabels := make([]int, len(probe))
	for i, out := range faultFreeOutputs(t, netB, probe) {
		goodLabels[i] = argmax(out)
	}
	pair2, _, err := NewShadowPair(testEngineConfig(), netA)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	br2, err := NewBreaker(pair2, WithProbe(0.5, probe, goodLabels), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := br2.Reprogram(netB); err != nil {
		t.Fatalf("healthy reprogram tripped: %v", err)
	}
	if br2.Tripped() {
		t.Fatal("breaker open after passing probe")
	}
	if acc := reg.Gauge("serve.probe_accuracy").Value(); acc != 1.0 {
		t.Fatalf("probe accuracy gauge %g, want 1.0", acc)
	}
}

// TestServerShedsUnhealthyBatches pins the flusher integration: batches
// against a tripped breaker shed whole with ErrUnhealthy — no per-request
// fallback hammering — and the shed count lands in serve.unhealthy.
func TestServerShedsUnhealthyBatches(t *testing.T) {
	netA, netB := twoNets(t, 32, 24, 10)
	probe := testInputs(8, 32, 31)
	badLabels := make([]int, len(probe))
	for i := range badLabels {
		badLabels[i] = -1
	}
	pair, _, err := NewShadowPair(testEngineConfig(), netA)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	br, err := NewBreaker(pair, WithProbe(0.5, probe, badLabels), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := br.Reprogram(netB); !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("setup: %v", err)
	}

	srv, err := New(br, WithBatch(8, time.Millisecond), WithQueueBound(256), WithRegistry(reg))
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
		t.Fatalf("per-request fallback ran %d times against a tripped breaker", got)
	}
}

// TestBreakerConcurrentAccess exercises the breaker under the race
// detector: concurrent inference, reprogramming, and state flips.
func TestBreakerConcurrentAccess(t *testing.T) {
	netA, netB := twoNets(t, 32, 24, 10)
	pair, _, err := NewShadowPair(testEngineConfig(), netA)
	if err != nil {
		t.Fatal(err)
	}
	br, err := NewBreaker(pair, WithRetry(1, 0, 0))
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
				if _, _, err := br.InferBatch(inputs); err != nil && !errors.Is(err, ErrUnhealthy) {
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
			if _, _, err := br.Reprogram(net); err != nil {
				t.Errorf("reprogram: %v", err)
				return
			}
			_ = br.Tripped()
			br.Reset()
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}
