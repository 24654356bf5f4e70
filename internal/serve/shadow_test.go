package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/nn"
	"cimrev/internal/obs"
	"cimrev/internal/parallel"
)

// twoNets builds two same-topology MLPs with different weights.
func twoNets(t *testing.T, sizes ...int) (*nn.Network, *nn.Network) {
	t.Helper()
	a, err := nn.NewMLP("net-a", sizes, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := nn.NewMLP("net-b", sizes, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestShadowSwapZeroDowntime is the acceptance test for shadow
// reprogramming: clients hammer the server continuously while the weights
// are swapped several times; not a single request may fail or be dropped,
// and after the final swap the serving engine's outputs are bit-identical
// to a fresh engine programmed with the new weights.
func TestShadowSwapZeroDowntime(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })
	parallel.SetWidth(4)

	netA, netB := twoNets(t, 32, 24, 10)
	pair, _, err := NewShadowPair(testEngineConfig(), netA)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(pair, WithBatch(8, 0), WithQueueBound(1024))
	if err != nil {
		t.Fatal(err)
	}

	inputs := testInputs(32, 32, 17)
	stop := make(chan struct{})
	var served, failed atomic.Int64
	var wg sync.WaitGroup
	const clients = 8
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := srv.SubmitKeyed(context.Background(), uint64(i*clients+c), inputs[(c+i)%len(inputs)])
				switch err {
				case nil:
					served.Add(1)
				case ErrOverloaded:
					// Backpressure is load shedding, not failure; but it
					// should not trigger at this offered load.
					failed.Add(1)
				default:
					failed.Add(1)
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}

	// Let traffic build, then swap weights back and forth under load.
	time.Sleep(20 * time.Millisecond)
	const swaps = 4
	for k := 0; k < swaps; k++ {
		target := netB
		if k%2 == 1 {
			target = netA
		}
		visible, hidden, err := pair.Reprogram(target)
		if err != nil {
			t.Fatal(err)
		}
		if visible.LatencyPS != energy.EDRAMAccessLatencyPS {
			t.Errorf("swap %d: visible latency %d ps, want one buffer swap (%d ps)",
				k, visible.LatencyPS, energy.EDRAMAccessLatencyPS)
		}
		if hidden.LatencyPS <= visible.LatencyPS {
			t.Errorf("swap %d: hidden latency %d ps not above visible %d ps",
				k, hidden.LatencyPS, visible.LatencyPS)
		}
		if visible.EnergyPJ != hidden.EnergyPJ {
			t.Errorf("swap %d: visible energy %g != hidden energy %g (energy is paid in full)",
				k, visible.EnergyPJ, hidden.EnergyPJ)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	srv.Close()

	if pair.Swaps() != swaps {
		t.Errorf("Swaps() = %d, want %d", pair.Swaps(), swaps)
	}
	if served.Load() == 0 {
		t.Fatal("no requests served during the swap storm")
	}
	if failed.Load() != 0 {
		t.Errorf("%d of %d requests failed or were shed across %d swaps; want 0",
			failed.Load(), served.Load()+failed.Load(), swaps)
	}

	// Post-swap equivalence: the last swap installed netA (swaps is even),
	// so the live engine must now be bit-identical to a fresh engine
	// loaded with netA.
	fresh, err := dpe.New(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Load(netA); err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs[:8] {
		got, _, err := pair.InferBatch([][]float64{in})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := fresh.Infer(in)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[0][j] != want[j] {
				t.Fatalf("post-swap input %d output[%d] = %g, want %g (bit-identical to fresh engine)",
					i, j, got[0][j], want[j])
			}
		}
	}
}

// TestShadowNoisyBitIdentical runs the post-swap equivalence check with
// analog read noise enabled: Reprogram installs a freshly loaded engine
// whose counter-based noise sequence restarts at zero, so its k-th
// inference is bit-identical to the k-th inference of a fresh engine with
// the same seed and weights.
func TestShadowNoisyBitIdentical(t *testing.T) {
	cfg := testEngineConfig()
	cfg.Crossbar.Functional = false
	cfg.Crossbar.ReadNoise = 0.02
	cfg.Seed = 99

	netA, netB := twoNets(t, 24, 16, 8)
	pair, _, err := NewShadowPair(cfg, netA)
	if err != nil {
		t.Fatal(err)
	}
	inputs := testInputs(6, 24, 23)
	// Serve some traffic on netA to advance the live engine's noise
	// sequence — the swap must still hand over a sequence-zero engine.
	if _, _, err := pair.InferBatch(inputs); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pair.Reprogram(netB); err != nil {
		t.Fatal(err)
	}

	fresh, err := dpe.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Load(netB); err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs {
		got, gotCost, err := pair.InferBatch([][]float64{in})
		if err != nil {
			t.Fatal(err)
		}
		want, wantCost, err := fresh.Infer(in)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[0][j] != want[j] {
				t.Fatalf("noisy post-swap input %d output[%d] = %g, want %g", i, j, got[0][j], want[j])
			}
		}
		if gotCost.EnergyPJ != wantCost.EnergyPJ {
			t.Fatalf("noisy post-swap input %d energy %g != fresh %g", i, gotCost.EnergyPJ, wantCost.EnergyPJ)
		}
	}
}

// TestShadowTopologyChange: because the standby is programmed with a full
// Load, a swap may install a *different* topology — live model replacement
// is not limited to same-shape weight refreshes.
func TestShadowTopologyChange(t *testing.T) {
	netA := func() *nn.Network {
		n, err := nn.NewMLP("small", []int{16, 8}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}()
	netWide, err := nn.NewMLP("wide", []int{16, 32, 8}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	pair, _, err := NewShadowPair(testEngineConfig(), netA)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pair.Reprogram(netWide); err != nil {
		t.Fatalf("topology-changing swap rejected: %v", err)
	}
	out, _, err := pair.InferBatch(testInputs(1, 16, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0]) != 8 {
		t.Fatalf("output length %d, want 8", len(out[0]))
	}
}

// TestShadowPredictBatchCost: the pair prices a batch from the engine it
// serves from, across swaps to another shape and back: PredictBatchCost(n)
// equals, with ==, the cost InferBatchKeyedCtx then charges for n items.
// Before the first swap the standby is unprogrammed, and after one it holds
// the other shape, so a price read from the standby fails every step.
func TestShadowPredictBatchCost(t *testing.T) {
	narrow, wide := testMLP(t, 24, 16, 8), testMLP(t, 24, 96, 40, 8)
	pair, _, err := NewShadowPair(testEngineConfig(), narrow)
	if err != nil {
		t.Fatal(err)
	}
	for step, net := range []*nn.Network{narrow, wide, narrow} {
		if step > 0 {
			if _, _, err := pair.Reprogram(net); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range []int{1, 2, 3, 4, 7, 8, 16, 64} {
			seqs := make([]uint64, n)
			for i := range seqs {
				seqs[i] = uint64(step*1000 + i)
			}
			_, charged, err := pair.InferBatchKeyedCtx(obs.Ctx{}, seqs, testInputs(n, 24, int64(n)))
			if err != nil {
				t.Fatal(err)
			}
			if price := pair.PredictBatchCost(n); price != charged {
				t.Errorf("step %d (%d layers), n=%d: PredictBatchCost %+v, charged %+v",
					step, len(net.Layers), n, price, charged)
			}
		}
	}
}

// TestShadowReprogramError: a failed standby load must leave the live
// engine's weights untouched, report a descriptive error and trip the
// pair; the next good Reprogram closes it and it serves again.
func TestShadowReprogramError(t *testing.T) {
	netA, netB := twoNets(t, 16, 8)
	pair, _, err := NewShadowPair(testEngineConfig(), netA)
	if err != nil {
		t.Fatal(err)
	}
	in := testInputs(1, 16, 3)
	before, _, err := pair.InferBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pair.Reprogram(nil); err == nil {
		t.Fatal("nil network accepted")
	}
	if pair.Swaps() != 0 {
		t.Errorf("failed reprogram counted a swap")
	}
	if !pair.Tripped() {
		t.Error("failed reprogram did not trip the pair")
	}
	if after, _, err := pair.live.Load().eng.InferBatch(in); err != nil || !reflect.DeepEqual(after, before) {
		t.Errorf("live engine changed by a failed reprogram: %v", err)
	}
	if _, _, err := pair.InferBatch(in); !errors.Is(err, ErrUnhealthy) {
		t.Errorf("tripped pair served: %v", err)
	}

	if _, _, err := pair.Reprogram(netB); err != nil {
		t.Fatal(err)
	}
	if pair.Tripped() || pair.Swaps() != 1 {
		t.Fatalf("after a good reprogram: tripped=%v swaps=%d, want closed and 1", pair.Tripped(), pair.Swaps())
	}
	out, _, err := pair.InferBatch(in)
	if err != nil || len(out) != 1 {
		t.Errorf("closed pair did not serve: %v", err)
	}
	if !reflect.DeepEqual(out, faultFreeOutputs(t, netB, in)) {
		t.Error("closed pair does not serve the new weights")
	}
}

// TestShadowServeParallelWidths runs the zero-downtime swap under the
// worker pool at widths 1/4/16 — the race target pins this suite.
func TestShadowServeParallelWidths(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })
	netA, netB := twoNets(t, 24, 16, 8)
	for _, width := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			parallel.SetWidth(width)
			pair, _, err := NewShadowPair(testEngineConfig(), netA)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(pair, WithBatch(4, 0), WithQueueBound(256))
			if err != nil {
				t.Fatal(err)
			}
			inputs := testInputs(24, 24, 31)
			var wg sync.WaitGroup
			for i := range inputs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if _, _, err := srv.SubmitKeyed(context.Background(), uint64(i), inputs[i]); err != nil {
						t.Errorf("request %d: %v", i, err)
					}
				}(i)
			}
			if _, _, err := pair.Reprogram(netB); err != nil {
				t.Error(err)
			}
			wg.Wait()
			srv.Close()
		})
	}
}
