package vonneumann

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cimrev/internal/crossbar"
	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/nn"
	"cimrev/internal/parallel"
)

// twinInputs builds a deterministic batch of random inputs.
func twinInputs(t *testing.T, n, size int, seed int64) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ins := make([][]float64, n)
	for i := range ins {
		in := make([]float64, size)
		for j := range in {
			in[j] = rng.Float64()*2 - 1
		}
		ins[i] = in
	}
	return ins
}

// requireBitIdentical compares engine and twin outputs with ==: the twin's
// contract is exactness, not tolerance.
func requireBitIdentical(t *testing.T, want, got [][]float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d outputs", label, len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("%s: item %d: %d vs %d elements", label, i, len(want[i]), len(got[i]))
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("%s: item %d elem %d: engine %v != twin %v", label, i, j, want[i][j], got[i][j])
			}
		}
	}
}

// twinPair builds an engine and its twin over the same config and network.
func twinPair(t *testing.T, cfg dpe.Config, net *nn.Network) (*dpe.Engine, *Backend) {
	t.Helper()
	eng, err := dpe.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(net); err != nil {
		t.Fatal(err)
	}
	twin, err := NewBackend(CPU(), DefaultHierarchy(), cfg.Crossbar, net)
	if err != nil {
		t.Fatal(err)
	}
	return eng, twin
}

// TestTwinBitIdentityFunctionalWidths pins the twin's contract: on a
// functional (exact integer) config, the twin's outputs equal the crossbar
// engine's with ==, for a multi-tile MLP, at worker-pool widths 1, 4, and
// 16. Width 1 is the serial reference; both sides fan their tile tasks
// across the pool, so agreement at every width, and of every width with
// width 1, is the route-invariance foundation.
func TestTwinBitIdentityFunctionalWidths(t *testing.T) {
	cfg := dpe.DefaultConfig() // functional, ISAAC-scale, 8-bit
	net, err := nn.NewMLP("twin-mlp", []int{300, 200, 50, 10}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	ins := twinInputs(t, 17, 300, 11)

	var ref [][]float64
	for _, w := range []int{1, 4, 16} {
		parallel.SetWidth(w)
		t.Cleanup(func() { parallel.SetWidth(0) })
		eng, twin := twinPair(t, cfg, net)
		want, _, err := eng.InferBatch(ins)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := twin.InferBatch(ins)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, want, got, "engine vs twin")
		if ref == nil {
			ref = got
		} else {
			requireBitIdentical(t, ref, got, "width 1 vs wider")
		}
	}
}

// TestTwinBitIdentityBitSerial pins the other kernel: the deterministic
// bit-serial pipeline — per-(input bit, slice) ADC quantization and
// shift-and-add merge — comes out of the twin bit for bit.
func TestTwinBitIdentityBitSerial(t *testing.T) {
	cfg := dpe.DefaultConfig()
	cfg.Crossbar.Functional = false
	net, err := nn.NewMLP("twin-bs", []int{150, 60, 10}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	eng, twin := twinPair(t, cfg, net)
	ins := twinInputs(t, 9, 150, 5)
	want, _, err := eng.InferBatch(ins)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := twin.InferBatch(ins)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, want, got, "bit-serial")
}

// TestTwinBitIdentityConv pins the conv path: a twin loaded with a CNN
// matches an engine that streams patches through four replicas, on both
// functional and bit-serial configs (the twin's engine has one replica:
// replication changes crossbar cost, never outputs). The independent
// reference for conv streaming itself is unfusedInfer in internal/dpe.
func TestTwinBitIdentityConv(t *testing.T) {
	net, err := nn.NewLeNetStyle("twin-cnn", 8, 32, 10, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for _, functional := range []bool{true, false} {
		cfg := dpe.DefaultConfig()
		cfg.Crossbar.Functional = functional
		eng, twin := twinPair(t, cfg, net)
		ins := twinInputs(t, 3, net.InSize(), 9)
		want, _, err := eng.InferBatch(ins)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := twin.InferBatch(ins)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, want, got, "conv")
	}
}

// TestTwinKeyedTrafficMatches pins the dispatcher's keyed argument: on a
// deterministic config, noise keys are inert (no draws are consumed), so
// keyed engine outputs equal the keyless twin outputs exactly.
func TestTwinKeyedTrafficMatches(t *testing.T) {
	cfg := dpe.DefaultConfig()
	net, err := nn.NewMLP("twin-keyed", []int{200, 80, 10}, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	eng, twin := twinPair(t, cfg, net)
	ins := twinInputs(t, 5, 200, 13)
	seqs := []uint64{900, 1, 42, 7, 31337}
	want, _, err := eng.InferBatchKeyed(seqs, ins)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := twin.InferBatch(ins)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, want, got, "keyed")
}

// TestTwinReload pins the reprogram analogue: after Reload the twin tracks
// the engine's re-Load output exactly; a network of another topology
// reloads too, and the twin then equals a fresh engine loaded with it; and
// a rejected network changes nothing.
func TestTwinReload(t *testing.T) {
	cfg := dpe.DefaultConfig()
	rng := rand.New(rand.NewSource(2))
	net, err := nn.NewMLP("twin-a", []int{100, 40, 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	netB, err := nn.NewMLP("twin-b", []int{100, 40, 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	eng, twin := twinPair(t, cfg, net)
	if _, err := eng.Load(netB); err != nil {
		t.Fatal(err)
	}
	if err := twin.Reload(netB); err != nil {
		t.Fatal(err)
	}
	ins := twinInputs(t, 4, 100, 6)
	want, _, err := eng.InferBatch(ins)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := twin.InferBatch(ins)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, want, got, "reload")

	wide, err := nn.NewMLP("twin-wide", []int{100, 30, 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.Reload(wide); err != nil {
		t.Fatalf("Reload of another topology: %v", err)
	}
	fresh, _ := twinPair(t, cfg, wide)
	if want, _, err = fresh.InferBatch(ins); err != nil {
		t.Fatal(err)
	}
	if got, _, err = twin.InferBatch(ins); err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, want, got, "topology reload")

	bad, err := nn.NewMLP("twin-nan", []int{100, 40, 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	bad.Layers[0].(*nn.Dense).W[1][2] = math.NaN()
	if err := twin.Reload(bad); err == nil {
		t.Fatal("Reload accepted a NaN weight")
	}
	// A rejected Reload changes nothing: the twin still serves wide.
	if got, _, err = twin.InferBatch(ins); err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, want, got, "after rejected reload")
}

// TestTwinRejectsBadInputs pins the twin's error paths: an empty batch, a
// short item, and a NaN or infinity at the first, a middle or the last
// index of an item are errors with nil outputs and no panic, and the next
// well-formed batch is served exactly as the engine serves it.
func TestTwinRejectsBadInputs(t *testing.T) {
	net, err := nn.NewMLP("twin-bad-in", []int{200, 80, 10}, rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	eng, twin := twinPair(t, dpe.DefaultConfig(), net)
	good := twinInputs(t, 6, 200, 15)
	want, _, err := eng.InferBatch(good)
	if err != nil {
		t.Fatal(err)
	}
	reject := func(label string, ins [][]float64) {
		t.Helper()
		outs, cost, err := twin.InferBatch(ins)
		if err == nil || outs != nil || cost != (energy.Cost{}) {
			t.Errorf("%s: outs %v cost %+v err %v, want nil, zero and an error", label, outs, cost, err)
		}
		got, _, err := twin.InferBatch(good)
		if err != nil {
			t.Fatalf("after %s: %v", label, err)
		}
		requireBitIdentical(t, want, got, "after "+label)
	}
	reject("empty batch", nil)
	short := twinInputs(t, 3, 200, 16)
	short[1] = short[1][:199]
	reject("short item", short)
	for name, v := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		for _, idx := range []int{0, 137, 199} {
			ins := twinInputs(t, 3, 200, 17)
			ins[2][idx] = v
			reject(fmt.Sprintf("%s at %d", name, idx), ins)
		}
	}
}

// TestTwinReloadUnderTraffic pins Reload's swap: while it alternates two
// networks of one topology, four goroutines in InferBatch see no error and
// every output row is bit-equal to engine A's or engine B's row for that
// input — a flush runs on one engine from its first stage to its last,
// never on a mixture.
func TestTwinReloadUnderTraffic(t *testing.T) {
	cfg := dpe.DefaultConfig()
	rng := rand.New(rand.NewSource(18))
	netA, err := nn.NewMLP("twin-a", []int{150, 60, 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	netB, err := nn.NewMLP("twin-b", []int{150, 60, 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ins := twinInputs(t, 5, 150, 19)
	engA, twin := twinPair(t, cfg, netA)
	engB, _ := twinPair(t, cfg, netB)
	wantA, _, err := engA.InferBatch(ins)
	if err != nil {
		t.Fatal(err)
	}
	wantB, _, err := engB.InferBatch(ins)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, _, err := twin.InferBatch(ins)
				if err != nil {
					errs <- err
					return
				}
				a, b := true, true
				for i := range got {
					a = a && slices.Equal(got[i], wantA[i])
					b = b && slices.Equal(got[i], wantB[i])
				}
				if !a && !b {
					errs <- fmt.Errorf("flush matches neither network: %v", got)
					return
				}
			}
		}()
	}
	for r := 0; r < 20; r++ {
		next := netB
		if r%2 == 1 {
			next = netA
		}
		if err := twin.Reload(next); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTwinRejectsNoisyAndInvalid pins fail-fast construction: noisy
// configs have no digital twin, and broken cache geometries or configs are
// rejected before anything is programmed.
func TestTwinRejectsNoisyAndInvalid(t *testing.T) {
	net, err := nn.NewMLP("twin-rej", []int{16, 8}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	noisy := crossbar.DefaultConfig()
	noisy.ReadNoise = 0.05
	if _, err := NewBackend(CPU(), DefaultHierarchy(), noisy, net); err == nil {
		t.Error("noisy config accepted")
	}
	badH := DefaultHierarchy()
	badH.LineSize = 96
	if _, err := NewBackend(CPU(), badH, crossbar.DefaultConfig(), net); err == nil {
		t.Error("invalid hierarchy accepted")
	}
	badX := crossbar.DefaultConfig()
	badX.ADCBits = 0
	if _, err := NewBackend(CPU(), DefaultHierarchy(), badX, net); err == nil {
		t.Error("invalid crossbar config accepted")
	}
	if _, err := NewBackend(Machine{}, DefaultHierarchy(), crossbar.DefaultConfig(), net); err == nil {
		t.Error("invalid machine accepted")
	}
	if _, err := NewBackend(CPU(), DefaultHierarchy(), crossbar.DefaultConfig(), nil); err == nil {
		t.Error("nil network accepted")
	}
}

// TestTwinPredictMatchesInferCost pins the twin's price, the VN side of
// auto dispatch: PredictBatchCost returns the same cost InferBatch charges.
func TestTwinPredictMatchesInferCost(t *testing.T) {
	cfg := dpe.DefaultConfig()
	net, err := nn.NewMLP("twin-pred", []int{256, 256, 10}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	_, twin := twinPair(t, cfg, net)
	for _, n := range []int{1, 8, 64} {
		ins := twinInputs(t, n, 256, int64(n))
		_, cost, err := twin.InferBatch(ins)
		if err != nil {
			t.Fatal(err)
		}
		if pred := twin.PredictBatchCost(n); pred != cost {
			t.Errorf("batch %d: predicted %+v != charged %+v", n, pred, cost)
		}
	}
}

// TestTwinCostIsVonNeumann sanity-checks the pricing side: twin costs come
// from the roofline machine, so a tiny batch-1 kernel must undercut the
// crossbar's fixed InputBits x 100ns read cycles, while a large batched
// panel must not.
func TestTwinCostIsVonNeumann(t *testing.T) {
	small, err := nn.NewMLP("twin-small", []int{16, 16, 16}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := dpe.DefaultConfig()
	engS, twinS := twinPair(t, cfg, small)
	insS := twinInputs(t, 1, 16, 1)
	_, cimCost, err := engS.InferBatch(insS)
	if err != nil {
		t.Fatal(err)
	}
	vnCost := twinS.PredictBatchCost(1)
	if vnCost.LatencyPS >= cimCost.LatencyPS {
		t.Errorf("batch-1 16-wide MLP: VN %d ps should beat CIM %d ps", vnCost.LatencyPS, cimCost.LatencyPS)
	}

	large, err := nn.NewMLP("twin-large", []int{512, 512, 512}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	engL, twinL := twinPair(t, cfg, large)
	insL := twinInputs(t, 64, 512, 2)
	_, cimL, err := engL.InferBatch(insL)
	if err != nil {
		t.Fatal(err)
	}
	if vnL := twinL.PredictBatchCost(64); vnL.LatencyPS <= cimL.LatencyPS {
		t.Errorf("batch-64 512-wide MLP: CIM %d ps should beat VN %d ps", cimL.LatencyPS, vnL.LatencyPS)
	}
}
