package hybrid

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/metrics"
	"cimrev/internal/nn"
	"cimrev/internal/obs"
	"cimrev/internal/parallel"
	"cimrev/internal/serve"
	"cimrev/internal/vonneumann"
)

// dispatchInputs builds a deterministic batch of random inputs.
func dispatchInputs(t *testing.T, n, size int, seed int64) [][]float64 {
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

// dispatchFixture builds a reference engine, a dispatched engine+twin pair
// over the same network, and the dispatcher in the given mode.
func dispatchFixture(t *testing.T, mode Mode, net *nn.Network, reg *metrics.Registry) (*dpe.Engine, *Dispatcher) {
	t.Helper()
	cfg := dpe.DefaultConfig()
	ref, err := dpe.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Load(net); err != nil {
		t.Fatal(err)
	}
	eng, err := dpe.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(net); err != nil {
		t.Fatal(err)
	}
	twin, err := vonneumann.NewBackend(vonneumann.CPU(), vonneumann.DefaultHierarchy(), cfg.Crossbar, net)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithMode(mode)}
	if reg != nil {
		opts = append(opts, WithRegistry(reg))
	}
	disp, err := New(eng, twin, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ref, disp
}

// requireSame compares dispatched outputs against the CIM reference with
// == — routing must be invisible in the outputs, not just close.
func requireSame(t *testing.T, want, got [][]float64, label string) {
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
				t.Fatalf("%s: item %d elem %d: cim %v != dispatched %v", label, i, j, want[i][j], got[i][j])
			}
		}
	}
}

// crossoverMLP is a network whose crossover falls inside the flush sizes
// the tests use: the twin is cheaper for flushes of 1–3 items, the
// crossbar pipeline from 4 on.
func crossoverMLP(t *testing.T, name string, seed int64) *nn.Network {
	t.Helper()
	net, err := nn.NewMLP(name, []int{crossoverWidth, crossoverWidth, crossoverWidth}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

const crossoverWidth = 320

// TestDispatchRouteInvariance pins the tentpole's user-visible contract:
// auto dispatch returns outputs bit-identical to a CIM-only engine for
// deterministic traffic, at worker-pool widths 1, 4, and 16, across a
// flush sequence whose sizes straddle the network's crossover, so both
// backends actually serve.
func TestDispatchRouteInvariance(t *testing.T) {
	net := crossoverMLP(t, "route-mlp", 21)
	for _, w := range []int{1, 4, 16} {
		parallel.SetWidth(w)
		t.Cleanup(func() { parallel.SetWidth(0) })
		ref, disp := dispatchFixture(t, ModeAuto, net, nil)
		for flush := 0; flush < 40; flush++ {
			n := 1 + flush%7
			ins := dispatchInputs(t, n, crossoverWidth, int64(100*w+flush))
			want, _, err := ref.InferBatch(ins)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := disp.InferBatch(ins)
			if err != nil {
				t.Fatal(err)
			}
			requireSame(t, want, got, "auto dispatch")
		}
		cim, vn, pinned := disp.Counts()
		if cim == 0 || vn == 0 {
			t.Errorf("width %d: both backends should have served (cim %d, vn %d)", w, cim, vn)
		}
		if pinned != 0 {
			t.Errorf("width %d: unkeyed traffic pinned (%d)", w, pinned)
		}
	}
}

// TestDispatchKeyedPinned pins when keyed auto traffic is pinned: only on
// a twin-less dispatcher. Over a twin, keyed flushes are priced exactly as
// unkeyed ones are — both backends serve, the requests are counted
// under dispatch.cim / dispatch.vn, none under dispatch.pinned_noisy — and
// every output == the forced-cim dispatcher's for the same keys. Without a
// twin the same traffic goes to CIM with its keys intact and is counted as
// pinned.
func TestDispatchKeyedPinned(t *testing.T) {
	net := crossoverMLP(t, "keyed-mlp", 22)
	reg := metrics.NewRegistry()
	_, auto := dispatchFixture(t, ModeAuto, net, reg)
	_, forced := dispatchFixture(t, ModeCIM, net, nil)
	eng, err := dpe.New(dpe.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(net); err != nil {
		t.Fatal(err)
	}
	twinless, err := New(eng, nil, WithMode(ModeAuto))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for flush := 0; flush < 40; flush++ {
		n := 1 + flush%7
		total += int64(n)
		ins := dispatchInputs(t, n, crossoverWidth, int64(2300+flush))
		seqs := make([]uint64, n)
		for i := range seqs {
			seqs[i] = uint64(31337*flush + 77*i) // out of order across flushes
		}
		want, _, err := forced.InferBatchKeyedCtx(obs.Ctx{}, seqs, ins)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := auto.InferBatchKeyedCtx(obs.Ctx{}, seqs, ins)
		if err != nil {
			t.Fatal(err)
		}
		requireSame(t, want, got, "keyed auto vs forced cim")
		got, _, err = twinless.InferBatchKeyedCtx(obs.Ctx{}, seqs, ins)
		if err != nil {
			t.Fatal(err)
		}
		requireSame(t, want, got, "keyed twin-less")
	}
	cim, vn, pinned := auto.Counts()
	if cim == 0 || vn == 0 || pinned != 0 || cim+vn != total {
		t.Errorf("keyed auto counters: cim %d, vn %d, pinned %d; want both > 0, pinned 0, sum %d", cim, vn, pinned, total)
	}
	snap := reg.Snapshot().Counters
	if snap["dispatch.cim"] != cim || snap["dispatch.vn"] != vn || snap["dispatch.pinned_noisy"] != 0 {
		t.Errorf("registry dispatch.* = %d / %d / %d, want %d / %d / 0",
			snap["dispatch.cim"], snap["dispatch.vn"], snap["dispatch.pinned_noisy"], cim, vn)
	}
	if cim, vn, pinned := twinless.Counts(); cim != 0 || vn != 0 || pinned != total {
		t.Errorf("keyed twin-less counters: cim %d, vn %d, pinned %d; want 0, 0, %d", cim, vn, pinned, total)
	}
}

// TestDispatchForcedModes pins the forced policies: cim and vn modes route
// everything (keyed included) to their backend with identical outputs, vn
// mode without a twin is rejected at construction, and a twin-less auto
// dispatcher pins all traffic to CIM.
func TestDispatchForcedModes(t *testing.T) {
	net, err := nn.NewMLP("forced-mlp", []int{32, 16, 8}, rand.New(rand.NewSource(24)))
	if err != nil {
		t.Fatal(err)
	}
	ins := dispatchInputs(t, 5, 32, 25)
	seqs := []uint64{3, 1, 4, 1, 5}

	refC, dispC := dispatchFixture(t, ModeCIM, net, nil)
	want, _, err := refC.InferBatch(ins)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := dispC.InferBatch(ins)
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, want, got, "forced cim")
	if cim, vn, pinned := dispC.Counts(); cim != 5 || vn != 0 || pinned != 0 {
		t.Errorf("cim mode counters: %d, %d, %d; want 5, 0, 0", cim, vn, pinned)
	}

	refV, dispV := dispatchFixture(t, ModeVN, net, nil)
	want, _, err = refV.InferBatchKeyed(seqs, ins)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = dispV.InferBatchKeyedCtx(obs.Ctx{}, seqs, ins)
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, want, got, "forced vn keyed")
	if cim, vn, pinned := dispV.Counts(); cim != 0 || vn != 5 || pinned != 0 {
		t.Errorf("vn mode counters: %d, %d, %d; want 0, 5, 0", cim, vn, pinned)
	}

	eng, err := dpe.New(dpe.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(net); err != nil {
		t.Fatal(err)
	}
	if _, err := New(eng, nil, WithMode(ModeVN)); err == nil {
		t.Error("ModeVN without a twin accepted")
	}
	if _, err := New(nil, nil); err == nil {
		t.Error("nil CIM backend accepted")
	}
	twinless, err := New(eng, nil, WithMode(ModeAuto))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := twinless.InferBatch(ins); err != nil {
		t.Fatal(err)
	}
	if cim, vn, pinned := twinless.Counts(); cim != 0 || vn != 0 || pinned != 5 {
		t.Errorf("twin-less auto counters: %d, %d, %d; want 0, 0, 5", cim, vn, pinned)
	}
}

// TestDispatchVNTraceIsOneLeaf pins what a VN-routed flush looks like in a
// trace: exactly one vn.infer_batch span under the caller's, with nothing
// beneath it — the twin's private engine runs untraced, so no dpe.*, tile.*
// or xbar.* span (and none of their crossbar costs) appears — carrying the
// batch size and the roofline cost PredictBatchCost returns.
func TestDispatchVNTraceIsOneLeaf(t *testing.T) {
	net, err := nn.NewMLP("trace-mlp", []int{200, 80, 10}, rand.New(rand.NewSource(30)))
	if err != nil {
		t.Fatal(err)
	}
	_, disp := dispatchFixture(t, ModeVN, net, nil)
	tr := obs.New()
	root := tr.Root("test.flush")
	const n = 8
	_, cost, err := disp.InferBatchKeyedCtx(root, []uint64{7, 6, 5, 4, 3, 2, 1, 0}, dispatchInputs(t, n, 200, 31))
	if err != nil {
		t.Fatal(err)
	}
	root.End(cost)
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want the root and one vn.infer_batch: %+v", len(spans), spans)
	}
	vn, top := spans[0], spans[1] // retirement order: the leaf ends first
	if vn.Name != "vn.infer_batch" || vn.Parent != top.ID || top.Name != "test.flush" {
		t.Fatalf("span tree %q (parent %d) under %q (id %d)", vn.Name, vn.Parent, top.Name, top.ID)
	}
	if want := disp.vn.PredictBatchCost(n); vn.Cost != want || cost != want {
		t.Errorf("span cost %+v, returned %+v, want PredictBatchCost(%d) = %+v", vn.Cost, cost, n, want)
	}
	if len(vn.Notes) != 1 || vn.Notes[0] != (obs.Note{Key: "batch", Val: float64(n)}) {
		t.Errorf("annotations %v, want [batch=%d]", vn.Notes, n)
	}
}

// TestDispatchThroughServer pins the serve integration: a Dispatcher slots
// in as the Server's backend, and every response equals the reference
// engine's single-item output regardless of how the server batched it or
// which backend served the flush.
func TestDispatchThroughServer(t *testing.T) {
	net, err := nn.NewMLP("serve-mlp", []int{48, 24, 10}, rand.New(rand.NewSource(26)))
	if err != nil {
		t.Fatal(err)
	}
	ref, disp := dispatchFixture(t, ModeAuto, net, nil)
	srv, err := serve.New(disp, serve.WithBatch(8, 0), serve.WithQueueBound(64))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ins := dispatchInputs(t, 24, 48, 27)
	for i, in := range ins {
		got, _, err := srv.SubmitKeyed(context.Background(), uint64(i), in)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ref.Infer(in)
		if err != nil {
			t.Fatal(err)
		}
		requireSame(t, [][]float64{want}, [][]float64{got}, "served")
	}
}

// TestDispatchReprogram pins the coordinated weight swap: after
// Dispatcher.Reprogram both the crossbar pair and the twin serve the new
// network (outputs still bit-identical to a reference engine programmed
// with it), and a CIM backend without reprogram support is refused.
func TestDispatchReprogram(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	netA, err := nn.NewMLP("swap-a", []int{40, 24, 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	netB, err := nn.NewMLP("swap-b", []int{40, 24, 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dpe.DefaultConfig()
	pair, _, err := serve.NewShadowPair(cfg, netA)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := vonneumann.NewBackend(vonneumann.CPU(), vonneumann.DefaultHierarchy(), cfg.Crossbar, netA)
	if err != nil {
		t.Fatal(err)
	}
	disp, err := New(pair, twin, WithMode(ModeAuto))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := disp.Reprogram(netB); err != nil {
		t.Fatal(err)
	}

	ref, err := dpe.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Load(netB); err != nil {
		t.Fatal(err)
	}
	ins := dispatchInputs(t, 8, 40, 29)
	want, _, err := ref.InferBatch(ins)
	if err != nil {
		t.Fatal(err)
	}
	for flush := 0; flush < 20; flush++ {
		got, _, err := disp.InferBatch(ins)
		if err != nil {
			t.Fatal(err)
		}
		requireSame(t, want, got, "post-reprogram")
	}
	if _, vn, _ := disp.Counts(); vn == 0 {
		t.Error("twin never served after reprogram")
	}

	eng, err := dpe.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(netA); err != nil {
		t.Fatal(err)
	}
	bare, err := New(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bare.Reprogram(netB); err == nil {
		t.Error("Reprogram accepted on a backend without reprogram support")
	}
}

// TestDispatchReprogramNewTopology is the split-brain regression: a
// Dispatcher.Reprogram onto a network of another hidden width returns nil,
// and afterwards every flush, whichever side it is routed to, equals a
// fresh engine loaded with the new network — the twin reloads any topology
// the pair's Load accepted, so the two sides never serve different
// networks.
func TestDispatchReprogramNewTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	netA, err := nn.NewMLP("narrow", []int{8, 16, 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	netW, err := nn.NewMLP("wide", []int{8, 32, 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dpe.DefaultConfig()
	ref, err := dpe.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Load(netW); err != nil {
		t.Fatal(err)
	}
	var toCIM, toVN int64
	for _, mode := range []Mode{ModeCIM, ModeVN, ModeAuto} {
		pair, _, err := serve.NewShadowPair(cfg, netA)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := vonneumann.NewBackend(vonneumann.CPU(), vonneumann.DefaultHierarchy(), cfg.Crossbar, netA)
		if err != nil {
			t.Fatal(err)
		}
		disp, err := New(pair, twin, WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := disp.Reprogram(netW); err != nil {
			t.Fatalf("mode %v: Reprogram onto another hidden width: %v", mode, err)
		}
		for _, n := range []int{1, 64} {
			ins := dispatchInputs(t, n, 8, int64(n))
			want, _, err := ref.InferBatch(ins)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := disp.InferBatch(ins)
			if err != nil {
				t.Fatal(err)
			}
			requireSame(t, want, got, fmt.Sprintf("mode %v batch %d", mode, n))
		}
		cim, vn, _ := disp.Counts()
		toCIM, toVN = toCIM+cim, toVN+vn
	}
	if toCIM == 0 || toVN == 0 {
		t.Errorf("flushes routed cim %d, vn %d: each side must serve at least one", toCIM, toVN)
	}
}

// TestAutoRoutesToCheaperPrice pins the price rule over a size × batch grid
// that straddles the crossover: every auto flush goes to the backend whose
// PredictBatchCost latency is strictly lower, is counted under it, and
// charges exactly that price — auto pays min(CIM, VN) per flush.
func TestAutoRoutesToCheaperPrice(t *testing.T) {
	var toCIM, toVN int
	for _, size := range []int{16, 256, crossoverWidth, 512} {
		net, err := nn.NewMLP("grid-mlp", []int{size, size, size}, rand.New(rand.NewSource(int64(size))))
		if err != nil {
			t.Fatal(err)
		}
		_, disp := dispatchFixture(t, ModeAuto, net, nil)
		for _, n := range []int{1, 2, 3, 4, 8, 64} {
			cimPrice, vnPrice := disp.cim.PredictBatchCost(n), disp.vn.PredictBatchCost(n)
			want, wantVN := cimPrice, int64(0)
			if vnPrice.LatencyPS < cimPrice.LatencyPS {
				want, wantVN = vnPrice, int64(n)
				toVN++
			} else {
				toCIM++
			}
			c0, v0, _ := disp.Counts()
			_, cost, err := disp.InferBatch(dispatchInputs(t, n, size, int64(size+n)))
			if err != nil {
				t.Fatal(err)
			}
			c1, v1, _ := disp.Counts()
			if cost != want || v1-v0 != wantVN || c1-c0 != int64(n)-wantVN {
				t.Errorf("size %d, n=%d: charged %+v (cim +%d, vn +%d); cim price %+v, vn price %+v",
					size, n, cost, c1-c0, v1-v0, cimPrice, vnPrice)
			}
		}
	}
	if toCIM == 0 || toVN == 0 {
		t.Errorf("grid does not straddle the crossover: %d flushes priced to CIM, %d to VN", toCIM, toVN)
	}
}

// tiedEngine is a crossbar backend whose price is pinned to another
// backend's, so the dispatcher sees a tie.
type tiedEngine struct {
	*dpe.Engine
	price func(n int) energy.Cost
}

func (e tiedEngine) PredictBatchCost(n int) energy.Cost { return e.price(n) }

// TestAutoTieGoesToCIM: a flush whose two prices are equal stays on the
// crossbar.
func TestAutoTieGoesToCIM(t *testing.T) {
	net := crossoverMLP(t, "tie-mlp", 23)
	_, base := dispatchFixture(t, ModeAuto, net, nil)
	disp, err := New(tiedEngine{Engine: base.cim.(*dpe.Engine), price: base.vn.PredictBatchCost}, base.vn, WithMode(ModeAuto))
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 8; n++ {
		if _, _, err := disp.InferBatch(dispatchInputs(t, n, crossoverWidth, int64(n))); err != nil {
			t.Fatal(err)
		}
	}
	if cim, vn, _ := disp.Counts(); cim != 36 || vn != 0 {
		t.Errorf("tied prices routed cim %d, vn %d; want 36, 0", cim, vn)
	}
}
