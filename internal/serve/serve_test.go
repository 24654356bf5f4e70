package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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

// testEngineConfig is a small functional-mode DPE for fast tests.
func testEngineConfig() dpe.Config {
	cfg := dpe.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 64, 64
	return cfg
}

func testMLP(t *testing.T, sizes ...int) *nn.Network {
	t.Helper()
	net, err := nn.NewMLP("serve-test", sizes, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func loadedEngine(t *testing.T, net *nn.Network) *dpe.Engine {
	t.Helper()
	eng, err := dpe.New(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(net); err != nil {
		t.Fatal(err)
	}
	return eng
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

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{MaxBatch: 0, MaxDelay: time.Millisecond, QueueBound: 1},
		{MaxBatch: -3, MaxDelay: time.Millisecond, QueueBound: 1},
		{MaxBatch: 1, MaxDelay: 0, QueueBound: 1},
		{MaxBatch: 1, MaxDelay: -time.Second, QueueBound: 1},
		{MaxBatch: 1, MaxDelay: time.Millisecond, QueueBound: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d (%+v) accepted", i, cfg)
		}
	}
	// New surfaces validation and nil-backend errors.
	if _, err := New(nil); err == nil {
		t.Error("nil backend accepted")
	}
	net := testMLP(t, 16, 8)
	eng := loadedEngine(t, net)
	if _, err := New(eng, WithConfig(Config{MaxBatch: 0, MaxDelay: time.Millisecond, QueueBound: 1})); err == nil {
		t.Error("invalid config accepted by New")
	}
}

// TestServeMatchesDirectInfer: every output served through the batcher is
// bit-identical to the same input run directly through a fresh engine —
// batching must not change results in functional (noise-free) mode.
func TestServeMatchesDirectInfer(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })
	for _, width := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			parallel.SetWidth(width)
			net := testMLP(t, 32, 24, 10)
			eng := loadedEngine(t, net)
			srv, err := New(eng, WithBatch(8, 5*time.Millisecond), WithQueueBound(256))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			const n = 64
			inputs := testInputs(n, 32, 7)
			outs := make([][]float64, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					out, cost, err := srv.SubmitKeyed(context.Background(), uint64(i), inputs[i])
					if err != nil {
						t.Errorf("request %d: %v", i, err)
						return
					}
					if cost.LatencyPS <= 0 || cost.EnergyPJ <= 0 {
						t.Errorf("request %d: degenerate cost %v", i, cost)
					}
					outs[i] = out
				}(i)
			}
			wg.Wait()

			ref := loadedEngine(t, net)
			for i := 0; i < n; i++ {
				want, _, err := ref.Infer(inputs[i])
				if err != nil {
					t.Fatal(err)
				}
				if len(outs[i]) != len(want) {
					t.Fatalf("request %d: output length %d != %d", i, len(outs[i]), len(want))
				}
				for j := range want {
					if outs[i][j] != want[j] {
						t.Fatalf("request %d output[%d] = %g, want %g (bit-identical)", i, j, outs[i][j], want[j])
					}
				}
			}

			s := srv.Registry().Snapshot()
			if s.Counters["serve.requests"] != n {
				t.Errorf("serve.requests = %d, want %d", s.Counters["serve.requests"], n)
			}
			if s.Counters["serve.batches"] == 0 {
				t.Error("no batches recorded")
			}
			if got := s.Histograms["serve.latency_ns"].Count; got != n {
				t.Errorf("latency observations = %d, want %d", got, n)
			}
			if srv.SimTimePS() <= 0 {
				t.Error("no simulated serving time accumulated")
			}
		})
	}
}

// blockingBackend blocks inside InferBatch until released; it lets tests
// fill the pending list deterministically.
type blockingBackend struct {
	entered chan struct{} // receives one token per InferBatch entry
	release chan struct{}
	batches [][]int // recorded batch sizes (len of each batch)
	mu      sync.Mutex
}

func (b *blockingBackend) InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error) {
	b.entered <- struct{}{}
	<-b.release
	b.mu.Lock()
	sizes := make([]int, len(inputs))
	for i := range inputs {
		sizes[i] = len(inputs[i])
	}
	b.batches = append(b.batches, sizes)
	b.mu.Unlock()
	outs := make([][]float64, len(inputs))
	for i := range outs {
		outs[i] = []float64{float64(i)}
	}
	return outs, energy.Cost{LatencyPS: 1000, EnergyPJ: float64(len(inputs))}, nil
}

// TestBackpressure: once the flusher is stuck in a flush and the pending list
// holds QueueBound requests, further Infers are rejected with
// ErrOverloaded — the queue must never grow past its bound.
func TestBackpressure(t *testing.T) {
	const bound = 4
	bk := &blockingBackend{entered: make(chan struct{}, 64), release: make(chan struct{})}
	srv, err := New(bk, WithBatch(1, time.Millisecond), WithQueueBound(bound))
	if err != nil {
		t.Fatal(err)
	}

	// First request: the flusher takes it and blocks in the backend.
	firstDone := make(chan error, 1)
	go func() {
		_, _, err := srv.SubmitKeyed(context.Background(), 0, []float64{0})
		firstDone <- err
	}()
	<-bk.entered // the flusher is now stuck inside InferBatch

	// Fill the queue to its bound with parked requests.
	var parked sync.WaitGroup
	parkedErrs := make([]error, bound)
	for i := 0; i < bound; i++ {
		parked.Add(1)
		go func(i int) {
			defer parked.Done()
			_, _, err := srv.SubmitKeyed(context.Background(), uint64(i+1), []float64{float64(i + 1)})
			parkedErrs[i] = err
		}(i)
	}
	// Wait until all bound requests are actually enqueued.
	deadline := time.After(5 * time.Second)
	for srv.QueueDepth() < bound {
		select {
		case <-deadline:
			t.Fatalf("queue never filled: %d/%d", srv.QueueDepth(), bound)
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// The queue is at its high-water mark: the next request must be shed.
	if _, _, err := srv.SubmitKeyed(context.Background(), 99, []float64{99}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("SubmitKeyed past high-water mark = %v, want ErrOverloaded", err)
	}
	if got := srv.Registry().Counter("serve.rejected").Value(); got != 1 {
		t.Errorf("serve.rejected = %d, want 1", got)
	}

	// Release the backend; everything parked must complete successfully.
	close(bk.release)
	go func() { // drain entry tokens for the remaining batches
		for range bk.entered {
		}
	}()
	if err := <-firstDone; err != nil {
		t.Errorf("first request: %v", err)
	}
	parked.Wait()
	for i, err := range parkedErrs {
		if err != nil {
			t.Errorf("parked request %d: %v", i, err)
		}
	}
	srv.Close()
	close(bk.entered)
}

// countingBackend records batch sizes without blocking.
type countingBackend struct {
	mu    sync.Mutex
	sizes []int
	delay time.Duration
}

func (b *countingBackend) InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error) {
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	b.mu.Lock()
	b.sizes = append(b.sizes, len(inputs))
	b.mu.Unlock()
	outs := make([][]float64, len(inputs))
	for i := range outs {
		outs[i] = []float64{0}
	}
	return outs, energy.Cost{LatencyPS: 10, EnergyPJ: 1}, nil
}

// TestIdleServerDoesNotWait: a lone request on an idle server is flushed at
// once as a batch of one — it never waits for batch-mates, however long
// MaxDelay is.
func TestIdleServerDoesNotWait(t *testing.T) {
	bk := &countingBackend{}
	srv, err := New(bk, WithBatch(16, 10*time.Second), WithQueueBound(16))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	start := time.Now()
	if _, _, err := srv.SubmitKeyed(context.Background(), 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("lone request took %v on an idle server", elapsed)
	}
	bk.mu.Lock()
	defer bk.mu.Unlock()
	if len(bk.sizes) != 1 || bk.sizes[0] != 1 {
		t.Errorf("batch sizes = %v, want [1]", bk.sizes)
	}
}

// TestMaxBatchCap: no dispatched batch may exceed MaxBatch, and every
// request must be served exactly once.
func TestMaxBatchCap(t *testing.T) {
	const maxBatch, n = 4, 64
	bk := &countingBackend{delay: 2 * time.Millisecond} // lets the queue pile up
	srv, err := New(bk, WithBatch(maxBatch, 50*time.Millisecond), WithQueueBound(n))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var served atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := srv.SubmitKeyed(context.Background(), 0, []float64{1}); err == nil {
				served.Add(1)
			}
		}()
	}
	wg.Wait()
	srv.Close()
	if served.Load() != n {
		t.Errorf("served %d/%d requests", served.Load(), n)
	}
	bk.mu.Lock()
	defer bk.mu.Unlock()
	total := 0
	for _, sz := range bk.sizes {
		if sz > maxBatch {
			t.Errorf("batch of %d exceeds MaxBatch %d", sz, maxBatch)
		}
		total += sz
	}
	if total != n {
		t.Errorf("batches cover %d requests, want %d", total, n)
	}
}

// TestCloseDrains: Close completes queued work (no dropped requests) and
// subsequent Infers fail fast with ErrClosed.
func TestCloseDrains(t *testing.T) {
	net := testMLP(t, 16, 8)
	eng := loadedEngine(t, net)
	srv, err := New(eng, WithBatch(4, 20*time.Millisecond), WithQueueBound(64))
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	inputs := testInputs(n, 16, 5)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = srv.SubmitKeyed(context.Background(), uint64(i), inputs[i])
		}(i)
	}
	wg.Wait()
	srv.Close()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	if _, _, err := srv.SubmitKeyed(context.Background(), 0, inputs[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitKeyed after Close = %v, want ErrClosed", err)
	}
	srv.Close() // idempotent
}

// echoBackend answers each item with its own noise key and counts the keys
// it served, so a test can see which requests reached the device and that
// every answer went back to its own caller.
type echoBackend struct {
	delay time.Duration
	mu    sync.Mutex
	seen  map[uint64]int
}

func (b *echoBackend) InferBatch([][]float64) ([][]float64, energy.Cost, error) {
	return nil, energy.Zero, errors.New("echoBackend: unkeyed flush")
}

func (b *echoBackend) InferBatchKeyedCtx(_ obs.Ctx, seqs []uint64, _ [][]float64) ([][]float64, energy.Cost, error) {
	time.Sleep(b.delay)
	outs := make([][]float64, len(seqs))
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, k := range seqs {
		b.seen[k]++
		outs[i] = []float64{float64(k)}
	}
	return outs, energy.Cost{LatencyPS: 1, EnergyPJ: 1}, nil
}

// TestRequestConservation races submitters carrying random cancels and
// deadlines against Close, one seeded composition per subtest. Every
// SubmitKeyed returns, with its own result, ErrClosed, ErrOverloaded or a
// typed expiry; no request reaches the device twice, and none that was
// refused reaches it at all; the counters match what the callers saw; and
// Close returns, so the flusher has exited.
func TestRequestConservation(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { conserve(t, seed) })
	}
}

func conserve(t *testing.T, seed int64) {
	const n = 64
	rng := rand.New(rand.NewSource(seed))
	bk := &echoBackend{delay: time.Duration(rng.Intn(100)) * time.Microsecond, seen: map[uint64]int{}}
	srv, err := New(bk, WithBatch(1+rng.Intn(8), time.Millisecond), WithQueueBound(1+rng.Intn(32)))
	if err != nil {
		t.Fatal(err)
	}
	outs := make([][]float64, n)
	errs := make([]error, n)
	closeAfter := rng.Intn(n)
	closed := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		switch rng.Intn(3) {
		case 0:
			ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(2000))*time.Microsecond)
		case 1:
			ctx, cancel = context.WithCancel(ctx)
			time.AfterFunc(time.Duration(rng.Intn(1000))*time.Microsecond, cancel)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer cancel()
			outs[i], _, errs[i] = srv.SubmitKeyed(ctx, uint64(i), []float64{float64(i)})
		}(i)
		if i == closeAfter {
			go func() {
				srv.Close()
				close(closed)
			}()
		}
	}
	returned := make(chan struct{})
	go func() {
		wg.Wait()
		<-closed
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("a SubmitKeyed or Close still blocked after 10s")
	}

	var over, canceled, deadline int64
	for i, err := range errs {
		reached := bk.seen[uint64(i)]
		switch {
		case reached > 1:
			t.Errorf("request %d reached the device %d times", i, reached)
		case err == nil:
			if reached != 1 || len(outs[i]) != 1 || outs[i][0] != float64(i) {
				t.Errorf("request %d: answer %v (device saw it %d times), want its own key", i, outs[i], reached)
			}
		case errors.Is(err, ErrClosed), errors.Is(err, ErrOverloaded):
			if reached != 0 {
				t.Errorf("request %d refused with %v but reached the device", i, err)
			}
			if errors.Is(err, ErrOverloaded) {
				over++
			}
		case errors.Is(err, ErrCanceled):
			canceled++
		case errors.Is(err, ErrDeadlineExceeded):
			deadline++
		default:
			t.Errorf("request %d: unexpected error %v", i, err)
		}
	}
	served := int64(0)
	for _, c := range bk.seen {
		served += int64(c)
	}
	reg := srv.Registry()
	for name, want := range map[string]int64{
		"serve.rejected":          over,
		"serve.canceled":          canceled,
		"serve.deadline_exceeded": deadline,
		"serve.requests":          served,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if d := srv.QueueDepth(); d != 0 {
		t.Errorf("QueueDepth after Close = %d, want 0", d)
	}
}

// TestPoisonPillIsolated: a malformed request (wrong input length) fails
// alone; its batchmates still get correct answers via the per-request
// retry path.
func TestPoisonPillIsolated(t *testing.T) {
	net := testMLP(t, 16, 8)
	eng := loadedEngine(t, net)
	srv, err := New(eng, WithBatch(4, 30*time.Millisecond), WithQueueBound(64))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	good := testInputs(3, 16, 9)
	bad := []float64{1, 2, 3} // wrong length
	var wg sync.WaitGroup
	var badErr error
	goodErrs := make([]error, len(good))
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, badErr = srv.SubmitKeyed(context.Background(), 0, bad)
	}()
	for i := range good {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, goodErrs[i] = srv.SubmitKeyed(context.Background(), uint64(i+1), good[i])
		}(i)
	}
	wg.Wait()
	if badErr == nil {
		t.Error("malformed request succeeded")
	}
	for i, err := range goodErrs {
		if err != nil {
			t.Errorf("well-formed request %d poisoned: %v", i, err)
		}
	}
}

// TestServeClusterBackend: the batcher runs unchanged over a multi-board
// dpe.Cluster — the Backend seam covers both deployment shapes.
func TestServeClusterBackend(t *testing.T) {
	net := testMLP(t, 24, 16, 8)
	cl, err := dpe.NewCluster(testEngineConfig(), 2, 5, 12.5e9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Load(net); err != nil {
		t.Fatal(err)
	}
	srv, err := New(cl, WithBatch(8, 10*time.Millisecond), WithQueueBound(128))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inputs := testInputs(16, 24, 13)
	var wg sync.WaitGroup
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, _, err := srv.SubmitKeyed(context.Background(), uint64(i), inputs[i])
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if len(out) != 8 {
				t.Errorf("request %d: output length %d", i, len(out))
			}
		}(i)
	}
	wg.Wait()
}
