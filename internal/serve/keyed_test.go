package serve

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"cimrev/internal/dpe"
)

// noisyPairConfig is bit-serial with read noise live: functional mode
// never draws noise (crossbar.Config.Validate rejects the combination).
func noisyPairConfig() dpe.Config {
	cfg := testEngineConfig()
	cfg.Crossbar.Functional = false
	cfg.Crossbar.ReadNoise = 0.02
	return cfg
}

// TestSubmitKeyedBitIdentical: outputs served through the full pipeline
// (queue, batcher, shadow pair, breaker) with caller-owned keys are
// bit-identical to the same keys run directly through a twin engine —
// regardless of how the batcher grouped the concurrent submissions.
func TestSubmitKeyedBitIdentical(t *testing.T) {
	net := testMLP(t, 32, 24, 10)
	const n = 32
	inputs := testInputs(n, 32, 7)

	// Reference: direct keyed inference on a twin engine.
	ref, err := dpe.New(noisyPairConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Load(net); err != nil {
		t.Fatal(err)
	}
	seqs := make([]uint64, n)
	for i := range seqs {
		seqs[i] = uint64(i)
	}
	want, _, err := ref.InferBatchKeyed(seqs, inputs)
	if err != nil {
		t.Fatal(err)
	}
	// The suite is about noise only if noisyPairConfig draws some: the
	// same keys on its noise-free twin must give different outputs.
	quietCfg := noisyPairConfig()
	quietCfg.Crossbar.ReadNoise = 0
	quiet, err := dpe.New(quietCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quiet.Load(net); err != nil {
		t.Fatal(err)
	}
	flat, _, err := quiet.InferBatchKeyed(seqs, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want, flat) {
		t.Fatal("noisyPairConfig outputs equal the noise-free outputs: the keyed-noise suites are vacuous")
	}

	pair, _, err := NewShadowPair(noisyPairConfig(), net)
	if err != nil {
		t.Fatal(err)
	}
	brk, err := NewBreaker(pair)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(brk, WithBatch(8, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	got := make([][]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, _, err := srv.SubmitKeyed(context.Background(), uint64(i), inputs[i])
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			got[i] = out
		}(i)
	}
	wg.Wait()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d: batched keyed output differs from direct keyed inference", i)
			}
		}
	}
}

// TestQueueDepth: the live backpressure signal the fleet's least-loaded
// policy reads. Idle server reports zero.
func TestQueueDepth(t *testing.T) {
	net := testMLP(t, 16, 8)
	eng := loadedEngine(t, net)
	srv, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.QueueDepth(); got != 0 {
		t.Errorf("idle QueueDepth = %d, want 0", got)
	}
}
