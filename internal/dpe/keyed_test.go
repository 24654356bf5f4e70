package dpe

import (
	"math/rand"
	"reflect"
	"testing"
)

// noisyConfig is bit-serial with read noise live: functional mode never
// draws noise (crossbar.Config.Validate rejects the combination), so a
// keyed-noise suite on it would pin the noise-free path.
func noisyConfig() Config {
	cfg := testConfig()
	cfg.Crossbar.Functional = false
	cfg.Crossbar.ReadNoise = 0.02
	return cfg
}

func noisyInputs(n, dim int, seed int64) [][]float64 {
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

// TestInferBatchKeyedMatchesAutoSequence: keying inference with the same
// sequence numbers the engine counter would have assigned reproduces the
// auto-sequenced outputs bit-exactly — the keyed path is the same noise
// stream, just with caller-owned positions.
func TestInferBatchKeyedMatchesAutoSequence(t *testing.T) {
	net := mlp(t, 32, 24, 10)
	inputs := noisyInputs(12, 32, 7)

	auto, err := New(noisyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := auto.Load(net); err != nil {
		t.Fatal(err)
	}
	want, _, err := auto.InferBatch(inputs) // consumes counter 0..11
	if err != nil {
		t.Fatal(err)
	}

	keyed, err := New(noisyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := keyed.Load(net); err != nil {
		t.Fatal(err)
	}
	seqs := make([]uint64, len(inputs))
	for i := range seqs {
		seqs[i] = uint64(i)
	}
	got, _, err := keyed.InferBatchKeyed(seqs, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("input %d: keyed output differs from auto-sequenced", i)
			}
		}
	}

	// The suite is about noise only if noisyConfig draws some: the same
	// keys on its noise-free twin must give different outputs.
	quietCfg := noisyConfig()
	quietCfg.Crossbar.ReadNoise = 0
	quiet, err := New(quietCfg)
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
	if reflect.DeepEqual(got, flat) {
		t.Fatal("noisyConfig outputs equal the noise-free outputs: the keyed-noise suites are vacuous")
	}
}

// TestInferBatchKeyedOrderInvariant: keyed outputs depend only on
// (seed, key, input), never on batch composition or submission order —
// the property fleet routing is built on.
func TestInferBatchKeyedOrderInvariant(t *testing.T) {
	net := mlp(t, 32, 24, 10)
	inputs := noisyInputs(8, 32, 7)
	e, err := New(noisyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Load(net); err != nil {
		t.Fatal(err)
	}

	seqs := []uint64{100, 101, 102, 103, 104, 105, 106, 107}
	fwd, _, err := e.InferBatchKeyed(seqs, inputs)
	if err != nil {
		t.Fatal(err)
	}
	// Same requests, reversed order, split across two batches.
	rev := make([][]float64, len(inputs))
	rseqs := make([]uint64, len(inputs))
	for i := range inputs {
		rev[i] = inputs[len(inputs)-1-i]
		rseqs[i] = seqs[len(inputs)-1-i]
	}
	half := len(rev) / 2
	out1, _, err := e.InferBatchKeyed(rseqs[:half], rev[:half])
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := e.InferBatchKeyed(rseqs[half:], rev[half:])
	if err != nil {
		t.Fatal(err)
	}
	back := append(out1, out2...)
	for i := range fwd {
		ri := len(fwd) - 1 - i
		for j := range fwd[i] {
			if fwd[i][j] != back[ri][j] {
				t.Fatalf("request seq %d: output depends on batch composition", seqs[i])
			}
		}
	}
	// The keyed path must not consume the engine's auto counter: a fresh
	// auto batch on a twin engine still starts at counter zero.
	twin, err := New(noisyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Load(net); err != nil {
		t.Fatal(err)
	}
	wantAuto, _, err := twin.InferBatch(inputs[:2])
	if err != nil {
		t.Fatal(err)
	}
	gotAuto, _, err := e.InferBatch(inputs[:2])
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantAuto {
		for j := range wantAuto[i] {
			if gotAuto[i][j] != wantAuto[i][j] {
				t.Fatalf("keyed inference advanced the auto counter (input %d)", i)
			}
		}
	}
}

// TestInferBatchKeyedValidation: key/input count mismatch is rejected.
func TestInferBatchKeyedValidation(t *testing.T) {
	net := mlp(t, 16, 8)
	e, err := New(noisyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Load(net); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.InferBatchKeyed([]uint64{1}, noisyInputs(2, 16, 3)); err == nil {
		t.Error("mismatched seqs/inputs accepted")
	}
}

// TestWearAccounting: Wear sums lifetime cell writes across stages —
// zero before Load, positive after, unchanged by inference, increased by
// reprogramming.
func TestWearAccounting(t *testing.T) {
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Wear(); got != 0 {
		t.Fatalf("wear before Load = %d, want 0", got)
	}
	net := mlp(t, 32, 24, 10)
	if _, err := e.Load(net); err != nil {
		t.Fatal(err)
	}
	afterLoad := e.Wear()
	if afterLoad <= 0 {
		t.Fatalf("wear after Load = %d, want positive", afterLoad)
	}
	if _, _, err := e.InferBatch(noisyInputs(4, 32, 3)); err != nil {
		t.Fatal(err)
	}
	if got := e.Wear(); got != afterLoad {
		t.Errorf("inference changed wear: %d -> %d", afterLoad, got)
	}
	if _, err := e.Load(net); err != nil {
		t.Fatal(err)
	}
	if got := e.Wear(); got <= afterLoad {
		t.Errorf("reload did not accumulate wear: %d -> %d", afterLoad, got)
	}
}
