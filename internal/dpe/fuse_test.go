package dpe

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"cimrev/internal/nn"
	"cimrev/internal/parallel"
)

// stagedNet builds dense(40→70) · act · dense(70→33) · act · dense(33→10)
// on rng — multi-block on 32² arrays, and its last dense layer has no
// activation behind it — or, with lead set, the same behind a leading
// activation of the same kind.
func stagedNet(t *testing.T, kind nn.Activation, lead bool) *nn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var layers []nn.Layer
	add := func(l nn.Layer, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		layers = append(layers, l)
	}
	act := func(size int) (nn.Layer, error) { return nn.NewActivation(kind, size) }
	dense := func(in, out int) (nn.Layer, error) {
		d, err := nn.NewDense(in, out, rng)
		if err == nil {
			for o := range d.B {
				d.B[o] = rng.Float64() - 0.5 // NewDense leaves the bias zero
			}
		}
		return d, err
	}
	if lead {
		add(act(40))
	}
	add(dense(40, 70))
	add(act(70))
	add(dense(70, 33))
	add(act(33))
	add(dense(33, 10))
	net, err := nn.NewNetwork("staged", layers...)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// unfusedInfer is the engine's pipeline written the way it ran before any
// stage was fused or batched, one item at a time on the engine's own tiles: a
// dense stage is Tile.MVM, then the bias added to the finished vector; a conv
// stage is one Tile.MVM per im2col patch, scattered with its bias to the
// patch's output position; every activation and pooling stage is its layer's
// Forward on the vector before it. Stage s of the inference keyed key draws
// from src.Derive(key).Derive(s), and patch p of a conv stage from that
// stream's child p.
func unfusedInfer(t *testing.T, e *Engine, in []float64, key uint64) []float64 {
	t.Helper()
	v := in
	for s := range e.stages {
		st := &e.stages[s]
		ns := e.src.Derive(key).Derive(uint64(s))
		if st.dense != nil {
			out, _, err := st.tile.MVM(v, ns)
			if err != nil {
				t.Fatal(err)
			}
			for o := range out {
				out[o] += st.dense.layer.B[o]
			}
			v = out
			continue
		}
		if l := st.conv; l != nil {
			out := make([]float64, l.OutSize())
			for oy := 0; oy < l.OutH(); oy++ {
				for ox := 0; ox < l.OutW(); ox++ {
					patch, err := l.Patch(v, oy, ox)
					if err != nil {
						t.Fatal(err)
					}
					p := oy*l.OutW() + ox
					y, _, err := st.tile.MVM(patch, ns.Derive(uint64(p)))
					if err != nil {
						t.Fatal(err)
					}
					for f := 0; f < l.F; f++ {
						out[p*l.F+f] = y[f] + l.B[f]
					}
				}
			}
			v = out
			continue
		}
		out, err := st.layer.Forward(v)
		if err != nil {
			t.Fatal(err)
		}
		v = out
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s output %d: %v (%#x), want %v (%#x)", what, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// TestFusedMatchesUnfused: merge, bias and activation done stripe by stripe
// inside the tile tasks give the bits the stage-by-stage pipeline gives, for
// ReLU, sigmoid and tanh networks, for a dense layer with nothing to fuse
// behind it (the last one; and every one of the softmax MLP's but its
// hidden ReLUs), and behind a leading activation — functional and with keyed
// read noise, at batches on both sides of the pool widths — and for the CNN,
// whose conv stage streams one batched tile call per patch position. The
// noisy batch also equals a second engine's Infer, one input at a time: key i
// is the engine counter's i-th number.
func TestFusedMatchesUnfused(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })
	functional := testConfig()
	functional.Crossbar.Rows, functional.Crossbar.Cols = 32, 32
	noisy := functional
	noisy.Crossbar.Functional = false
	noisy.Crossbar.ReadNoise = 0.02
	nets := map[string]*nn.Network{"mlp-softmax": mlp(t, 40, 70, 33, 10)}
	wantFused := map[string]int{"mlp-softmax": 2}
	for _, kind := range []nn.Activation{nn.ActReLU, nn.ActSigmoid, nn.ActTanh} {
		nets[kind.String()] = stagedNet(t, kind, false)
		nets[kind.String()+"-leading"] = stagedNet(t, kind, true)
		wantFused[kind.String()], wantFused[kind.String()+"-leading"] = 2, 2
	}
	lenet, err := nn.NewLeNetStyle("lenet", 8, 32, 10, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for f, rng := 0, rand.New(rand.NewSource(12)); f < 8; f++ {
		lenet.Layers[0].(*nn.Conv2D).B[f] = rng.Float64() - 0.5 // NewConv2D leaves the bias zero
	}
	nets["lenet"], wantFused["lenet"] = lenet, 1
	for name, net := range nets {
		for mode, cfg := range map[string]Config{"functional": functional, "noisy": noisy} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				eng, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Load(net); err != nil {
					t.Fatal(err)
				}
				fused := 0
				for _, st := range eng.stages {
					if st.fused {
						fused++
					}
				}
				if fused != wantFused[name] {
					t.Fatalf("%d stages fused, want %d", fused, wantFused[name])
				}
				const items = 64
				inputs := noisyInputs(items, net.InSize(), 5)
				seqs := make([]uint64, items)
				want := make([][]float64, items)
				for i := range seqs {
					seqs[i] = uint64(i)
					want[i] = unfusedInfer(t, eng, inputs[i], seqs[i])
				}
				for _, width := range []int{1, 4} {
					parallel.SetWidth(width)
					for _, bsz := range []int{1, 3, 4, 64} {
						got, _, err := eng.InferBatchKeyed(seqs[:bsz], inputs[:bsz])
						if err != nil {
							t.Fatal(err)
						}
						for i := range got {
							sameBits(t, fmt.Sprintf("width=%d batch=%d item %d", width, bsz, i), got[i], want[i])
						}
					}
				}
				if mode != "noisy" {
					return
				}
				lone, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := lone.Load(net); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 5; i++ {
					got, _, err := lone.Infer(inputs[i])
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, fmt.Sprintf("lone Infer %d", i), got, want[i])
				}
			})
		}
	}
}

// aliasingNets are the stage sequences the engine's panel hand-offs differ
// on: an activation first (it must copy before it works in place), an MLP
// (fused hidden stages, softmax in place on the panel the caller keeps), a
// network that ends on a dense stage, and the CNN (conv into a pooled panel,
// an unfused in-place activation, pooling).
func aliasingNets(t *testing.T) map[string]*nn.Network {
	t.Helper()
	lenet, err := nn.NewLeNetStyle("lenet", 8, 16, 4, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*nn.Network{
		"activation-first": stagedNet(t, nn.ActReLU, true),
		"mlp":              mlp(t, 40, 24, 10),
		"ends-on-dense":    stagedNet(t, nn.ActTanh, false),
		"lenet":            lenet,
	}
}

func copyRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// TestInferDoesNotWriteInputs: stages work in place on engine-owned panels
// only. The caller's input slices are bit-equal after Infer, InferBatch and
// InferBatchKeyed, whatever the first stage is.
func TestInferDoesNotWriteInputs(t *testing.T) {
	for name, net := range aliasingNets(t) {
		eng, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Load(net); err != nil {
			t.Fatal(err)
		}
		inputs := noisyInputs(6, net.InSize(), 9)
		kept := copyRows(inputs)
		if _, _, err := eng.Infer(inputs[0]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.InferBatch(inputs); err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.InferBatchKeyed([]uint64{5, 4, 3, 2, 1, 0}, inputs); err != nil {
			t.Fatal(err)
		}
		for i := range inputs {
			sameBits(t, fmt.Sprintf("%s: input %d after inference", name, i), inputs[i], kept[i])
		}
	}
}

// TestOutputsSurviveNextBatch: the panel a batch's outputs are in is the
// caller's — serve hands those slices to requesters after the flush returns —
// so the outputs of call k are bit-equal after calls k+1 … k+3 at other
// batch sizes have cycled the engine's panel pool, from one goroutine and
// from eight at once on one engine (under -race: no pooled panel is shared
// between batches in flight).
func TestOutputsSurviveNextBatch(t *testing.T) {
	sizes := []int{4, 1, 7, 2, 64, 3, 5}
	for name, net := range aliasingNets(t) {
		eng, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Load(net); err != nil {
			t.Fatal(err)
		}
		inputs := noisyInputs(64+3, net.InSize(), 13)
		seqs := make([]uint64, len(inputs))
		walk := func(g int) error {
			type call struct{ outs, kept [][]float64 }
			var calls []call
			for k, n := range sizes {
				off := (g + k) % 3
				outs, _, err := eng.InferBatchKeyed(seqs[:n], inputs[off:off+n])
				if err != nil {
					return err
				}
				calls = append(calls, call{outs, copyRows(outs)})
				for back := max(0, k-3); back < k; back++ {
					c := calls[back]
					for i := range c.kept {
						for j := range c.kept[i] {
							if math.Float64bits(c.outs[i][j]) != math.Float64bits(c.kept[i][j]) {
								return fmt.Errorf("%s goroutine %d: call %d item %d output %d changed from %v to %v after call %d",
									name, g, back, i, j, c.kept[i][j], c.outs[i][j], k)
							}
						}
					}
				}
			}
			return nil
		}
		if err := walk(0); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for g := range errs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				errs[g] = walk(g)
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
