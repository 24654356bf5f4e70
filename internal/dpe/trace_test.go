package dpe

import (
	"fmt"
	"reflect"
	"testing"

	"cimrev/internal/energy"
	"cimrev/internal/obs"
	"cimrev/internal/parallel"
)

// traceInputs builds a deterministic batch of inputs.
func traceInputs(n, dim int) [][]float64 {
	inputs := make([][]float64, n)
	for i := range inputs {
		inputs[i] = make([]float64, dim)
		for j := range inputs[i] {
			inputs[i][j] = float64((i*31+j*7)%17)/8.5 - 1
		}
	}
	return inputs
}

// TestTraceBitIdenticalAcrossWidths is the tracing acceptance test: a
// traced run's outputs AND its per-span cost fold (obs.SumRoots) must be
// bit-identical to the untraced run, at worker-pool widths 1, 4, and 16,
// in both functional and noisy modes. Tracing is observation only — it
// must never perturb the simulation it measures.
func TestTraceBitIdenticalAcrossWidths(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })
	noisy := testConfig()
	noisy.Crossbar.Functional = false
	noisy.Crossbar.ReadNoise = 0.02
	noisy.Seed = 42
	cfgs := map[string]Config{"functional": testConfig(), "noisy": noisy}

	for name, cfg := range cfgs {
		for _, width := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("%s/width=%d", name, width), func(t *testing.T) {
				parallel.SetWidth(width)
				net := mlp(t, 32, 24, 10)
				inputs := traceInputs(12, 32)

				// Untraced reference: serial driver folding with Seq.
				ref, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				untraced, err := ref.Load(net)
				if err != nil {
					t.Fatal(err)
				}
				var refOuts [][]float64
				for k := 0; k < len(inputs); k += 4 {
					outs, cost, err := ref.InferBatch(inputs[k : k+4])
					if err != nil {
						t.Fatal(err)
					}
					refOuts = append(refOuts, outs...)
					untraced = untraced.Seq(cost)
				}

				// Traced run: identical driver under an enabled tracer.
				tr := obs.New()
				eng, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				root := tr.Root("run.load")
				cost, err := eng.LoadCtx(root, net)
				root.End(cost)
				if err != nil {
					t.Fatal(err)
				}
				var outs [][]float64
				for k := 0; k < len(inputs); k += 4 {
					root := tr.Root("run.infer_batch")
					o, c, err := eng.InferBatchCtx(root, inputs[k:k+4])
					root.End(c)
					if err != nil {
						t.Fatal(err)
					}
					outs = append(outs, o...)
				}

				if !reflect.DeepEqual(outs, refOuts) {
					t.Fatal("traced outputs differ from untraced outputs")
				}
				spans := tr.Snapshot()
				if tr.Dropped() != 0 {
					t.Fatalf("tracer dropped %d spans", tr.Dropped())
				}
				if got := obs.SumRoots(spans); got != untraced {
					t.Fatalf("SumRoots = %+v, untraced total = %+v (must be bit-identical)", got, untraced)
				}
			})
		}
	}
}

// TestTraceSpanTree pins the shape of the engine's span tree: one
// dpe.infer_batch span with one per-stage child (the batch runs
// stage-major), each wrapping batched MVM spans whose descendants reach
// the crossbar layer — and every child well-nested under its parent.
func TestTraceSpanTree(t *testing.T) {
	net := mlp(t, 32, 24, 10)
	eng, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	root := tr.Root("run.load")
	cost, err := eng.LoadCtx(root, net)
	root.End(cost)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 5
	root = tr.Root("run.infer_batch")
	_, c, err := eng.InferBatchCtx(root, traceInputs(batch, 32))
	root.End(c)
	if err != nil {
		t.Fatal(err)
	}

	spans := tr.Snapshot()
	count := map[string]int{}
	byID := map[uint64]obs.Span{}
	for _, s := range spans {
		count[s.Name]++
		byID[s.ID] = s
	}
	if count["dpe.load"] != 1 {
		t.Errorf("dpe.load spans = %d, want 1", count["dpe.load"])
	}
	if count["tile.program"] == 0 || count["xbar.program"] == 0 {
		t.Errorf("programming spans missing: tile=%d xbar=%d",
			count["tile.program"], count["xbar.program"])
	}
	if count["dpe.infer_batch"] != 1 {
		t.Errorf("dpe.infer_batch spans = %d, want 1", count["dpe.infer_batch"])
	}
	// Stage-major batching: one span per stage for the whole batch, not one
	// per item. Two dense stages, each with one batched MVM reaching the
	// tile and crossbar layers.
	if count["dpe.dense"] != 2 {
		t.Errorf("dpe.dense spans = %d, want 2", count["dpe.dense"])
	}
	if count["tile.mvm_batch"] != 2 || count["xbar.mvm_batch"] == 0 {
		t.Errorf("MVM spans: tile.mvm_batch=%d (want 2) xbar.mvm_batch=%d (want >0)",
			count["tile.mvm_batch"], count["xbar.mvm_batch"])
	}
	// Structural well-formedness: every parent exists, children nest.
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %q has unknown parent %d", s.Name, s.Parent)
		}
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("span %q not nested in parent %q", s.Name, p.Name)
		}
	}
	// The batch annotation rides on the batch span.
	for _, s := range spans {
		if s.Name == "dpe.infer_batch" {
			if len(s.Notes) == 0 || s.Notes[0] != (obs.Note{Key: "batch", Val: batch}) {
				t.Errorf("dpe.infer_batch notes = %v, want batch=%d first", s.Notes, batch)
			}
		}
	}
	// Pipelined batch cost is intentionally below the sum of its
	// children's serial costs — the batch overlaps stages; attribution
	// clamps self-cost at zero rather than inventing negative cost.
	var batchSpan obs.Span
	var childSum energy.Cost
	for _, s := range spans {
		if s.Name == "dpe.infer_batch" {
			batchSpan = s
		}
	}
	for _, s := range spans {
		if s.Parent == batchSpan.ID {
			childSum.LatencyPS += s.Cost.LatencyPS
			childSum.EnergyPJ += s.Cost.EnergyPJ
		}
	}
	if batchSpan.Cost.LatencyPS >= childSum.LatencyPS {
		t.Errorf("pipelined batch latency %d not below serial child sum %d",
			batchSpan.Cost.LatencyPS, childSum.LatencyPS)
	}
	rows := obs.Attribution(spans)
	for _, r := range rows {
		if r.SelfSimPS < 0 || r.SelfEnergyPJ < 0 {
			t.Errorf("attribution row %q has negative self cost", r.Name)
		}
	}
}
