package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/nn"
	"cimrev/internal/obs"
)

// TraceResult is the traced reference workload behind `cimbench -trace`
// and `cimbench -attr`: one engine load plus a few batched inferences run
// twice, once untraced (the cost-algebra reference) and once under an
// obs.Tracer. Because every span carries the exact simulated cost the
// operation returned, obs.SumRoots over the trace must be bit-identical
// to the untraced total — the trace is an exact decomposition of the cost
// ledger, not a sampled approximation of it.
type TraceResult struct {
	// Spans is the traced run's complete span snapshot (retirement order).
	Spans []obs.Span
	// Dropped counts spans discarded by the tracer's retention limit
	// (always 0 for this workload; nonzero would invalidate SumRoots).
	Dropped int64
	// Untraced is the serial driver's Seq-folded total cost without any
	// tracer in the loop.
	Untraced energy.Cost
	// Traced is obs.SumRoots over Spans: the same fold recovered from the
	// trace alone.
	Traced energy.Cost
}

// BitIdentical reports whether the trace's root fold reproduces the
// untraced total exactly (no epsilon: same float operations, same order).
func (r *TraceResult) BitIdentical() bool { return r.Traced == r.Untraced }

// TraceRun executes the reference workload. The driver is serial on
// purpose: each top-level operation is one root span, so the retirement
// order of roots matches the driver's call order and SumRoots applies the
// identical Seq fold the untraced driver applies. (Inside each root the
// engine still fans out across the worker pool; parallelism below the
// root does not disturb the root's inclusive cost.)
func TraceRun() (*TraceResult, error) {
	rng := rand.New(rand.NewSource(808))
	const dim, classes = 64, 10
	const batches, batchSize = 4, 8
	net, err := nn.NewMLP("trace-run", []int{dim, 48, classes}, rng)
	if err != nil {
		return nil, err
	}
	inputs := uniformInputs(rng, batches*batchSize, dim)
	cfg := dpe.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 64, 64

	// Untraced reference: a plain serial driver folding costs with Seq.
	ref, err := dpe.New(cfg)
	if err != nil {
		return nil, err
	}
	untraced, err := ref.Load(net)
	if err != nil {
		return nil, err
	}
	for k := 0; k < batches; k++ {
		chunk := inputs[k*batchSize : (k+1)*batchSize]
		_, cost, err := ref.InferBatch(chunk)
		if err != nil {
			return nil, err
		}
		untraced = untraced.Seq(cost)
	}

	// Traced run: same config, same driver, one root span per operation.
	tr := obs.New()
	eng, err := dpe.New(cfg)
	if err != nil {
		return nil, err
	}
	root := tr.Root("run.load")
	cost, err := eng.LoadCtx(root, net)
	root.End(cost)
	if err != nil {
		return nil, err
	}
	for k := 0; k < batches; k++ {
		chunk := inputs[k*batchSize : (k+1)*batchSize]
		root := tr.Root("run.infer_batch")
		_, cost, err := eng.InferBatchCtx(root, chunk)
		root.End(cost)
		if err != nil {
			return nil, err
		}
	}

	spans := tr.Snapshot()
	return &TraceResult{
		Spans:    spans,
		Dropped:  tr.Dropped(),
		Untraced: untraced,
		Traced:   obs.SumRoots(spans),
	}, nil
}

// Format renders the bit-identity check and the cost-attribution table.
func (r *TraceResult) Format() string {
	roots := 0
	for _, s := range r.Spans {
		if s.Parent == 0 {
			roots++
		}
	}
	var b strings.Builder
	b.WriteString("Trace run — simulated-cost tracing (docs/OBSERVABILITY.md)\n")
	b.WriteString(fmt.Sprintf("spans %d (roots %d, dropped %d)\n", len(r.Spans), roots, r.Dropped))
	b.WriteString(fmt.Sprintf("untraced total:   %s  %s\n",
		energy.FormatLatency(r.Untraced.LatencyPS), energy.FormatEnergy(r.Untraced.EnergyPJ)))
	b.WriteString(fmt.Sprintf("SumRoots(trace):  %s  %s  (bit-identical: %v)\n",
		energy.FormatLatency(r.Traced.LatencyPS), energy.FormatEnergy(r.Traced.EnergyPJ), r.BitIdentical()))
	b.WriteString(obs.FormatAttribution(obs.Attribution(r.Spans), 12))
	return b.String()
}
