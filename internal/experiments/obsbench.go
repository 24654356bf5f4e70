package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cimrev/internal/crossbar"
	"cimrev/internal/dpe"
	"cimrev/internal/nn"
	"cimrev/internal/noise"
	"cimrev/internal/obs"
	"cimrev/internal/serve"
)

// ObsResult quantifies the tracer's overhead budget (`cimbench -exp obs`,
// `make bench-obs` -> BENCH_obs.json). Three MVM variants isolate the
// kernel-level cost of the obs.Ctx plumbing:
//
//   - untraced:  the plain MVMInto hot path, no Ctx anywhere.
//   - disabled:  the MVMIntoCtx path through a nil tracer — the price every
//     production caller pays when tracing is off (a zero-Ctx branch; the
//     budget in docs/OBSERVABILITY.md is <5% over untraced).
//   - enabled:   full span recording, one root per MVM.
//
// The serve variants measure the end-to-end per-request wall latency of
// the micro-batching pipeline without a tracer vs with a disabled one —
// the serving-layer share of the same budget.
type ObsResult struct {
	// MVMIters / ServeIters are the measured iteration counts.
	MVMIters, ServeIters int
	// MVM ns/op for each variant (wall clock).
	MVMUntracedNS, MVMDisabledNS, MVMEnabledNS float64
	// MVMOverheadPct is (disabled - untraced) / untraced * 100.
	MVMOverheadPct float64
	// Serve per-request wall ns without a tracer vs with a disabled one.
	ServeUntracedNS, ServeDisabledNS float64
	// ServeOverheadPct is (disabled - untraced) / untraced * 100.
	ServeOverheadPct float64
	// SpansRecorded is the span count of the enabled MVM run (one root and
	// its per-block children per MVM).
	SpansRecorded int
}

// ObsOverhead measures the tracer overhead. Wall-clock numbers wobble
// with the host; the artifact records the trend, the hard guarantees live
// in the allocation tests (BenchmarkCrossbarMVMTracingOff asserts the
// disabled path allocates nothing).
func ObsOverhead() (*ObsResult, error) {
	res := &ObsResult{MVMIters: 1000, ServeIters: 512}

	// --- MVM kernel -------------------------------------------------------
	const n = 128
	cfg := crossbar.DefaultConfig()
	cfg.Rows, cfg.Cols = n, n
	xb, err := crossbar.New(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(909))
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			w[i][j] = rng.Float64()*2 - 1
		}
	}
	if _, err := xb.Program(w); err != nil {
		return nil, err
	}
	in := make([]float64, n)
	for i := range in {
		in[i] = rng.Float64()*2 - 1
	}
	dst := make([]float64, n)
	ns := noise.NewSource(1)

	// Warm up caches and scratch pools before timing anything.
	for i := 0; i < 50; i++ {
		if _, err := xb.MVMInto(dst, in, ns); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	for i := 0; i < res.MVMIters; i++ {
		if _, err := xb.MVMInto(dst, in, ns); err != nil {
			return nil, err
		}
	}
	res.MVMUntracedNS = float64(time.Since(start).Nanoseconds()) / float64(res.MVMIters)

	var off *obs.Tracer // nil tracer: permanently disabled
	start = time.Now()
	for i := 0; i < res.MVMIters; i++ {
		if _, err := xb.MVMIntoCtx(off.Root("bench.mvm"), dst, in, ns); err != nil {
			return nil, err
		}
	}
	res.MVMDisabledNS = float64(time.Since(start).Nanoseconds()) / float64(res.MVMIters)

	tr := obs.New()
	start = time.Now()
	for i := 0; i < res.MVMIters; i++ {
		sp := tr.Root("bench.mvm")
		cost, err := xb.MVMIntoCtx(sp, dst, in, ns)
		sp.End(cost)
		if err != nil {
			return nil, err
		}
	}
	res.MVMEnabledNS = float64(time.Since(start).Nanoseconds()) / float64(res.MVMIters)
	res.SpansRecorded = tr.Len()
	res.MVMOverheadPct = 100 * (res.MVMDisabledNS - res.MVMUntracedNS) / res.MVMUntracedNS

	// --- Serving pipeline -------------------------------------------------
	net, err := nn.NewMLP("obs-bench", []int{32, 24, 10}, rng)
	if err != nil {
		return nil, err
	}
	reqs := make([][]float64, res.ServeIters)
	for i := range reqs {
		reqs[i] = make([]float64, 32)
		for j := range reqs[i] {
			reqs[i][j] = rng.Float64()*2 - 1
		}
	}
	perRequest := func(tracer *obs.Tracer) (float64, error) {
		ecfg := dpe.DefaultConfig()
		ecfg.Crossbar.Rows, ecfg.Crossbar.Cols = 64, 64
		eng, err := dpe.New(ecfg)
		if err != nil {
			return 0, err
		}
		if _, err := eng.Load(net); err != nil {
			return 0, err
		}
		opts := []serve.Option{serve.WithBatch(1, 0), serve.WithQueueBound(64)}
		if tracer != nil {
			opts = append(opts, serve.WithTracer(tracer))
		}
		srv, err := serve.New(eng, opts...)
		if err != nil {
			return 0, err
		}
		defer srv.Close()
		ctx := context.Background()
		for i := 0; i < 32; i++ { // warm-up
			if _, _, err := srv.SubmitKeyed(ctx, uint64(i), reqs[i]); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		for i, in := range reqs {
			if _, _, err := srv.SubmitKeyed(ctx, uint64(i), in); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(reqs)), nil
	}
	if res.ServeUntracedNS, err = perRequest(nil); err != nil {
		return nil, err
	}
	disabled := obs.New()
	disabled.Disable()
	if res.ServeDisabledNS, err = perRequest(disabled); err != nil {
		return nil, err
	}
	res.ServeOverheadPct = 100 * (res.ServeDisabledNS - res.ServeUntracedNS) / res.ServeUntracedNS
	return res, nil
}

// Format renders the human-readable overhead table.
func (r *ObsResult) Format() string {
	var b strings.Builder
	b.WriteString("Tracer overhead — wall-clock ns/op (docs/OBSERVABILITY.md budget: disabled <5%)\n")
	b.WriteString(fmt.Sprintf("%-18s %12s %10s\n", "variant", "ns/op", "overhead"))
	b.WriteString(fmt.Sprintf("%-18s %12.1f %10s\n", "mvm untraced", r.MVMUntracedNS, "-"))
	b.WriteString(fmt.Sprintf("%-18s %12.1f %9.2f%%\n", "mvm disabled", r.MVMDisabledNS, r.MVMOverheadPct))
	b.WriteString(fmt.Sprintf("%-18s %12.1f %10s (%d spans)\n", "mvm enabled", r.MVMEnabledNS, "-", r.SpansRecorded))
	b.WriteString(fmt.Sprintf("%-18s %12.1f %10s\n", "serve untraced", r.ServeUntracedNS, "-"))
	b.WriteString(fmt.Sprintf("%-18s %12.1f %9.2f%%\n", "serve disabled", r.ServeDisabledNS, r.ServeOverheadPct))
	return b.String()
}
