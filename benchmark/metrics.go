package main

import (
	"math"
	"sort"
)

// metricDef declares one metric the way BENCHMARK.json does. bound is the
// share of the parent's median by which an end-to-end metric may worsen;
// per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// One "req" in a metric name is one inference: one input vector through
// the network. A batch-8 request of serve_small_open is eight of them.

// endToEnd is what a user of the simulator and its serving spine sees.
// Host time unless the name starts with sim_. Compute-bound host times
// are reported at the reference host speed (ref.go): setup_s and
// cpu_ms_per_req always, wall_rps and lat_p50_ms on the closed-loop
// workloads, where the caller computes from the first instant to the
// last. On the open-loop workloads those two are wall clock as it ran:
// there most of a request's time is spent waiting on the schedule, the
// batcher's delay and the host's timers, none of which scale with the
// speed of a core.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_rps", "1/s", "higher", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"sim_inf_per_s", "1/s", "higher", 0.02},
	{"sim_pj_per_req", "pJ", "lower", 0.02},
	{"output_rel_err", "ratio", "lower", 0.10},
}

// perLayer is named <module>.<metric>. The first block is the ladder
// (closed loop, one caller, every boundary of the path), the rest the
// in-situ spans and counters of the traced run.
var perLayer = []metricDef{
	{name: "crossbar.array_mvm_ns", unit: "ns", better: "lower"},
	{name: "crossbar.tiles_ns_per_req", unit: "ns", better: "lower"},
	{name: "crossbar.tiles_allocs_per_req", unit: "count", better: "lower"},
	{name: "crossbar.program_ms", unit: "ms", better: "lower"},
	{name: "dpe.infer_ns_per_req", unit: "ns", better: "lower"},
	{name: "dpe.self_ns_per_req", unit: "ns", better: "lower"},
	{name: "dpe.allocs_per_req", unit: "count", better: "lower"},
	{name: "dpe.sim_ps_per_req", unit: "ps", better: "lower"},
	{name: "dpe.sim_pj_per_req", unit: "pJ", better: "lower"},
	{name: "hybrid.self_ns_per_req", unit: "ns", better: "lower"},
	{name: "vonneumann.infer_ns_per_req", unit: "ns", better: "lower"},
	{name: "serve.submit_ns_per_req", unit: "ns", better: "lower"},
	{name: "serve.self_ns_per_req", unit: "ns", better: "lower"},
	{name: "serve.allocs_per_req", unit: "count", better: "lower"},
	{name: "fleet.submit_ns_per_req", unit: "ns", better: "lower"},
	{name: "fleet.self_ns_per_req", unit: "ns", better: "lower"},
	{name: "fleet.allocs_per_req", unit: "count", better: "lower"},
	{name: "workloadgen.drive_ns_per_req", unit: "ns", better: "lower"},
	{name: "workloadgen.self_ns_per_req", unit: "ns", better: "lower"},

	{name: "serve.batches", unit: "count", better: "lower"},
	{name: "serve.batch_size_mean", unit: "count", better: "higher"},
	{name: "serve.batch_size_p95", unit: "count", better: "higher"},
	{name: "serve.rejected", unit: "count", better: "lower"},
	{name: "serve.sim_ps_per_req", unit: "ps", better: "lower"},
	{name: "serve.wait_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.wait_ms_p95", unit: "ms", better: "lower"},
	{name: "backend.batch_ms_p50", unit: "ms", better: "lower"},
	{name: "backend.batch_ms_p95", unit: "ms", better: "lower"},
	{name: "backend.ns_per_req", unit: "ns", better: "lower"},
	{name: "backend.busy_share", unit: "ratio", better: "lower"},
	{name: "fleet.requests", unit: "count", better: "higher"},
	{name: "fleet.failovers", unit: "count", better: "lower"},
	{name: "fleet.unrouteable", unit: "count", better: "lower"},
	{name: "fleet.engine_share_max", unit: "ratio", better: "lower"},
	{name: "fleet.reprograms", unit: "count", better: "higher"},
	{name: "fleet.reprogram_ms_p50", unit: "ms", better: "lower"},
	{name: "fleet.sim_reprogram_visible_ns", unit: "ns", better: "lower"},
	{name: "fleet.sim_reprogram_hidden_ns", unit: "ns", better: "lower"},
	{name: "workloadgen.offered_rps", unit: "1/s", better: "higher"},
	{name: "workloadgen.achieved_rps", unit: "1/s", better: "higher"},
	{name: "workloadgen.late_ms_p95", unit: "ms", better: "lower"},
	{name: "workloadgen.peak_inflight", unit: "count", better: "lower"},
	{name: "workloadgen.lat_p95_ms", unit: "ms", better: "lower"},
	{name: "workloadgen.lat_p99_ms", unit: "ms", better: "lower"},
	{name: "workloadgen.lat_p999_ms", unit: "ms", better: "lower"},
	{name: "host.allocs_per_req", unit: "count", better: "lower"},
	{name: "host.bytes_per_req", unit: "B", better: "lower"},
	{name: "host.gc_cycles", unit: "count", better: "lower"},
	{name: "host.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "host.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "host.ref_kernel_us", unit: "us", better: "lower"},
	{name: "host.speed", unit: "ratio", better: "higher"},
	{name: "bench.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "bench.warmup_s", unit: "s", better: "lower"},
	{name: "bench.oracle_checked", unit: "count", better: "higher"},
}

// cpuMSPerReq is the process CPU of the timed phase per inference, at
// the reference host speed, without what the reference kernel itself used.
func (s spec) cpuMSPerReq(p *phase) float64 {
	cpu := p.host.cpu - p.ref.spent
	return float64(cpu.Nanoseconds()) / 1e6 / float64(p.inferences) * p.ref.speed(s.hostShare)
}

// endToEndValues folds one untraced phase into the end-to-end metrics.
func (s spec) endToEndValues(p *phase, setupS float64) map[string]float64 {
	p50, _ := windowQuantile(p.lat, p.span, 0.50)
	rps := windowRate(p.done, p.span)
	if !s.open {
		p50 *= p.ref.speed(s.hostShare)
		rps /= p.ref.speed(s.hostShare)
	}
	return map[string]float64{
		"setup_s":        setupS,
		"wall_rps":       rps,
		"cpu_ms_per_req": s.cpuMSPerReq(p),
		"lat_p50_ms":     p50,
		"sim_inf_per_s":  1e12 / p.simPS,
		"sim_pj_per_req": p.simPJ,
		"output_rel_err": p.relErr,
	}
}

// exact is the nearest-rank q-quantile of xs (sorted in place).
func exact(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	v, _ := quantile(xs, q)
	return v
}

// ladderValues are the per-layer metrics the ladder gives; rungs the
// workload's path does not reach stay 0.
func ladderValues(l *ladder, m map[string]float64) {
	m["crossbar.program_ms"] = l.programMS
	set := func(rung string, ns, allocs string) {
		if r := l.rung(rung); r != nil {
			if ns != "" {
				m[ns] = r.ns()
			}
			if allocs != "" {
				m[allocs] = r.allocs()
			}
		}
	}
	set("array", "crossbar.array_mvm_ns", "")
	set("tiles", "crossbar.tiles_ns_per_req", "crossbar.tiles_allocs_per_req")
	set("engine", "dpe.infer_ns_per_req", "dpe.allocs_per_req")
	set("vonneumann", "vonneumann.infer_ns_per_req", "")
	set("server", "serve.submit_ns_per_req", "serve.allocs_per_req")
	set("fleet", "fleet.submit_ns_per_req", "fleet.allocs_per_req")
	set("drive", "workloadgen.drive_ns_per_req", "")
	m["dpe.self_ns_per_req"] = l.self("engine", "tiles")
	m["hybrid.self_ns_per_req"] = l.self("dispatcher", "engine")
	m["serve.self_ns_per_req"] = l.self("server", "dispatcher")
	m["fleet.self_ns_per_req"] = l.self("fleet", "server")
	m["workloadgen.self_ns_per_req"] = l.self("drive", "fleet")
	m["dpe.sim_ps_per_req"], m["dpe.sim_pj_per_req"] = l.rung("engine").sim()
}

// phaseValues are the per-layer metrics every traced phase gives: the
// host's counters as they read (not scaled to the reference speed, which
// is reported beside them), the tail — windowed p95 and whole-run p99 and
// p99.9, with their support in the results file, none of them gated — and
// the benchmark's own bookkeeping.
func phaseValues(s spec, untraced, traced *phase, m map[string]float64) {
	n := float64(traced.inferences)
	m["host.allocs_per_req"] = float64(traced.host.mallocs) / n
	m["host.bytes_per_req"] = float64(traced.host.bytes) / n
	m["host.gc_cycles"] = float64(traced.host.gcs)
	m["host.gc_pause_ms"] = float64(traced.host.gcPause.Nanoseconds()) / 1e6
	m["host.peak_rss_mb"] = peakRSSMB()
	m["host.ref_kernel_us"] = traced.ref.kernelNS() / 1e3
	m["host.speed"] = traced.ref.speed(s.hostShare)
	p95, _ := windowQuantile(traced.lat, traced.span, 0.95)
	m["workloadgen.lat_p95_ms"] = finite(p95)
	lats := make([]float64, len(traced.lat))
	for i, s := range traced.lat {
		lats[i] = s.lat
	}
	m["workloadgen.lat_p99_ms"] = finite(exact(lats, 0.99))
	m["workloadgen.lat_p999_ms"] = finite(exact(lats, 0.999))
	m["bench.trace_overhead_share"] = s.cpuMSPerReq(traced)/s.cpuMSPerReq(untraced) - 1
	m["bench.warmup_s"] = traced.warm
	m["bench.oracle_checked"] = float64(traced.checked)
}

// finite maps the +Inf latency of a failed request to the largest float:
// JSON has no infinity, and the run is reported incorrect anyway.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// spanValues are the per-layer metrics of an open-loop traced phase: the
// benchmark's client and backend spans joined by noise key, and the
// fleet's own counters read at the phase's two ends.
func spanValues(s spec, p *phase, flushes []flushSpan, m map[string]float64) {
	x := p.open
	before, after := x.before, x.after
	// Flushes of the warm-up carry warm-up keys and are left out.
	var sizes, durMS []float64
	var busyNS, items float64
	byKey := make(map[uint64]float64, len(x.elems))
	for _, f := range flushes {
		if len(f.seqs) == 0 || f.seqs[0] >= warmKeyBase {
			continue
		}
		d := float64(f.end.Sub(f.start).Nanoseconds())
		sizes = append(sizes, float64(f.n))
		durMS = append(durMS, d/1e6)
		busyNS += d
		items += float64(f.n)
		for _, k := range f.seqs {
			byKey[k] = d / 1e6
		}
	}
	m["serve.batches"] = float64(after.batches - before.batches)
	m["serve.rejected"] = float64(after.rejected - before.rejected)
	m["serve.sim_ps_per_req"] = x.meanSimPS
	if len(sizes) > 0 {
		m["serve.batch_size_mean"] = items / float64(len(sizes))
		m["serve.batch_size_p95"] = exact(sizes, 0.95)
		m["backend.batch_ms_p50"] = exact(durMS, 0.50)
		m["backend.batch_ms_p95"] = exact(durMS, 0.95)
		m["backend.ns_per_req"] = busyNS / items
		m["backend.busy_share"] = busyNS / (float64(p.host.wall.Nanoseconds()) * float64(s.engines))
	}
	// A request's wait is its client latency minus the backend span of the
	// flush that served it: routing, queueing and the batcher's delay.
	var waits []float64
	for i := range x.reqs {
		r := &x.reqs[i]
		for j := 0; j < int(r.batch); j++ {
			e := &x.elems[int(r.first)+j]
			if d, ok := byKey[uint64(i)*maxClassBatch+uint64(j)]; ok && e.done > 0 {
				waits = append(waits, float64((e.done-e.sent).Nanoseconds())/1e6-d)
			}
		}
	}
	if len(waits) > 0 {
		m["serve.wait_ms_p50"] = exact(waits, 0.50)
		m["serve.wait_ms_p95"] = exact(waits, 0.95)
	}

	m["fleet.requests"] = float64(after.requests - before.requests)
	m["fleet.failovers"] = float64(after.failovers - before.failovers)
	m["fleet.unrouteable"] = float64(after.unrouteable - before.unrouteable)
	var routed, most float64
	for i := range after.routed {
		d := float64(after.routed[i] - before.routed[i])
		routed += d
		most = math.Max(most, d)
	}
	if routed > 0 {
		m["fleet.engine_share_max"] = most / routed
	}
	m["fleet.reprograms"] = float64(len(x.reprograms))
	if n := float64(len(x.reprograms)); n > 0 {
		var hostMS []float64
		var vis, hid float64
		for _, rp := range x.reprograms {
			hostMS = append(hostMS, float64(rp.host.Nanoseconds())/1e6)
			vis += float64(rp.visible.LatencyPS) / 1e3
			hid += float64(rp.hidden.LatencyPS) / 1e3
		}
		m["fleet.reprogram_ms_p50"] = exact(hostMS, 0.50)
		m["fleet.sim_reprogram_visible_ns"] = vis / n
		m["fleet.sim_reprogram_hidden_ns"] = hid / n
	}

	m["workloadgen.offered_rps"] = x.offered
	m["workloadgen.achieved_rps"] = x.report.AchievedRPS
	m["workloadgen.late_ms_p95"] = exact(append([]float64(nil), x.lateMS...), 0.95)
	m["workloadgen.peak_inflight"] = float64(x.report.PeakInFlight)
}
