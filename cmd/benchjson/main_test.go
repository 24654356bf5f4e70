package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: cimrev
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkCrossbarMVM/256x256_8b-8         	     646	   1865410 ns/op	    6144 B/op	       3 allocs/op
BenchmarkCrossbarMVM/256x256_8b_func-8    	    1621	    740025 ns/op	       0 B/op	       0 allocs/op
BenchmarkSecVILatency-8                   	      12	  98765432 ns/op
PASS
ok  	cimrev	12.345s
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Metadata["cpu"]; got != "Intel(R) Xeon(R) CPU @ 2.10GHz" {
		t.Errorf("cpu metadata = %q", got)
	}
	if len(doc.Results) != 3 {
		t.Fatalf("parsed %d results, want 3", len(doc.Results))
	}
	r := doc.Results[0]
	if r.Name != "BenchmarkCrossbarMVM/256x256_8b" || r.Procs != 8 {
		t.Errorf("name/procs = %q/%d", r.Name, r.Procs)
	}
	if r.Iterations != 646 || r.NsPerOp != 1865410 || r.BytesPerOp != 6144 || r.AllocsPerOp != 3 {
		t.Errorf("first result fields wrong: %+v", r)
	}
	// Line without -benchmem columns: B/op and allocs/op report absent.
	r = doc.Results[2]
	if r.BytesPerOp != -1 || r.AllocsPerOp != -1 {
		t.Errorf("missing benchmem columns should be -1, got %+v", r)
	}
}

func TestParseIgnoresNonResultLines(t *testing.T) {
	doc, err := Parse(strings.NewReader("BenchmarkBroken\nsome log line\nPASS\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 0 {
		t.Fatalf("expected 0 results, got %d", len(doc.Results))
	}
}

// TestParseExtraMetrics: custom (value, unit) pairs — the
// testing.B.ReportMetric convention cmd/cimserve uses for throughput and
// latency quantiles — land in the Extra map instead of being dropped.
func TestParseExtraMetrics(t *testing.T) {
	in := strings.NewReader(
		"BenchmarkServe/batch_c64-1 2048 812345 ns/op 7890.5 req_per_s 5.12 sim_speedup 1048576 p99_ns\n")
	doc, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(doc.Results))
	}
	r := doc.Results[0]
	if r.Name != "BenchmarkServe/batch_c64" || r.NsPerOp != 812345 {
		t.Errorf("core fields mangled: %+v", r)
	}
	want := map[string]float64{"req_per_s": 7890.5, "sim_speedup": 5.12, "p99_ns": 1048576}
	for k, v := range want {
		if r.Extra[k] != v {
			t.Errorf("Extra[%q] = %g, want %g", k, r.Extra[k], v)
		}
	}
	if r.BytesPerOp != -1 || r.AllocsPerOp != -1 {
		t.Errorf("absent benchmem fields should stay -1: %+v", r)
	}
}

// hybridDoc builds a Document of hybrid sweep/mixed rows: sweep maps cell
// name -> speedup_cim, mixed maps dispatch mode -> sim_req_per_s. A
// negative value omits the metric to exercise the vacuous-pass errors.
func hybridDoc(sweep map[string]float64, mixed map[string]float64) *Document {
	doc := &Document{}
	for name, sp := range sweep {
		res := Result{Name: name, Iterations: 1}
		if sp >= 0 {
			res.Extra = map[string]float64{"speedup_cim": sp}
		}
		doc.Results = append(doc.Results, res)
	}
	for mode, rps := range mixed {
		res := Result{Name: "BenchmarkHybridMixed/dispatch=" + mode, Iterations: 1}
		if rps >= 0 {
			res.Extra = map[string]float64{"sim_req_per_s": rps}
		}
		doc.Results = append(doc.Results, res)
	}
	return doc
}

// TestGateHybrid pins the `make bench-hybrid` acceptance gate: the sweep
// must show cells on both sides of the crossover, all three mixed rows
// must be present with throughput metrics, and auto must at least match
// the best single backend. Missing rows or metrics fail rather than pass
// vacuously.
func TestGateHybrid(t *testing.T) {
	sweep := map[string]float64{
		"BenchmarkHybridSweep/size=16/batch=1":   0.01,
		"BenchmarkHybridSweep/size=512/batch=64": 2.5,
	}
	ok := hybridDoc(sweep, map[string]float64{"cim": 1000, "vn": 5000, "auto": 6000})
	if err := GateHybrid(ok); err != nil {
		t.Errorf("passing sweep gated: %v", err)
	}
	tie := hybridDoc(sweep, map[string]float64{"cim": 1000, "vn": 5000, "auto": 5000})
	if err := GateHybrid(tie); err != nil {
		t.Errorf("auto == best single backend gated: %v", err)
	}
	lost := hybridDoc(sweep, map[string]float64{"cim": 1000, "vn": 5000, "auto": 4999})
	if err := GateHybrid(lost); err == nil {
		t.Error("auto losing to the best single backend passed")
	}
	oneSided := hybridDoc(map[string]float64{
		"BenchmarkHybridSweep/size=256/batch=8":  3.0,
		"BenchmarkHybridSweep/size=512/batch=64": 2.5,
	}, map[string]float64{"cim": 1000, "vn": 500, "auto": 1000})
	if err := GateHybrid(oneSided); err == nil {
		t.Error("one-sided sweep (no crossover) passed")
	}
	missingMode := hybridDoc(sweep, map[string]float64{"cim": 1000, "auto": 5000})
	if err := GateHybrid(missingMode); err == nil {
		t.Error("missing vn row passed")
	}
	missingMetric := hybridDoc(sweep, map[string]float64{"cim": 1000, "vn": -1, "auto": 5000})
	if err := GateHybrid(missingMetric); err == nil {
		t.Error("mixed row without sim_req_per_s passed")
	}
	noMetricCell := hybridDoc(map[string]float64{
		"BenchmarkHybridSweep/size=16/batch=1": -1,
	}, map[string]float64{"cim": 1000, "vn": 5000, "auto": 5000})
	if err := GateHybrid(noMetricCell); err == nil {
		t.Error("sweep cell without speedup_cim passed")
	}
}

// chaosCell is one BenchmarkChaos row for chaosDoc. A negative field omits
// that metric to exercise the vacuous-pass errors.
type chaosCell struct {
	lost, bit, p99 float64
}

func chaosDoc(cells map[string]chaosCell) *Document {
	doc := &Document{}
	for name, c := range cells {
		res := Result{Name: name, Iterations: 1, Extra: map[string]float64{}}
		if c.lost >= 0 {
			res.Extra["lost"] = c.lost
		}
		if c.bit >= 0 {
			res.Extra["bit_identical"] = c.bit
		}
		if c.p99 >= 0 {
			res.Extra["wall_p99_ns"] = c.p99
		}
		doc.Results = append(doc.Results, res)
	}
	return doc
}

// TestGateChaos pins the `make bench-chaos` acceptance gate: zero lost
// keyed requests and bit identity in every cell, overload p99 within 10x
// the fault-free baseline per hedging flag, and no vacuous passes when
// cells or metrics are missing.
func TestGateChaos(t *testing.T) {
	good := func() map[string]chaosCell {
		return map[string]chaosCell{
			"BenchmarkChaos/scenario=none/hedged=off":      {0, 1, 1e6},
			"BenchmarkChaos/scenario=none/hedged=on":       {0, 1, 1.2e6},
			"BenchmarkChaos/scenario=straggler/hedged=off": {0, 1, 30e6},
			"BenchmarkChaos/scenario=straggler/hedged=on":  {0, 1, 5e6},
			"BenchmarkChaos/scenario=crash/hedged=off":     {0, 1, 3e6},
			"BenchmarkChaos/scenario=crash/hedged=on":      {0, 1, 3e6},
			"BenchmarkChaos/scenario=overload/hedged=off":  {0, 1, 8e6},
			"BenchmarkChaos/scenario=overload/hedged=on":   {0, 1, 9e6},
		}
	}
	if err := GateChaos(chaosDoc(good())); err != nil {
		t.Errorf("passing sweep gated: %v", err)
	}

	lost := good()
	lost["BenchmarkChaos/scenario=crash/hedged=off"] = chaosCell{2, 1, 3e6}
	if err := GateChaos(chaosDoc(lost)); err == nil {
		t.Error("sweep with lost keyed requests passed")
	}

	bits := good()
	bits["BenchmarkChaos/scenario=straggler/hedged=on"] = chaosCell{0, 0, 5e6}
	if err := GateChaos(chaosDoc(bits)); err == nil {
		t.Error("sweep with non-bit-identical outputs passed")
	}

	slow := good()
	slow["BenchmarkChaos/scenario=overload/hedged=off"] = chaosCell{0, 1, 11e6}
	if err := GateChaos(chaosDoc(slow)); err == nil {
		t.Error("overload p99 above 10x baseline passed")
	}

	noLost := good()
	noLost["BenchmarkChaos/scenario=crash/hedged=off"] = chaosCell{-1, 1, 3e6}
	if err := GateChaos(chaosDoc(noLost)); err == nil {
		t.Error("cell without a lost metric passed")
	}

	noBit := good()
	noBit["BenchmarkChaos/scenario=crash/hedged=off"] = chaosCell{0, -1, 3e6}
	if err := GateChaos(chaosDoc(noBit)); err == nil {
		t.Error("cell without a bit_identical metric passed")
	}

	noP99 := good()
	noP99["BenchmarkChaos/scenario=overload/hedged=off"] = chaosCell{0, 1, -1}
	if err := GateChaos(chaosDoc(noP99)); err == nil {
		t.Error("cell without a wall_p99_ns metric passed")
	}

	if err := GateChaos(chaosDoc(map[string]chaosCell{
		"BenchmarkHybridSweep/size=16/batch=1": {0, 1, 1e6},
	})); err == nil {
		t.Error("gate passed vacuously with no chaos cells")
	}

	if err := GateChaos(chaosDoc(map[string]chaosCell{
		"BenchmarkChaos/scenario=straggler/hedged=off": {0, 1, 30e6},
		"BenchmarkChaos/scenario=straggler/hedged=on":  {0, 1, 5e6},
	})); err == nil {
		t.Error("gate passed without a (none, overload) p99 pair")
	}
}

// capCell is one capacity-grid cell for gate tests: p99 ns/op plus the
// pass/shed/lost bits. A metric set to -1 is omitted from the Extra map.
type capCell struct {
	p99, pass, shed, lost, slo float64
}

// capDoc builds a parsed document from capacity cells and rated rows.
func capDoc(cells map[string]capCell, rated map[string]float64) *Document {
	doc := &Document{}
	for name, c := range cells {
		res := Result{Name: name, NsPerOp: c.p99, Extra: map[string]float64{}}
		for metric, v := range map[string]float64{
			"pass": c.pass, "shed": c.shed, "lost": c.lost, "slo_ns": c.slo,
		} {
			if v != -1 {
				res.Extra[metric] = v
			}
		}
		doc.Results = append(doc.Results, res)
	}
	for name, rps := range rated {
		doc.Results = append(doc.Results, Result{
			Name:  name,
			Extra: map[string]float64{"rated_rps": rps},
		})
	}
	return doc
}

// TestGateCapacity pins the `make bench-capacity` acceptance gate: honest
// pass bits, a monotone passing prefix per engine count, rated = top of
// the prefix, and no vacuous passes when cells, metrics, or rated rows
// are missing.
func TestGateCapacity(t *testing.T) {
	const slo = 25e6
	good := func() map[string]capCell {
		return map[string]capCell{
			"BenchmarkCapacity/engines=1/rate=1000":  {2e6, 1, 0, 0, slo},
			"BenchmarkCapacity/engines=1/rate=4000":  {4e6, 1, 0, 0, slo},
			"BenchmarkCapacity/engines=1/rate=64000": {40e6, 0, 120, 0, slo},
			"BenchmarkCapacity/engines=2/rate=1000":  {2e6, 1, 0, 0, slo},
			"BenchmarkCapacity/engines=2/rate=4000":  {3e6, 1, 0, 0, slo},
			"BenchmarkCapacity/engines=2/rate=64000": {38e6, 0, 80, 0, slo},
		}
	}
	goodRated := func() map[string]float64 {
		return map[string]float64{
			"BenchmarkCapacityRated/engines=1": 4000,
			"BenchmarkCapacityRated/engines=2": 4000,
		}
	}
	if err := GateCapacity(capDoc(good(), goodRated())); err != nil {
		t.Errorf("passing sweep gated: %v", err)
	}

	dishonest := good()
	dishonest["BenchmarkCapacity/engines=1/rate=4000"] = capCell{4e6, 1, 3, 0, slo}
	if err := GateCapacity(capDoc(dishonest, goodRated())); err == nil {
		t.Error("cell claiming pass while shedding passed the gate")
	}

	lossy := good()
	lossy["BenchmarkCapacity/engines=1/rate=4000"] = capCell{4e6, 1, 0, 2, slo}
	if err := GateCapacity(capDoc(lossy, goodRated())); err == nil {
		t.Error("cell claiming pass with lost requests passed the gate")
	}

	lateButPass := good()
	lateButPass["BenchmarkCapacity/engines=2/rate=4000"] = capCell{30e6, 1, 0, 0, slo}
	if err := GateCapacity(capDoc(lateButPass, goodRated())); err == nil {
		t.Error("cell claiming pass above the SLO passed the gate")
	}

	hole := good()
	hole["BenchmarkCapacity/engines=1/rate=1000"] = capCell{30e6, 0, 10, 0, slo}
	if err := GateCapacity(capDoc(hole, goodRated())); err == nil {
		t.Error("non-monotone grid (fail below a pass) passed the gate")
	}

	wrongRated := goodRated()
	wrongRated["BenchmarkCapacityRated/engines=2"] = 1000
	if err := GateCapacity(capDoc(good(), wrongRated)); err == nil {
		t.Error("rated row below the passing prefix top passed the gate")
	}

	noRated := goodRated()
	delete(noRated, "BenchmarkCapacityRated/engines=2")
	if err := GateCapacity(capDoc(good(), noRated)); err == nil {
		t.Error("engine count without a rated row passed the gate")
	}

	noPass := good()
	noPass["BenchmarkCapacity/engines=1/rate=1000"] = capCell{30e6, 0, 10, 0, slo}
	noPass["BenchmarkCapacity/engines=1/rate=4000"] = capCell{30e6, 0, 10, 0, slo}
	if err := GateCapacity(capDoc(noPass, goodRated())); err == nil {
		t.Error("engine count with no passing rate passed the gate")
	}

	noMetric := good()
	noMetric["BenchmarkCapacity/engines=1/rate=4000"] = capCell{4e6, 1, -1, 0, slo}
	if err := GateCapacity(capDoc(noMetric, goodRated())); err == nil {
		t.Error("cell without a shed metric passed the gate")
	}

	orphanRated := goodRated()
	orphanRated["BenchmarkCapacityRated/engines=8"] = 4000
	if err := GateCapacity(capDoc(good(), orphanRated)); err == nil {
		t.Error("rated row without grid cells passed the gate")
	}

	if err := GateCapacity(capDoc(map[string]capCell{}, map[string]float64{})); err == nil {
		t.Error("gate passed vacuously with no capacity cells")
	}
}
