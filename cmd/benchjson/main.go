// Command benchjson converts `go test -bench` text output into a JSON
// document, so benchmark results can be archived and diffed by machines
// instead of eyeballed in terminal scrollback.
//
// Usage:
//
//	go test -bench 'BenchmarkCrossbarMVM' -benchmem . | go run ./cmd/benchjson > BENCH_mvm.json
//	go run ./cmd/benchjson -in bench.txt -out BENCH_mvm.json
//
// The parser understands the standard benchmark result line
//
//	BenchmarkCrossbarMVM/256x256_8b-8   646   1865410 ns/op   6144 B/op   3 allocs/op
//
// plus the `goos:`/`goarch:`/`pkg:`/`cpu:` header lines, which are carried
// into the JSON as metadata. Non-benchmark lines (PASS, ok, test logs) are
// ignored, so the raw `go test` stream can be piped in unfiltered.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the full benchmark name with the -P GOMAXPROCS suffix
	// stripped, e.g. "BenchmarkCrossbarMVM/256x256_8b".
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix (the "-8" in "...-8"), 1 if absent.
	Procs int `json:"procs"`
	// Iterations is b.N for the measured run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present only with -benchmem;
	// they are -1 when the input line lacked them.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Extra carries custom (value, unit) pairs beyond the standard three
	// — testing.B.ReportMetric emits these, and cmd/cimserve uses them
	// for req_per_s, sim_speedup, and the p50/p95/p99 latency quantiles.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Document is the emitted JSON shape.
type Document struct {
	GeneratedAt string            `json:"generated_at"`
	Metadata    map[string]string `json:"metadata,omitempty"`
	Results     []Result          `json:"results"`
}

func main() {
	in := flag.String("in", "", "input file (default stdin)")
	out := flag.String("out", "", "output file (default stdout)")
	gateHybrid := flag.Bool("gate-hybrid", false,
		"fail unless the hybrid sweep shows a measured crossover and auto dispatch at least matches the best single backend")
	gateChaos := flag.Bool("gate-chaos", false,
		"fail unless the chaos sweep lost zero keyed requests, stayed bit-identical, and kept overload p99 within 10x the fault-free baseline")
	gateCapacity := flag.Bool("gate-capacity", false,
		"fail unless the capacity sweep's pass/fail grid is a monotone prefix per engine count and every rated capacity passes its SLO with zero lost requests")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}

	doc, err := Parse(r)
	if err != nil {
		fatal(err)
	}
	if len(doc.Results) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found in input"))
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
	// Gate after writing: a failing sweep still leaves the JSON artifact
	// on disk, so the offending numbers can be inspected.
	if *gateHybrid {
		if err := GateHybrid(doc); err != nil {
			fatal(err)
		}
	}
	if *gateChaos {
		if err := GateChaos(doc); err != nil {
			fatal(err)
		}
	}
	if *gateCapacity {
		if err := GateCapacity(doc); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// GateHybrid enforces the hybrid-dispatch acceptance criteria on a
// cimbench -exp hybrid sweep (make bench-hybrid). Two things must hold:
//
//   - The crossover is measured, not asserted: among the
//     BenchmarkHybridSweep cells there is at least one with speedup_cim
//     below 1 (the Von Neumann twin wins) and at least one above 1 (the
//     crossbar wins). A grid that lands entirely on one side means the
//     dispatch decision is degenerate and the sweep proves nothing.
//   - Auto dispatch pays for itself: the BenchmarkHybridMixed rows for
//     all three modes are present with sim_req_per_s, and auto's
//     throughput is at least the best single backend's.
//
// Missing rows or metrics are errors — the gate must not pass vacuously.
func GateHybrid(doc *Document) error {
	var below, above int
	for _, res := range doc.Results {
		if !strings.HasPrefix(res.Name, "BenchmarkHybridSweep/") {
			continue
		}
		sp, ok := res.Extra["speedup_cim"]
		if !ok {
			return fmt.Errorf("gate-hybrid: %s has no speedup_cim metric", res.Name)
		}
		if sp < 1 {
			below++
		}
		if sp > 1 {
			above++
		}
	}
	if below == 0 || above == 0 {
		return fmt.Errorf("gate-hybrid: no measured crossover (%d cells favor VN, %d favor CIM; need both)", below, above)
	}
	mixed := map[string]float64{}
	for _, res := range doc.Results {
		mode, ok := strings.CutPrefix(res.Name, "BenchmarkHybridMixed/dispatch=")
		if !ok {
			continue
		}
		rps, ok := res.Extra["sim_req_per_s"]
		if !ok {
			return fmt.Errorf("gate-hybrid: %s has no sim_req_per_s metric", res.Name)
		}
		mixed[mode] = rps
	}
	for _, mode := range []string{"cim", "vn", "auto"} {
		if _, ok := mixed[mode]; !ok {
			return fmt.Errorf("gate-hybrid: missing BenchmarkHybridMixed/dispatch=%s result", mode)
		}
	}
	best := mixed["cim"]
	if mixed["vn"] > best {
		best = mixed["vn"]
	}
	if mixed["auto"] < best {
		return fmt.Errorf("gate-hybrid: auto dispatch %.0f req/s lost to best single backend %.0f req/s", mixed["auto"], best)
	}
	return nil
}

// GateChaos enforces the chaos-harness SLOs on a cimbench -exp chaos sweep
// (make bench-chaos). Three things must hold:
//
//   - Zero lost keyed requests: every BenchmarkChaos cell carries a "lost"
//     metric and it is 0. Chaos may cost latency, or shed under overload,
//     but a keyed request must never fail outright — hedging and typed
//     failover exist precisely so that a crashed or stalled engine's
//     requests land somewhere else.
//   - Bit identity: every cell's "bit_identical" metric is 1 — injected
//     faults perturb timing and availability, never answers.
//   - Bounded overload tail: for each hedging flag, the overload cell's
//     wall p99 is at most 10x the fault-free baseline cell's ("none",
//     same flag). Adaptive shedding is supposed to buy exactly this:
//     excess load is refused, admitted requests keep their latency.
//
// Missing cells or metrics are errors — the gate must not pass vacuously.
func GateChaos(doc *Document) error {
	checked := 0
	p99 := map[string]float64{} // "scenario/hedged" -> wall p99
	for _, res := range doc.Results {
		rest, ok := strings.CutPrefix(res.Name, "BenchmarkChaos/scenario=")
		if !ok {
			continue
		}
		checked++
		lost, ok := res.Extra["lost"]
		if !ok {
			return fmt.Errorf("gate-chaos: %s has no lost metric", res.Name)
		}
		if lost != 0 {
			return fmt.Errorf("gate-chaos: %s lost %.0f keyed requests, want 0", res.Name, lost)
		}
		bit, ok := res.Extra["bit_identical"]
		if !ok {
			return fmt.Errorf("gate-chaos: %s has no bit_identical metric", res.Name)
		}
		if bit != 1 {
			return fmt.Errorf("gate-chaos: %s is not bit-identical to the fault-free oracle", res.Name)
		}
		scenario, hedged, ok := strings.Cut(rest, "/hedged=")
		if !ok {
			return fmt.Errorf("gate-chaos: %s does not name a hedged flag", res.Name)
		}
		wp99, ok := res.Extra["wall_p99_ns"]
		if !ok {
			return fmt.Errorf("gate-chaos: %s has no wall_p99_ns metric", res.Name)
		}
		p99[scenario+"/"+hedged] = wp99
	}
	if checked == 0 {
		return fmt.Errorf("gate-chaos: no BenchmarkChaos results to check")
	}
	pairs := 0
	for _, hedged := range []string{"off", "on"} {
		base, okBase := p99["none/"+hedged]
		over, okOver := p99["overload/"+hedged]
		if !okBase || !okOver {
			continue
		}
		pairs++
		if base <= 0 {
			return fmt.Errorf("gate-chaos: baseline (hedged=%s) p99 is %.0f ns", hedged, base)
		}
		if over > 10*base {
			return fmt.Errorf("gate-chaos: overload p99 %.0f ns > 10x fault-free baseline %.0f ns (hedged=%s)",
				over, base, hedged)
		}
	}
	if pairs == 0 {
		return fmt.Errorf("gate-chaos: no (none, overload) cell pair to compare p99 against")
	}
	return nil
}

// GateCapacity enforces the capacity-planning acceptance criteria on a
// cimbench -exp capacity sweep (make bench-capacity). Three things must
// hold, per engine count (docs/CAPACITY.md):
//
//   - Honest cells: a BenchmarkCapacity cell may claim pass only when it
//     shed nothing, lost nothing, and its p99 (ns/op) beat the SLO. A
//     grid whose pass bits disagree with its own numbers is reporting a
//     rated capacity it did not measure.
//   - Monotone knee: the passing cells form a prefix of the ascending
//     rate ladder — every rate below a passing rate also passes. A hole
//     in the prefix means the knee is noise, not capacity, and the rated
//     number above it is not reproducible.
//   - Rated = top of the prefix: the BenchmarkCapacityRated row for each
//     engine count names exactly the highest passing rate, and at least
//     one rate passed — a fleet that cannot serve the bottom rung of the
//     ladder has no rated capacity to report.
//
// Missing cells, metrics, or rated rows are errors — the gate must not
// pass vacuously.
func GateCapacity(doc *Document) error {
	type cell struct {
		rate float64
		pass bool
	}
	cells := map[int][]cell{} // engines -> ladder in input order (ascending)
	rated := map[int]float64{}
	for _, res := range doc.Results {
		if rest, ok := strings.CutPrefix(res.Name, "BenchmarkCapacity/engines="); ok {
			eng, rateStr, ok := strings.Cut(rest, "/rate=")
			if !ok {
				return fmt.Errorf("gate-capacity: %s names no rate", res.Name)
			}
			k, err := strconv.Atoi(eng)
			if err != nil {
				return fmt.Errorf("gate-capacity: %s: bad engine count: %v", res.Name, err)
			}
			rate, err := strconv.ParseFloat(rateStr, 64)
			if err != nil {
				return fmt.Errorf("gate-capacity: %s: bad rate: %v", res.Name, err)
			}
			need := map[string]float64{}
			for _, metric := range []string{"pass", "shed", "lost", "slo_ns"} {
				v, ok := res.Extra[metric]
				if !ok {
					return fmt.Errorf("gate-capacity: %s has no %s metric", res.Name, metric)
				}
				need[metric] = v
			}
			honest := need["shed"] == 0 && need["lost"] == 0 && res.NsPerOp < need["slo_ns"]
			if need["pass"] == 1 && !honest {
				return fmt.Errorf("gate-capacity: %s claims pass with shed=%.0f lost=%.0f p99=%.0f ns (SLO %.0f ns)",
					res.Name, need["shed"], need["lost"], res.NsPerOp, need["slo_ns"])
			}
			cells[k] = append(cells[k], cell{rate: rate, pass: need["pass"] == 1})
			continue
		}
		if rest, ok := strings.CutPrefix(res.Name, "BenchmarkCapacityRated/engines="); ok {
			k, err := strconv.Atoi(rest)
			if err != nil {
				return fmt.Errorf("gate-capacity: %s: bad engine count: %v", res.Name, err)
			}
			v, ok := res.Extra["rated_rps"]
			if !ok {
				return fmt.Errorf("gate-capacity: %s has no rated_rps metric", res.Name)
			}
			rated[k] = v
		}
	}
	if len(cells) == 0 {
		return fmt.Errorf("gate-capacity: no BenchmarkCapacity results to check")
	}
	for k, ladder := range cells {
		sort.Slice(ladder, func(i, j int) bool { return ladder[i].rate < ladder[j].rate })
		top, failed := 0.0, false
		for _, c := range ladder {
			switch {
			case c.pass && failed:
				return fmt.Errorf("gate-capacity: engines=%d passes at %g rps after failing at a lower rate — the knee is not monotone", k, c.rate)
			case c.pass:
				top = c.rate
			default:
				failed = true
			}
		}
		if top == 0 {
			return fmt.Errorf("gate-capacity: engines=%d passes at no rate on the ladder", k)
		}
		r, ok := rated[k]
		if !ok {
			return fmt.Errorf("gate-capacity: engines=%d has no BenchmarkCapacityRated row", k)
		}
		if r != top {
			return fmt.Errorf("gate-capacity: engines=%d rated %g rps, but the passing prefix tops out at %g rps", k, r, top)
		}
	}
	for k := range rated {
		if _, ok := cells[k]; !ok {
			return fmt.Errorf("gate-capacity: engines=%d has a rated row but no grid cells", k)
		}
	}
	return nil
}

// Parse reads `go test -bench` text output and returns the structured
// document. It never fails on unrecognized lines — only on I/O errors or
// malformed numbers inside a line that is definitely a benchmark result.
func Parse(r io.Reader) (*Document, error) {
	doc := &Document{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Metadata:    map[string]string{},
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"),
			strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"),
			strings.HasPrefix(line, "cpu:"):
			key, val, _ := strings.Cut(line, ":")
			doc.Metadata[key] = strings.TrimSpace(val)
		case strings.HasPrefix(line, "Benchmark"):
			res, ok, err := parseLine(line)
			if err != nil {
				return nil, fmt.Errorf("parse %q: %w", line, err)
			}
			if ok {
				doc.Results = append(doc.Results, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return doc, nil
}

// parseLine parses one benchmark result line. ok is false for lines that
// start with "Benchmark" but are not result lines (e.g. a bare benchmark
// name echoed by -v).
func parseLine(line string) (Result, bool, error) {
	fields := strings.Fields(line)
	// Minimum: name, iterations, value, "ns/op".
	if len(fields) < 4 {
		return Result{}, false, nil
	}
	res := Result{Name: fields[0], Procs: 1, BytesPerOp: -1, AllocsPerOp: -1}
	if i := strings.LastIndex(res.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(res.Name[i+1:]); err == nil {
			res.Procs = p
			res.Name = res.Name[:i]
		}
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false, nil // "BenchmarkFoo" + prose, not a result line
	}
	res.Iterations = n

	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Result{}, false, err
			}
			res.NsPerOp = v
		case "B/op":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Result{}, false, err
			}
			res.BytesPerOp = v
		case "allocs/op":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Result{}, false, err
			}
			res.AllocsPerOp = v
		default:
			// Custom metric (testing.B.ReportMetric style): keep it if the
			// value parses; otherwise skip the pair rather than failing
			// the line.
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				continue
			}
			if res.Extra == nil {
				res.Extra = map[string]float64{}
			}
			res.Extra[unit] = v
		}
	}
	if res.NsPerOp == 0 && !strings.Contains(line, "ns/op") {
		return Result{}, false, nil
	}
	return res, true, nil
}
