package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// declared is the part of BENCHMARK.json compare reads: the bound and
// direction of every end-to-end metric.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(path string) (*declared, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, the quartiles taken as Python's
// statistics.quantiles(values, n=4) takes them — the spread the driver
// uses. It is 0 for fewer than two values.
func quartileSpread(values []float64) float64 {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	ld := len(xs)
	if ld < 2 {
		return 0
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// verdict is one (workload, metric) row of the comparison.
type verdict struct {
	workload, metric, unit string
	oldMed, newMed         float64
	oldN, newN             int
	worse, spread, bound   float64
	status                 string
}

const (
	statusOK         = "ok"
	statusUnresolved = "unresolved"
	statusRegression = "REGRESSION"
)

// judge compares the runs of one metric on one workload. worse is the
// share of the old median by which the new median is worse (negative:
// better). When either side's run-to-run spread exceeds the bound the
// medians cannot be told apart at that resolution, and the pair is
// unresolved unless every new run is on one side of every old run.
func judge(old, new []float64, better string, bound float64) (worse, spread float64, status string) {
	om, nm := median(old), median(new)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	if om != 0 {
		worse = sign * (nm - om) / om
	}
	spread = quartileSpread(old)
	if s := quartileSpread(new); s > spread {
		spread = s
	}
	allBetter, allWorse := true, true
	for _, o := range old {
		for _, n := range new {
			if sign*(n-o) >= 0 {
				allBetter = false
			}
			if sign*(n-o) <= 0 {
				allWorse = false
			}
		}
	}
	switch {
	case spread > bound && !allBetter && !(allWorse && worse > bound):
		return worse, spread, statusUnresolved
	case worse > bound:
		return worse, spread, statusRegression
	}
	return worse, spread, statusOK
}

// compare builds the verdicts of two results files and lists the
// (workload, seed) pairs whose output digests differ.
func compare(d *declared, old, new *resultsFile) (rows []verdict, digests []string) {
	group := func(rf *resultsFile) (map[string]map[string][]float64, map[string]string) {
		vals := map[string]map[string][]float64{}
		dig := map[string]string{}
		for _, r := range rf.Runs {
			if r.Trace != 0 {
				continue
			}
			if vals[r.Workload] == nil {
				vals[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
			}
			dig[fmt.Sprintf("%s seed=%d seconds=%g", r.Workload, r.Seed, r.Seconds)] = r.Digest
		}
		return vals, dig
	}
	ov, od := group(old)
	nv, nd := group(new)
	for _, w := range d.Workloads {
		for _, m := range d.EndToEnd {
			o, n := ov[w.Name][m.Name], nv[w.Name][m.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			v := verdict{workload: w.Name, metric: m.Name, unit: m.Unit, oldN: len(o), newN: len(n), bound: m.Bound}
			v.oldMed, v.newMed = median(o), median(n)
			v.worse, v.spread, v.status = judge(o, n, m.Better, m.Bound)
			rows = append(rows, v)
		}
	}
	for key, dg := range od {
		if other, ok := nd[key]; ok && other != dg {
			digests = append(digests, fmt.Sprintf("%s: %s -> %s", key, dg, other))
		}
	}
	sort.Strings(digests)
	return rows, digests
}

// compareMain is `benchmark compare old.json new.json`: one row per
// (workload, end-to-end metric), exit status 1 on a regression or a
// changed output digest.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	decl := fs.String("declared", "BENCHMARK.json", "the benchmark declaration holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchmark compare [-declared BENCHMARK.json] old.json new.json")
	}
	d, err := readDeclared(*decl)
	if err != nil {
		return err
	}
	old, err := readResults(fs.Arg(0))
	if err != nil {
		return err
	}
	new, err := readResults(fs.Arg(1))
	if err != nil {
		return err
	}
	rows, digests := compare(d, old, new)
	fmt.Printf("%-20s %-15s %14s %14s %-6s %18s %8s %7s %6s  %s\n",
		"workload", "metric", "old median", "new median", "unit", "new/old", "worse", "spread", "bound", "status")
	bad := 0
	for _, v := range rows {
		ratio := "n/a"
		if v.oldMed != 0 {
			ratio = fmt.Sprintf("%.4f of %.4g", v.newMed/v.oldMed, v.oldMed)
		}
		fmt.Printf("%-20s %-15s %14.6g %14.6g %-6s %18s %+7.1f%% %6.1f%% %5.0f%%  %s (n=%d/%d)\n",
			v.workload, v.metric, v.oldMed, v.newMed, v.unit, ratio, v.worse*100, v.spread*100, v.bound*100, v.status, v.oldN, v.newN)
		if v.status == statusRegression {
			bad++
		}
	}
	for _, dg := range digests {
		fmt.Println("output_digest changed:", dg)
	}
	if bad > 0 || len(digests) > 0 {
		return fmt.Errorf("%d regressions, %d changed output digests", bad, len(digests))
	}
	return nil
}
