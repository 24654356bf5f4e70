package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,3")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("parseInts = %v", got)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Error("bad int accepted")
	}
}

func TestParseParams(t *testing.T) {
	p, err := parseParams("64", "1,2", "1,4", "1000, 2000.5", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.rates) != 2 || p.rates[1] != 2000.5 || p.slo != 10*time.Millisecond {
		t.Errorf("parseParams = %+v", p)
	}
	if _, err := parseParams("bad", "1", "1", "", 0); err == nil {
		t.Error("bad sizes accepted")
	}
	if _, err := parseParams("64", "bad", "1", "", 0); err == nil {
		t.Error("bad boards accepted")
	}
	if _, err := parseParams("64", "1", "bad", "", 0); err == nil {
		t.Error("bad engines accepted")
	}
	if _, err := parseParams("64", "1", "1", "bad", 0); err == nil {
		t.Error("bad rates accepted")
	}
}

// TestRegistryShape: the registry is the single source of truth — every
// row has a unique name and a runner, and the derived vocabulary covers
// it.
func TestRegistryShape(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range registry {
		if e.name == "" || e.run == nil {
			t.Fatalf("registry row missing name or runner: %+v", e)
		}
		if seen[e.name] {
			t.Fatalf("duplicate experiment %q", e.name)
		}
		seen[e.name] = true
	}
	for _, want := range []string{"fig2", "fault", "hybrid", "fleet", "chaos", "capacity"} {
		if !seen[want] {
			t.Errorf("registry lost experiment %q", want)
		}
	}
	names := strings.Join(expNames(), ",")
	if !strings.HasPrefix(names, "all,") || !strings.Contains(names, "capacity") {
		t.Errorf("expNames() = %s", names)
	}
}

// smallParams keeps the flag-sized sweeps (secvi, scale) cheap.
var smallParams = params{sizes: []int{64}, boards: []int{1}, engines: []int{1}}

// TestRunSelectionErrors: unknown experiments and unknown formats fail
// with error text derived from the table. The bench-line text format is
// gone: "bench" is as unknown as "csv".
func TestRunSelectionErrors(t *testing.T) {
	err := run(io.Discard, "bogus", "text", smallParams)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, want := range []string{"all", "fig2", "capacity"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-experiment error does not name %q: %v", want, err)
		}
	}
	for _, format := range []string{"csv", "bench"} {
		if err := run(io.Discard, "fig2", format, smallParams); err == nil || !strings.Contains(err.Error(), "text or json") {
			t.Errorf("-format %s error = %v", format, err)
		}
	}
}

func TestRunSingleExperiments(t *testing.T) {
	// The cheap experiments run end to end.
	for _, exp := range []string{"fig2", "table1", "table2"} {
		var out bytes.Buffer
		if err := run(&out, exp, "text", smallParams); err != nil {
			t.Errorf("run(%s): %v", exp, err)
		}
		if out.Len() == 0 {
			t.Errorf("run(%s) wrote nothing", exp)
		}
	}
}

func TestRunSecVISmall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := run(io.Discard, "secvi", "text", params{sizes: []int{64, 128}, boards: []int{1}, engines: []int{1}}); err != nil {
		t.Errorf("run(secvi): %v", err)
	}
	if err := run(io.Discard, "scale", "text", params{sizes: []int{64}, boards: []int{1, 2}, engines: []int{1}}); err != nil {
		t.Errorf("run(scale): %v", err)
	}
}

// TestRunJSONEveryRow: -format json needs no per-result code, so every
// row -exp all covers (the solo rows are wall-clock sweeps of the same
// kind of struct) is exactly one valid JSON document naming its
// experiment, and the hybrid row's gate passes in this format too.
func TestRunJSONEveryRow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every deterministic experiment; skipped in -short")
	}
	for _, e := range registry {
		if e.solo {
			continue
		}
		var out bytes.Buffer
		if err := run(&out, e.name, "json", smallParams); err != nil {
			t.Errorf("run(%s, json): %v", e.name, err)
			continue
		}
		dec := json.NewDecoder(&out)
		var doc struct {
			Experiment  string          `json:"experiment"`
			GeneratedAt string          `json:"generated_at"`
			Result      json.RawMessage `json:"result"`
		}
		if err := dec.Decode(&doc); err != nil {
			t.Errorf("%s: output is not JSON: %v", e.name, err)
			continue
		}
		if doc.Experiment != e.name || doc.GeneratedAt == "" || len(doc.Result) < 3 {
			t.Errorf("%s: envelope = {%q, %q, %d result bytes}", e.name, doc.Experiment, doc.GeneratedAt, len(doc.Result))
		}
		if dec.More() {
			t.Errorf("%s: more than one JSON document", e.name)
		}
	}
}

// TestArchivesReproduce: the archived results that are simulated cost only
// reproduce value for value — BENCH_hybrid.json and BENCH_fault.json whole,
// and the round-robin rows of BENCH_fleet.json, whose routing is a function
// of each request's sequence number (the load-aware policies route on live
// load, so their rows follow host scheduling). What must reproduce is what
// `cimbench -exp <x> -format json` prints now; a change that moves a
// simulated number fails here until `make bench-<x>` re-archives it.
func TestArchivesReproduce(t *testing.T) {
	result := func(r io.Reader) (any, error) {
		var doc struct {
			Result any `json:"result"`
		}
		err := json.NewDecoder(r).Decode(&doc)
		return doc.Result, err
	}
	whole := func(res any) any { return res }
	roundRobin := func(res any) any {
		var rows []any
		if m, ok := res.(map[string]any); ok {
			all, _ := m["Rows"].([]any)
			for _, row := range all {
				if r, ok := row.(map[string]any); ok && r["Policy"] == "round-robin" {
					rows = append(rows, row)
				}
			}
		}
		return rows
	}
	for _, tc := range []struct {
		exp  string
		p    params
		keep func(any) any
	}{
		{"hybrid", smallParams, whole},
		{"fault", smallParams, whole},
		{"fleet", params{engines: []int{1, 2, 4, 8}}, roundRobin},
	} {
		var out bytes.Buffer
		if err := run(&out, tc.exp, "json", tc.p); err != nil {
			t.Fatalf("run(%s, json): %v", tc.exp, err)
		}
		got, err := result(&out)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(filepath.Join("..", "..", "BENCH_"+tc.exp+".json"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := result(f)
		f.Close()
		if err != nil {
			t.Fatalf("BENCH_%s.json: %v", tc.exp, err)
		}
		if kept := tc.keep(want); kept == nil || reflect.ValueOf(kept).Len() == 0 {
			t.Fatalf("BENCH_%s.json holds nothing to reproduce", tc.exp)
		}
		if !reflect.DeepEqual(tc.keep(got), tc.keep(want)) {
			t.Errorf("-exp %s no longer reproduces BENCH_%s.json; re-archive it with `make bench-%s`", tc.exp, tc.exp, tc.exp)
		}
	}
}

// gated is a stub result whose gate always fails.
type gated struct{ Rows int }

func (gated) Format() string { return "stub table" }
func (gated) Check() error   { return errors.New("stub gate failed") }

// TestRunWritesBeforeGate: a failing Check still leaves the artifact —
// the table or JSON document is complete on the writer when the gate's
// error comes back.
func TestRunWritesBeforeGate(t *testing.T) {
	saved := registry
	t.Cleanup(func() { registry = saved })
	registry = []experiment{{name: "stub", run: func(params) (formatter, error) { return gated{Rows: 3}, nil }}}

	for format, want := range map[string]string{"text": "stub table\n", "json": `"Rows": 3`} {
		var out bytes.Buffer
		err := run(&out, "stub", format, smallParams)
		if err == nil || !strings.Contains(err.Error(), "stub gate failed") {
			t.Errorf("%s: run() = %v, want the gate's error", format, err)
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("%s: output %q written before the gate does not contain %q", format, out.String(), want)
		}
		if format == "json" && !json.Valid(out.Bytes()) {
			t.Errorf("json: output is not a complete document: %q", out.String())
		}
	}
}

// expToken matches an experiment named on a cimbench command line in the
// docs: "-exp <name>".
var expToken = regexp.MustCompile(`-exp ([a-z0-9]+)`)

// TestDocsNameRealExperiments: every `-exp <name>` the docs tell a reader
// to type is a registry name.
func TestDocsNameRealExperiments(t *testing.T) {
	files, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "../../README.md", "../../DESIGN.md", "../../EXPERIMENTS.md",
		"../../.claude/skills/verify/SKILL.md")
	valid := map[string]bool{}
	for _, name := range expNames() {
		valid[name] = true
	}
	for _, file := range files {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range expToken.FindAllStringSubmatch(string(text), -1) {
			if !valid[m[1]] {
				t.Errorf("%s names `-exp %s`, which is not an experiment (want %s)",
					filepath.Base(file), m[1], strings.Join(expNames(), ", "))
			}
		}
	}
}
