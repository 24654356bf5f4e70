package cimrev

// Documentation cross-reference check (make docs-check, part of make
// verify): README.md and DESIGN.md are the two entry points into docs/,
// so every docs/*.md they reference must exist, and every file in docs/
// must be reachable from at least one of them. This keeps the system map
// honest — a document cannot be deleted while still linked, and a new
// document cannot land orphaned. docs/PERF.md is in turn the entry point
// into docs/perf/, its append-only dated entries. The same goes for the
// things the docs tell a reader to open or type: every BENCH_<x>.json
// archive, cmd/<name> executable and `make bench-<x>` target they name
// must exist.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	docsRefRe = regexp.MustCompile(`docs/[A-Za-z0-9_.-]+\.md`)
	perfRefRe = regexp.MustCompile(`docs/perf/[A-Za-z0-9_.-]+\.md`)
)

func TestDocsCrossReferences(t *testing.T) {
	checkDocsReferenced(t, docsRefRe, "docs/*.md", "README.md", "DESIGN.md")
	checkDocsReferenced(t, perfRefRe, "docs/perf/*.md", "docs/PERF.md")
}

// checkDocsReferenced fails unless the entry points' references matching re
// and the files matching glob are the same set.
func checkDocsReferenced(t *testing.T, re *regexp.Regexp, glob string, entryPoints ...string) {
	t.Helper()
	referenced := map[string][]string{} // document -> entry points naming it
	for _, entry := range entryPoints {
		data, err := os.ReadFile(entry)
		if err != nil {
			t.Fatalf("reading %s: %v", entry, err)
		}
		for _, ref := range re.FindAllString(string(data), -1) {
			referenced[ref] = append(referenced[ref], entry)
		}
	}
	if len(referenced) == 0 {
		t.Fatalf("no %s references found in %v", glob, entryPoints)
	}

	// Every reference must resolve to a real file.
	for ref, from := range referenced {
		if _, err := os.Stat(ref); err != nil {
			t.Errorf("%v reference %s: %v", from, ref, err)
		}
	}

	// Every document must be referenced — no orphans.
	files, err := filepath.Glob(glob)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("%s matches no files", glob)
	}
	for _, f := range files {
		if _, ok := referenced[filepath.ToSlash(f)]; !ok {
			t.Errorf("%s is orphaned: not referenced from %v", f, entryPoints)
		}
	}
}

var (
	benchFileRe = regexp.MustCompile(`BENCH_[a-z0-9]+\.json`)
	cmdDirRe    = regexp.MustCompile(`cmd/[a-z0-9]+`)
	makeBenchRe = regexp.MustCompile(`make (bench-[a-z0-9]+)`)
	makeVarRe   = regexp.MustCompile(`^([A-Z_]+) *[:?]?= *(.*)$`)
)

// makeTargets returns the targets the Makefile defines rules for: the
// words left of the colon on every rule line, with $(VAR) references
// expanded from the file's own assignments.
func makeTargets(t *testing.T) map[string]bool {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatalf("reading Makefile: %v", err)
	}
	vars := map[string]string{}
	targets := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if m := makeVarRe.FindStringSubmatch(line); m != nil {
			vars[m[1]] = m[2]
			continue
		}
		if line == "" || line[0] == '\t' || line[0] == '#' {
			continue
		}
		left, _, isRule := strings.Cut(line, ":")
		if !isRule {
			continue
		}
		for name, value := range vars {
			left = strings.ReplaceAll(left, "$("+name+")", value)
		}
		for _, target := range strings.Fields(left) {
			targets[target] = true
		}
	}
	return targets
}

func TestDocsNameRealArtifacts(t *testing.T) {
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	for _, glob := range []string{"docs/*.md", "docs/perf/*.md"} {
		matches, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	targets := makeTargets(t)
	if !targets["bench-json"] {
		t.Fatalf("Makefile parse found no bench-json target: %v", targets)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("reading %s: %v", file, err)
		}
		text := string(data)
		for _, path := range append(benchFileRe.FindAllString(text, -1), cmdDirRe.FindAllString(text, -1)...) {
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s names %s: %v", file, path, err)
			}
		}
		for _, m := range makeBenchRe.FindAllStringSubmatch(text, -1) {
			if !targets[m[1]] {
				t.Errorf("%s names `make %s`, which the Makefile has no rule for", file, m[1])
			}
		}
	}
}
