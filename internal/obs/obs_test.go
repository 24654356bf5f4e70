package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"cimrev/internal/energy"
)

func cost(ps int64, pj float64) energy.Cost { return energy.Cost{LatencyPS: ps, EnergyPJ: pj} }

// TestZeroCtxNoOps: the zero Ctx (tracing off) must absorb the whole span
// protocol without recording or allocating.
func TestZeroCtxNoOps(t *testing.T) {
	var c Ctx
	if c.Active() {
		t.Fatal("zero Ctx reports active")
	}
	child := c.Child("x")
	if child.Active() {
		t.Fatal("child of zero Ctx reports active")
	}
	child.Annotate("k", 1)
	child.End(cost(1, 1))
	c.End(cost(1, 1))

	allocs := testing.AllocsPerRun(100, func() {
		sp := c.Child("hot")
		sp.Annotate("k", 1)
		sp.End(energy.Zero)
	})
	if allocs != 0 {
		t.Fatalf("zero-Ctx span protocol allocates %.1f per op, want 0", allocs)
	}
}

// TestNilTracerDisabled: a nil tracer returns zero Ctx roots and holds
// no state.
func TestNilTracerDisabled(t *testing.T) {
	var nilT *Tracer
	if nilT.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	if nilT.Root("x").Active() {
		t.Fatal("nil tracer produced an active root")
	}
	if nilT.Len() != 0 || nilT.Dropped() != 0 || nilT.Snapshot() != nil {
		t.Fatal("nil tracer has state")
	}
}

// TestSpanTreeWellFormed builds a known tree and checks the structural
// invariants every exporter relies on: unique IDs, parents exist (or 0),
// children retire before parents, and child wall intervals nest inside
// their parent's.
func TestSpanTreeWellFormed(t *testing.T) {
	tr := New()
	root := tr.Root("run.root")
	a := root.Child("dpe.a")
	a1 := a.Child("xbar.a1")
	a1.Annotate("rows", 64)
	a1.End(cost(10, 1))
	a2 := a.Child("xbar.a2")
	a2.End(cost(20, 2))
	a.End(cost(30, 3))
	b := root.Child("dpe.b")
	b.End(cost(40, 4))
	root.End(cost(70, 7))

	spans := tr.Snapshot()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	byID := make(map[uint64]Span, len(spans))
	pos := make(map[uint64]int, len(spans))
	for i, s := range spans {
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		byID[s.ID] = s
		pos[s.ID] = i
	}
	for _, s := range spans {
		if s.StartNS > s.EndNS {
			t.Errorf("span %q starts after it ends", s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %q has unknown parent %d", s.Name, s.Parent)
		}
		if pos[s.ID] >= pos[s.Parent] {
			t.Errorf("child %q retired after parent %q", s.Name, p.Name)
		}
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("child %q [%d,%d] not nested in parent %q [%d,%d]",
				s.Name, s.StartNS, s.EndNS, p.Name, p.StartNS, p.EndNS)
		}
	}

	// Category and annotations survive the snapshot.
	var a1s Span
	for _, s := range spans {
		if s.Name == "xbar.a1" {
			a1s = s
		}
	}
	if a1s.Category() != "xbar" {
		t.Errorf("category %q, want xbar", a1s.Category())
	}
	if len(a1s.Notes) != 1 || a1s.Notes[0] != (Note{Key: "rows", Val: 64}) {
		t.Errorf("notes = %v, want [rows=64]", a1s.Notes)
	}
}

// TestSumRoots: the root fold is the serial Seq fold, ignoring children.
func TestSumRoots(t *testing.T) {
	tr := New()
	for i := 0; i < 3; i++ {
		r := tr.Root("op")
		c := r.Child("inner")
		c.End(cost(999, 999)) // child costs must not double count
		r.End(cost(int64(10*(i+1)), float64(i+1)))
	}
	got := SumRoots(tr.Snapshot())
	want := cost(10, 1).Seq(cost(20, 2)).Seq(cost(30, 3))
	if got != want {
		t.Fatalf("SumRoots = %+v, want %+v", got, want)
	}
	if SumRoots(nil) != energy.Zero {
		t.Fatal("SumRoots(nil) != Zero")
	}
}

// TestSpanLimitDrops: past the limit spans are dropped and counted.
func TestSpanLimitDrops(t *testing.T) {
	tr := New()
	tr.limit = 2
	for i := 0; i < 5; i++ {
		tr.Root("op").End(energy.Zero)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", tr.Dropped())
	}
}

// TestConcurrentRecording: spans retired from many goroutines all land,
// with unique IDs (run under -race in the Makefile race target).
func TestConcurrentRecording(t *testing.T) {
	tr := New()
	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r := tr.Root("op")
				c := r.Child("inner")
				c.End(cost(1, 1))
				r.End(cost(2, 2))
			}
		}()
	}
	wg.Wait()
	spans := tr.Snapshot()
	if len(spans) != goroutines*perG*2 {
		t.Fatalf("got %d spans, want %d", len(spans), goroutines*perG*2)
	}
	seen := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		seen[s.ID] = true
	}
}

// TestAssignLanes: within a lane, spans must nest or be disjoint.
func TestAssignLanes(t *testing.T) {
	mk := func(id, parent uint64, start, end int64) Span {
		return Span{ID: id, Parent: parent, Name: "s", StartNS: start, EndNS: end}
	}
	spans := []Span{
		mk(1, 0, 0, 100),  // parent
		mk(2, 1, 10, 40),  // nested child
		mk(3, 1, 50, 90),  // nested child, disjoint from 2
		mk(4, 0, 20, 120), // overlaps 1 without nesting -> own lane
		mk(5, 0, 130, 150),
	}
	lanes := AssignLanes(spans)
	if len(lanes) != len(spans) {
		t.Fatalf("lanes len %d", len(lanes))
	}
	// Pairwise check the invariant inside each lane.
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if lanes[i] != lanes[j] {
				continue
			}
			a, b := spans[i], spans[j]
			disjoint := a.EndNS <= b.StartNS || b.EndNS <= a.StartNS
			nested := (a.StartNS >= b.StartNS && a.EndNS <= b.EndNS) ||
				(b.StartNS >= a.StartNS && b.EndNS <= a.EndNS)
			if !disjoint && !nested {
				t.Errorf("lane %d holds overlapping non-nested spans %d and %d", lanes[i], a.ID, b.ID)
			}
		}
	}
	// The overlapping root must not share a lane with span 1.
	if lanes[3] == lanes[0] {
		t.Error("overlapping roots share a lane")
	}
}

// TestWriteChromeTrace: the export is valid JSON with one X event per
// span, wall microseconds on the timeline and simulated cost in args.
func TestWriteChromeTrace(t *testing.T) {
	tr := New()
	r := tr.Root("serve.flush")
	c := r.Child("dpe.infer_batch")
	c.Annotate("batch", 8)
	c.End(cost(2000, 5))
	r.End(cost(3000, 6))

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string             `json:"name"`
			Cat  string             `json:"cat"`
			Ph   string             `json:"ph"`
			TS   float64            `json:"ts"`
			Dur  float64            `json:"dur"`
			Args map[string]float64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q phase %q, want X", ev.Name, ev.Ph)
		}
		if ev.Dur < 0 {
			t.Errorf("event %q negative duration", ev.Name)
		}
	}
	byName := map[string]map[string]float64{}
	for _, ev := range doc.TraceEvents {
		byName[ev.Name] = ev.Args
	}
	if byName["dpe.infer_batch"]["sim_ps"] != 2000 || byName["dpe.infer_batch"]["energy_pj"] != 5 {
		t.Errorf("child args = %v", byName["dpe.infer_batch"])
	}
	if byName["dpe.infer_batch"]["batch"] != 8 {
		t.Errorf("annotation lost: %v", byName["dpe.infer_batch"])
	}
}

// TestAttribution: totals are inclusive, self subtracts children (clamped
// at zero), rows sort by self energy descending.
func TestAttribution(t *testing.T) {
	tr := New()
	r := tr.Root("root")
	a := r.Child("leaf.a")
	a.End(cost(100, 10))
	b := r.Child("leaf.b")
	b.End(cost(50, 5))
	r.End(cost(150, 18)) // self: 0 ps (150-150), 3 pJ (18-15)
	// A parallel parent whose children's latency sum exceeds its own
	// critical path: self sim must clamp at 0, not go negative.
	p := tr.Root("par")
	c1 := p.Child("leaf.a")
	c1.End(cost(80, 2))
	c2 := p.Child("leaf.a")
	c2.End(cost(90, 2))
	p.End(cost(90, 4)) // par latency; child sum 170 > 90

	spans := tr.Snapshot()
	rows := Attribution(spans)
	byName := map[string]AttrRow{}
	for _, row := range rows {
		byName[row.Name] = row
	}
	wall := map[string]int64{}
	for _, s := range spans {
		wall[s.Name] += s.EndNS - s.StartNS
	}
	for name, ns := range wall {
		if byName[name].WallNS != ns {
			t.Errorf("%s wall = %d ns, want the spans' sum %d", name, byName[name].WallNS, ns)
		}
	}
	la := byName["leaf.a"]
	if la.Count != 3 || la.EnergyPJ != 14 || la.SimPS != 270 {
		t.Errorf("leaf.a = %+v", la)
	}
	if la.SelfEnergyPJ != 14 || la.SelfSimPS != 270 {
		t.Errorf("leaf.a self = %+v (leaves own their full cost)", la)
	}
	rt := byName["root"]
	if rt.SelfEnergyPJ != 3 || rt.SelfSimPS != 0 {
		t.Errorf("root self = (%g pJ, %d ps), want (3, 0)", rt.SelfEnergyPJ, rt.SelfSimPS)
	}
	pr := byName["par"]
	if pr.SelfSimPS != 0 {
		t.Errorf("par self sim = %d, want 0 (clamped)", pr.SelfSimPS)
	}
	if pr.SelfEnergyPJ != 0 {
		t.Errorf("par self energy = %g, want 0 (4 - 4)", pr.SelfEnergyPJ)
	}
	// Sorted by self energy descending.
	for i := 1; i < len(rows); i++ {
		if rows[i].SelfEnergyPJ > rows[i-1].SelfEnergyPJ {
			t.Fatalf("rows not sorted by self energy: %v before %v", rows[i-1].Name, rows[i].Name)
		}
	}

	out := FormatAttribution(rows, 2)
	if !strings.Contains(out, "total wall") {
		t.Error("wall-time column missing from formatted table")
	}
	if !strings.Contains(out, "leaf.a") {
		t.Error("top row missing from formatted table")
	}
	if !strings.Contains(out, "more span kinds") {
		t.Error("truncation line missing")
	}
}
