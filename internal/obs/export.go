// Exporters: Chrome trace_event JSON and the per-stage cost-attribution
// table. Both operate on Span snapshots, never on the live tracer, so an
// export can never stall the recording path.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"cimrev/internal/energy"
)

// chromeEvent is one trace_event in the Chrome/Perfetto JSON format. We
// emit "X" (complete) events: ts/dur in microseconds of wall time, with
// the simulated cost and annotations in args.
type chromeEvent struct {
	Name string             `json:"name"`
	Cat  string             `json:"cat"`
	Ph   string             `json:"ph"`
	PID  int                `json:"pid"`
	TID  int                `json:"tid"`
	TS   float64            `json:"ts"`
	Dur  float64            `json:"dur"`
	Args map[string]float64 `json:"args,omitempty"`
}

// chromeDoc is the top-level trace file shape.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// AssignLanes maps spans to virtual thread lanes such that within each
// lane, spans either nest or are disjoint — the invariant Chrome's flame
// view needs to render "X" events correctly. Spans from the worker pool
// overlap in wall time, so they cannot all share one lane; greedy
// first-fit packing keeps the lane count near the true concurrency.
// Returns lane index per span (aligned with the input slice).
func AssignLanes(spans []Span) []int {
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	// Earliest start first; longer span first on ties so a parent whose
	// child shares its start lands below the child in the same lane.
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := spans[idx[a]], spans[idx[b]]
		if sa.StartNS != sb.StartNS {
			return sa.StartNS < sb.StartNS
		}
		return sa.EndNS > sb.EndNS
	})

	lanes := make([]int, len(spans))
	// Each lane is a stack of currently-open end times.
	var open [][]int64
	for _, i := range idx {
		s := spans[i]
		placed := -1
		for l := range open {
			// Retire intervals that ended before this span starts.
			st := open[l]
			for len(st) > 0 && st[len(st)-1] <= s.StartNS {
				st = st[:len(st)-1]
			}
			open[l] = st
			if len(st) == 0 || s.EndNS <= st[len(st)-1] {
				placed = l
				break
			}
		}
		if placed < 0 {
			open = append(open, nil)
			placed = len(open) - 1
		}
		open[placed] = append(open[placed], s.EndNS)
		lanes[i] = placed
	}
	return lanes
}

// WriteChromeTrace renders spans as Chrome trace_event JSON, loadable in
// chrome://tracing or https://ui.perfetto.dev. Wall time drives the
// timeline; each event's args carry the simulated cost (sim_ps,
// energy_pj) plus any span annotations.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	lanes := AssignLanes(spans)
	doc := chromeDoc{TraceEvents: make([]chromeEvent, 0, len(spans)), DisplayTimeUnit: "ns"}
	for i, s := range spans {
		args := map[string]float64{
			"sim_ps":    float64(s.Cost.LatencyPS),
			"energy_pj": s.Cost.EnergyPJ,
		}
		for _, n := range s.Notes {
			args[n.Key] = n.Val
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.Name,
			Cat:  s.Category(),
			Ph:   "X",
			PID:  1,
			TID:  lanes[i],
			TS:   float64(s.StartNS) / 1e3,
			Dur:  float64(s.EndNS-s.StartNS) / 1e3,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// AttrRow is one line of the cost-attribution table: every span with the
// same name aggregated. Total columns are inclusive of child spans; Self
// columns subtract the children, so summing Self across all rows
// approximates each root's total without double counting.
type AttrRow struct {
	Name  string
	Count int64
	// WallNS is total inclusive wall-clock time.
	WallNS int64
	// SimPS / EnergyPJ are total inclusive simulated cost.
	SimPS    int64
	EnergyPJ float64
	// SelfSimPS / SelfEnergyPJ exclude the cost attributed to child spans
	// (clamped at zero: parallel children can legitimately exceed a
	// parent's critical-path latency).
	SelfSimPS    int64
	SelfEnergyPJ float64
}

// Attribution aggregates spans by name into attribution rows, sorted by
// self energy (then self sim time) descending — the top consumers first.
func Attribution(spans []Span) []AttrRow {
	// Child cost fold per parent ID, for self-cost computation.
	childPS := make(map[uint64]int64, len(spans))
	childPJ := make(map[uint64]float64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			childPS[s.Parent] += s.Cost.LatencyPS
			childPJ[s.Parent] += s.Cost.EnergyPJ
		}
	}
	rows := make(map[string]*AttrRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &AttrRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.WallNS += s.EndNS - s.StartNS
		r.SimPS += s.Cost.LatencyPS
		r.EnergyPJ += s.Cost.EnergyPJ
		selfPS := s.Cost.LatencyPS - childPS[s.ID]
		if selfPS < 0 {
			selfPS = 0
		}
		selfPJ := s.Cost.EnergyPJ - childPJ[s.ID]
		if selfPJ < 0 {
			selfPJ = 0
		}
		r.SelfSimPS += selfPS
		r.SelfEnergyPJ += selfPJ
	}
	out := make([]AttrRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].SelfEnergyPJ != out[b].SelfEnergyPJ {
			return out[a].SelfEnergyPJ > out[b].SelfEnergyPJ
		}
		if out[a].SelfSimPS != out[b].SelfSimPS {
			return out[a].SelfSimPS > out[b].SelfSimPS
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// FormatAttribution renders the top-N attribution rows as a fixed-width
// table (all rows when topN <= 0). The last column is host wall time,
// inclusive like the total columns, beside the simulated ones.
func FormatAttribution(rows []AttrRow, topN int) string {
	if topN <= 0 || topN > len(rows) {
		topN = len(rows)
	}
	var totalPJ float64
	for _, r := range rows {
		totalPJ += r.SelfEnergyPJ
	}
	var b strings.Builder
	b.WriteString("Cost attribution (self = exclusive of child spans)\n")
	b.WriteString(fmt.Sprintf("%-24s %8s %12s %12s %7s %12s %12s %12s\n",
		"span", "count", "self energy", "self sim", "en%", "total energy", "total sim", "total wall"))
	for _, r := range rows[:topN] {
		pct := 0.0
		if totalPJ > 0 {
			pct = 100 * r.SelfEnergyPJ / totalPJ
		}
		b.WriteString(fmt.Sprintf("%-24s %8d %12s %12s %6.1f%% %12s %12s %12s\n",
			r.Name, r.Count,
			energy.FormatEnergy(r.SelfEnergyPJ), energy.FormatLatency(r.SelfSimPS), pct,
			energy.FormatEnergy(r.EnergyPJ), energy.FormatLatency(r.SimPS), energy.FormatLatency(r.WallNS*1000)))
	}
	if topN < len(rows) {
		b.WriteString(fmt.Sprintf("... %d more span kinds\n", len(rows)-topN))
	}
	return b.String()
}
