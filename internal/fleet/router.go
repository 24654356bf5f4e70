// Request routing: pluggable policies over the engine set.
//
// Routing has a determinism obligation the usual load balancer does not:
// because every request carries its own noise key (fleet.go), *any*
// placement yields bit-identical outputs — so policies are free to chase
// load or wear without ever being consulted about correctness.
// What policies must still be is reproducible in themselves: given the
// same engine snapshot and the same request sequence number they return
// the same preference order, so a replayed trace routes identically. All
// built-in policies are stateless pure functions of (snapshot, seq) for
// exactly this reason.
package fleet

import (
	"fmt"
	"sort"
	"strings"
)

// Policy orders routable engines by preference for one request.
//
// Order receives the routable engine snapshot (non-draining, not
// tripped; never empty) and the request's fleet sequence number, and
// returns the engines in try-first order. Implementations must not mutate
// candidates and should be pure functions of their arguments (plus
// whatever live signals — queue depth, wear — they poll), so that a
// replayed request stream routes the same way.
type Policy interface {
	// Name returns the policy's CLI name (cimserve -policy).
	Name() string
	// Order returns candidates sorted into try-first order.
	Order(candidates []*Engine, seq uint64) []*Engine
}

// Router applies a Policy to the fleet's live engine set, filtering out
// engines that cannot take traffic (draining or tripped) before the
// policy sees them. A Router is stateless and safe for concurrent use as
// long as its Policy is.
type Router struct {
	policy Policy
}

// NewRouter wraps policy; a nil policy selects round-robin.
func NewRouter(policy Policy) *Router {
	if policy == nil {
		policy = RoundRobin()
	}
	return &Router{policy: policy}
}

// Route filters engines down to the routable set (not draining, not
// tripped) and returns it in the policy's preference order, along with how
// many engines were excluded for a tripped shadow pair — the signal the fleet
// uses to type its all-refused error (health vs capacity).
func (r *Router) Route(engines []*Engine, seq uint64) (order []*Engine, tripped int) {
	routable := make([]*Engine, 0, len(engines))
	for _, e := range engines {
		switch {
		case e.Draining():
		case e.Tripped():
			tripped++
		default:
			routable = append(routable, e)
		}
	}
	if len(routable) == 0 {
		return nil, tripped
	}
	return r.policy.Order(routable, seq), tripped
}

// ParsePolicy maps a CLI name to a policy: "round-robin" (alias "rr"),
// "least-loaded" (alias "ll"), "wear-aware" (alias "wear").
func ParsePolicy(name string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "round-robin", "roundrobin", "rr":
		return RoundRobin(), nil
	case "least-loaded", "leastloaded", "ll":
		return LeastLoaded(), nil
	case "wear-aware", "wearaware", "wear":
		return WearAware(), nil
	default:
		return nil, fmt.Errorf("fleet: unknown policy %q (want round-robin, least-loaded, wear-aware)", name)
	}
}

// PolicyNames lists the canonical policy names (cimbench -exp fleet sweeps
// all of them).
func PolicyNames() []string {
	return []string{"round-robin", "least-loaded", "wear-aware"}
}

// RoundRobin returns the policy that rotates through engines by request
// sequence number: request seq tries engine seq mod n first, then the
// rest in ring order. With a dense request stream this spreads load
// uniformly regardless of per-engine speed.
func RoundRobin() Policy { return roundRobin{} }

type roundRobin struct{}

func (roundRobin) Name() string { return "round-robin" }

func (roundRobin) Order(candidates []*Engine, seq uint64) []*Engine {
	n := len(candidates)
	out := make([]*Engine, 0, n)
	start := int(seq % uint64(n))
	for i := 0; i < n; i++ {
		out = append(out, candidates[(start+i)%n])
	}
	return out
}

// LeastLoaded returns the policy that prefers the engine with the least
// outstanding work — pending-list depth plus in-flight requests —
// breaking ties by rotating on the sequence number so tied engines share
// traffic instead of all landing on the lowest ID. A slow or momentarily
// busy engine accumulates load and stops attracting traffic until it
// drains.
func LeastLoaded() Policy { return leastLoaded{} }

type leastLoaded struct{}

func (leastLoaded) Name() string { return "least-loaded" }

func (leastLoaded) Order(candidates []*Engine, seq uint64) []*Engine {
	// Rotate first so equal-load engines tie-break round-robin, then
	// stable-sort by load: the rotation only reorders within load classes.
	out := roundRobin{}.Order(candidates, seq)
	load := make(map[int]int64, len(out))
	for _, e := range out {
		load[e.id] = e.Load()
	}
	sort.SliceStable(out, func(i, j int) bool {
		return load[out[i].id] < load[out[j].id]
	})
	return out
}

// WearAware returns the policy that routes away from damaged engines. Each
// engine scores by its live fault report — lost columns dominate (the
// engine is serving corrupted columns), then consumed spares (one failure
// from loss), then lifetime cell writes (endurance headroom) — and lower
// scores lead. When every engine scores identically (the common fault-free
// case, where inference performs no writes and no wear signal exists), the
// policy falls back to least-loaded ordering rather than pinning all
// traffic on the lowest engine ID.
func WearAware() Policy { return wearAware{} }

type wearAware struct{}

func (wearAware) Name() string { return "wear-aware" }

// Wear-score weights: a lost column is catastrophic relative to a used
// spare, which in turn dominates raw write wear. Writes are divided down
// so programming-sized counts (~1e5 cells/tile) cannot add up to one
// spare's worth of score.
const (
	wearLostCol   = int64(1) << 40
	wearSpareUsed = int64(1) << 20
	wearWriteDiv  = 1 << 10
)

func (wearAware) Order(candidates []*Engine, seq uint64) []*Engine {
	score := make(map[int]int64, len(candidates))
	allEqual := true
	for i, e := range candidates {
		h := e.Health().Total
		s := int64(h.LostCols)*wearLostCol +
			int64(h.SparesUsed)*wearSpareUsed +
			e.Wear()/wearWriteDiv
		score[e.id] = s
		if i > 0 && s != score[candidates[0].id] {
			allEqual = false
		}
	}
	if allEqual {
		// No wear differential (typically: faults disabled, so no signal
		// at all) — degrade gracefully to the load signal.
		return leastLoaded{}.Order(candidates, seq)
	}
	out := roundRobin{}.Order(candidates, seq)
	load := make(map[int]int64, len(out))
	for _, e := range out {
		load[e.id] = e.Load()
	}
	sort.SliceStable(out, func(i, j int) bool {
		if score[out[i].id] != score[out[j].id] {
			return score[out[i].id] < score[out[j].id]
		}
		return load[out[i].id] < load[out[j].id]
	})
	return out
}
