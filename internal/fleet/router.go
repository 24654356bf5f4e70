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
	"slices"
	"strings"

	"cimrev/internal/noise"
)

// Policy orders routable engines by preference for one request.
//
// Order receives the routable engine snapshot (non-draining, not
// tripped; never empty) and the request's fleet sequence number, and
// permutes it in place into try-first order. The slice is the request's
// routing buffer: an implementation may reorder it but must not keep
// it. Implementations should be pure functions of their arguments (plus
// whatever live signals — queue depth, wear — they poll), so that a
// replayed request stream routes the same way.
type Policy interface {
	// Order sorts candidates in place into try-first order.
	Order(candidates []*Engine, seq uint64)
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
// tripped), writes it over dst in the policy's preference order, and
// returns that order along with how many engines were excluded for a
// tripped shadow pair — the signal the fleet uses to type its
// all-refused error (health vs capacity). dst's contents are discarded
// and its capacity reused, so a caller that keeps its buffer routes
// without allocating; a nil dst allocates. The order is empty when no
// engine is routable.
func (r *Router) Route(dst, engines []*Engine, seq uint64) (order []*Engine, tripped int) {
	order = dst[:0]
	for _, e := range engines {
		switch {
		case e.Draining():
		case e.Tripped():
			tripped++
		default:
			order = append(order, e)
		}
	}
	if len(order) > 0 {
		r.policy.Order(order, seq)
	}
	return order, tripped
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

// RoundRobin returns the policy that spreads requests over engines by
// sequence number: request seq tries engine h(seq) mod n first, then the
// rest in ring order, where h is a fixed bijection of the 64-bit sequence
// number (spread). Callers key a request's elements seq·8 + j
// (workloadgen.Request.ElementKey), so a rotation by the key itself would
// lead every batch-1 request with the same engine whenever n divides 8;
// the hash spreads any key stride about uniformly and keeps the order a
// pure function of (snapshot, seq).
func RoundRobin() Policy { return roundRobin{} }

type roundRobin struct{}

func (roundRobin) Order(candidates []*Engine, seq uint64) { rotate(candidates, spread.Uint64(seq)) }

// spread is round-robin's h: word seq of one fixed noise stream, a
// splitmix64 finalizer over seq's odd multiple (pinned by
// noise.TestStreamGolden), so h never changes under a replayed trace.
var spread = noise.NewSource(0)

// rotate turns order left by seq mod len(order) in place (three
// reversals), so request seq leads with candidate seq mod n and the rest
// follow in ring order.
func rotate(order []*Engine, seq uint64) {
	k := int(seq % uint64(len(order)))
	slices.Reverse(order[:k])
	slices.Reverse(order[k:])
	slices.Reverse(order)
}

// LeastLoaded returns the policy that prefers the engine with the least
// outstanding work — pending-list depth plus in-flight requests — breaking
// ties by rotating on the bare sequence number. A slow or momentarily busy
// engine accumulates load and stops attracting traffic until it drains.
// The tie-break is not a spread: with ElementKey-strided keys (seq·8 + j)
// and n dividing 8, every batch-1 request that finds the engines tied
// leads with the same engine, so an idle fleet serves light traffic on one
// engine and spills to the others only as its load rises. That keeps the
// busy engine's arrays warm; hashing the tie-break as round-robin does
// would trade that warmth for spread (ROADMAP.md has the measurement).
func LeastLoaded() Policy { return leastLoaded{} }

type leastLoaded struct{}

func (leastLoaded) Order(candidates []*Engine, seq uint64) { orderByRank(candidates, seq, false) }

// WearAware returns the policy that routes away from damaged engines. Each
// engine scores by its live fault report — lost columns dominate (the
// engine is serving corrupted columns), then consumed spares (one failure
// from loss), then lifetime cell writes (endurance headroom) — and lower
// scores lead, engines of equal score in least-loaded order. So when every
// engine scores identically (the common fault-free case, where inference
// performs no writes and no wear signal exists), the order is exactly
// least-loaded's rather than pinning all traffic on the lowest engine ID.
func WearAware() Policy { return wearAware{} }

type wearAware struct{}

func (wearAware) Order(candidates []*Engine, seq uint64) { orderByRank(candidates, seq, true) }

// Wear-score weights: a lost column is catastrophic relative to a used
// spare, which in turn dominates raw write wear. Writes are divided down
// so programming-sized counts (~1e5 cells/tile) cannot add up to one
// spare's worth of score.
const (
	wearLostCol   = int64(1) << 40
	wearSpareUsed = int64(1) << 20
	wearWriteDiv  = 1 << 10
)

// wearScore is an engine's damage score under the weights above.
func wearScore(e *Engine) int64 {
	h := e.Health().Total
	return int64(h.LostCols)*wearLostCol + int64(h.SparesUsed)*wearSpareUsed + e.Wear()/wearWriteDiv
}

// rank is one candidate's sort key, read once per request: wear score
// first (zero unless the policy weighs wear), then load.
type rank struct{ wear, load int64 }

func (a rank) less(b rank) bool {
	return a.wear < b.wear || a.wear == b.wear && a.load < b.load
}

// orderByRank rotates order by seq and then stable-sorts it by rank, so
// the rotation only reorders engines of equal rank. The sort is an
// insertion sort that moves each engine with its rank: a fleet is a
// handful of engines, and up to 16 ranks live on the stack, so ordering
// allocates nothing.
func orderByRank(order []*Engine, seq uint64, weighWear bool) {
	rotate(order, seq)
	var buf [16]rank
	ranks := buf[:0]
	for _, e := range order {
		r := rank{load: e.Load()}
		if weighWear {
			r.wear = wearScore(e)
		}
		ranks = append(ranks, r)
	}
	for i := 1; i < len(order); i++ {
		e, r := order[i], ranks[i]
		j := i
		for ; j > 0 && r.less(ranks[j-1]); j-- {
			order[j], ranks[j] = order[j-1], ranks[j-1]
		}
		order[j], ranks[j] = e, r
	}
}
