package energy

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Ledger accumulates costs by named category. Every charge is serial and
// the total is the sum of the categories: the ledger keeps no second
// latency total. A Ledger is safe for concurrent use; simulators running
// parallel components charge the same ledger from multiple goroutines.
//
// The zero value is NOT ready to use; construct with NewLedger.
type Ledger struct {
	mu    sync.Mutex
	byCat map[string]Cost
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{byCat: make(map[string]Cost)}
}

// Charge records cost against category serially; callers whose work
// overlapped compose Costs with Par before charging.
func (l *Ledger) Charge(category string, c Cost) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.byCat[category] = l.byCat[category].Seq(c)
}

// Total returns the serial sum of every category, folded in sorted
// category order so the float sum is the same on every call.
func (l *Ledger) Total() Cost {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := Zero
	for _, name := range l.names() {
		total = total.Seq(l.byCat[name])
	}
	return total
}

// Category returns the accumulated cost for one category.
func (l *Ledger) Category(name string) Cost {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.byCat[name]
}

// Categories returns the category names in sorted order.
func (l *Ledger) Categories() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.names()
}

// names returns the category names in sorted order; l.mu must be held.
func (l *Ledger) names() []string {
	names := make([]string, 0, len(l.byCat))
	for k := range l.byCat {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Report renders a multi-line per-category breakdown followed by the total.
func (l *Ledger) Report() string {
	var b strings.Builder
	for _, name := range l.Categories() {
		c := l.Category(name)
		fmt.Fprintf(&b, "%-24s %s\n", name, c)
	}
	fmt.Fprintf(&b, "%-24s %s\n", "TOTAL", l.Total())
	return b.String()
}
