// Package associative implements the third architecture family in the
// paper's Section III.A taxonomy: "associative processors known as content
// addressable memory combined with nonvolatile memory, such as TCAM
// [53][54] and Associative Processors [55][56][57]".
//
// A TCAM matches a search key against every stored ternary word (0, 1,
// don't-care) in a single array cycle.
package associative

import (
	"fmt"
	"math/bits"

	"cimrev/internal/energy"
)

// Search-cycle costs: one ternary match across the whole array is a single
// wordline/matchline cycle (resistive TCAMs match in a few ns).
const (
	matchCycleLatencyPS = 3_000 // 3 ns
	matchCellEnergyPJ   = 0.002
	writeCellEnergyPJ   = 0.5
	writeCycleLatencyPS = 10_000 // 10 ns
)

// TCAM is a ternary content-addressable memory of fixed-width rows. Each
// bit position stores 0, 1, or X (don't-care). Not safe for concurrent
// use.
type TCAM struct {
	rows  int
	width int // bits per row, <= 64
	// value and care are per-row bit masks: a stored bit matches the key
	// bit when care is 0 (X) or value agrees.
	value []uint64
	care  []uint64
	used  []bool
	led   *energy.Ledger
}

// NewTCAM returns an empty TCAM with the given geometry. Width is capped
// at 64 bits per row.
func NewTCAM(rows, width int, led *energy.Ledger) (*TCAM, error) {
	if rows <= 0 {
		return nil, fmt.Errorf("associative: rows must be positive, got %d", rows)
	}
	if width <= 0 || width > 64 {
		return nil, fmt.Errorf("associative: width must be in [1,64], got %d", width)
	}
	return &TCAM{
		rows:  rows,
		width: width,
		value: make([]uint64, rows),
		care:  make([]uint64, rows),
		used:  make([]bool, rows),
		led:   led,
	}, nil
}

func (t *TCAM) widthMask() uint64 {
	if t.width == 64 {
		return ^uint64(0)
	}
	return (1 << t.width) - 1
}

func (t *TCAM) checkRow(row int) error {
	if row < 0 || row >= t.rows {
		return fmt.Errorf("associative: row %d outside [0,%d)", row, t.rows)
	}
	return nil
}

func (t *TCAM) charge(category string, c energy.Cost) {
	if t.led != nil {
		t.led.Charge(category, c)
	}
}

// Store writes a ternary word: bits where care is 0 are don't-care.
func (t *TCAM) Store(row int, value, care uint64) error {
	if err := t.checkRow(row); err != nil {
		return err
	}
	mask := t.widthMask()
	t.value[row] = value & care & mask
	t.care[row] = care & mask
	t.used[row] = true
	t.charge("tcam-store", energy.Cost{
		LatencyPS: writeCycleLatencyPS,
		EnergyPJ:  float64(t.width) * writeCellEnergyPJ,
	})
	return nil
}

// Match returns every used row whose ternary word matches the key, in one
// parallel search cycle. keyMask selects which key bits participate
// (bits outside keyMask match anything — a ternary *search*).
func (t *TCAM) Match(key, keyMask uint64) ([]int, energy.Cost) {
	mask := t.widthMask()
	key &= mask
	keyMask &= mask
	var hits []int
	for r := 0; r < t.rows; r++ {
		if !t.used[r] {
			continue
		}
		compare := t.care[r] & keyMask
		if (t.value[r]^key)&compare == 0 {
			hits = append(hits, r)
		}
	}
	cost := energy.Cost{
		LatencyPS: matchCycleLatencyPS,
		EnergyPJ:  float64(t.rows*t.width) * matchCellEnergyPJ,
	}
	t.charge("tcam-match", cost)
	return hits, cost
}

// LongestPrefixMatch performs the classic TCAM routing lookup: among rows
// matching the key, return the one with the most cared (non-X) bits.
// Returns -1 when nothing matches.
func (t *TCAM) LongestPrefixMatch(key uint64) (int, energy.Cost) {
	hits, cost := t.Match(key, t.widthMask())
	best, bestBits := -1, -1
	for _, r := range hits {
		if n := bits.OnesCount64(t.care[r]); n > bestBits {
			best, bestBits = r, n
		}
	}
	return best, cost
}
