// Package memristor models the novel memory devices at the heart of the
// paper's CIM vision (Section II.A, III.A): elements that "blur the boundary
// between memory and compute, effectively providing both in the same
// element". Its bitwise engine is the in-array AND of Chen et al. [18],
// used for bulk bitwise workloads.
package memristor

import (
	"fmt"
	"math/bits"

	"cimrev/internal/energy"
)

// BitwiseEngine models the dual-mode ReRAM macro of Chen et al. [18]: a
// memory array that can either serve ordinary reads/writes or compute bulk
// bitwise AND across whole rows inside the array ("sub-14ns
// computing-in-memory"), without moving the operands to a processor.
//
// Rows are fixed-width bit vectors packed into uint64 words. In-array
// operations read two rows and write the result row with every bitline
// working in parallel, so an operation costs one array cycle regardless of
// row width, with energy proportional to the bits involved.
type BitwiseEngine struct {
	rows   [][]uint64
	words  int
	ledger *energy.Ledger
}

// Per-operation costs for the in-array compute mode. All bitlines operate
// in parallel, so one operation over a full row costs a single 14 ns array
// cycle (the macro's headline latency) regardless of width; energy scales
// with the bits involved.
const (
	bitwiseCycleLatencyPS  = 14_000 // 14 ns per whole-row operation
	bitwiseEnergyPJPerWord = 0.5
)

// NewBitwiseEngine returns an engine with rows×(64·words) bits, zeroed.
func NewBitwiseEngine(rows, words int, ledger *energy.Ledger) (*BitwiseEngine, error) {
	if rows <= 0 || words <= 0 {
		return nil, fmt.Errorf("memristor: bitwise engine needs positive dims, got %dx%d", rows, words)
	}
	r := make([][]uint64, rows)
	backing := make([]uint64, rows*words)
	for i := range r {
		r[i], backing = backing[:words:words], backing[words:]
	}
	return &BitwiseEngine{rows: r, words: words, ledger: ledger}, nil
}

func (e *BitwiseEngine) checkRow(idx ...int) error {
	for _, i := range idx {
		if i < 0 || i >= len(e.rows) {
			return fmt.Errorf("memristor: row %d outside [0,%d)", i, len(e.rows))
		}
	}
	return nil
}

func (e *BitwiseEngine) charge(category string, wordsTouched int64) {
	if e.ledger != nil {
		e.ledger.Charge(category, energy.Cost{
			LatencyPS: bitwiseCycleLatencyPS,
			EnergyPJ:  bitwiseEnergyPJPerWord * float64(wordsTouched),
		})
	}
}

// Store writes data into row i (memory mode). Extra words are ignored;
// missing words zero-fill.
func (e *BitwiseEngine) Store(i int, data []uint64) error {
	if err := e.checkRow(i); err != nil {
		return err
	}
	row := e.rows[i]
	for w := range row {
		if w < len(data) {
			row[w] = data[w]
		} else {
			row[w] = 0
		}
	}
	e.charge("bitwise-store", int64(e.words))
	return nil
}

// And computes dst ← a ∧ b in a single in-array pass.
func (e *BitwiseEngine) And(a, b, dst int) error {
	if err := e.checkRow(a, b, dst); err != nil {
		return err
	}
	ra, rb, rd := e.rows[a], e.rows[b], e.rows[dst]
	for w := range rd {
		rd[w] = ra[w] & rb[w]
	}
	e.charge("bitwise-compute", int64(e.words))
	return nil
}

// PopCount returns the number of set bits in row i, modeling an in-array
// population count (used by search/associative workloads).
func (e *BitwiseEngine) PopCount(i int) (int, error) {
	if err := e.checkRow(i); err != nil {
		return 0, err
	}
	var n int
	for _, w := range e.rows[i] {
		n += bits.OnesCount64(w)
	}
	e.charge("bitwise-popcount", int64(e.words))
	return n, nil
}
