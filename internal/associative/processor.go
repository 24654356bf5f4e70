package associative

import (
	"fmt"

	"cimrev/internal/energy"
)

// Processor is an associative processor: a CAM array computing "where the
// data is" by sweeping compare passes over all rows simultaneously. Its
// operations are bit-serial but row-parallel: the max of a million rows
// costs the same cycles as the max of one.
type Processor struct {
	rows  int
	width int
	data  []uint64
	led   *energy.Ledger
}

// NewProcessor returns a zeroed associative processor.
func NewProcessor(rows, width int, led *energy.Ledger) (*Processor, error) {
	if rows <= 0 {
		return nil, fmt.Errorf("associative: rows must be positive, got %d", rows)
	}
	if width <= 0 || width > 64 {
		return nil, fmt.Errorf("associative: width must be in [1,64], got %d", width)
	}
	return &Processor{
		rows:  rows,
		width: width,
		data:  make([]uint64, rows),
		led:   led,
	}, nil
}

// Rows returns the row count.
func (p *Processor) Rows() int { return p.rows }

func (p *Processor) widthMask() uint64 {
	if p.width == 64 {
		return ^uint64(0)
	}
	return (1 << p.width) - 1
}

func (p *Processor) charge(category string, latencyPS int64, energyPJ float64) {
	if p.led != nil {
		p.led.Charge(category, energy.Cost{LatencyPS: latencyPS, EnergyPJ: energyPJ})
	}
}

// Write stores a word in one row.
func (p *Processor) Write(row int, value uint64) error {
	if row < 0 || row >= p.rows {
		return fmt.Errorf("associative: row %d outside [0,%d)", row, p.rows)
	}
	p.data[row] = value & p.widthMask()
	p.charge("ap-write", writeCycleLatencyPS, float64(p.width)*writeCellEnergyPJ)
	return nil
}

// Compare counts the rows whose masked bits equal pattern — one parallel
// cycle regardless of row count.
func (p *Processor) Compare(pattern, mask uint64) int {
	mask &= p.widthMask()
	pattern &= mask
	n := 0
	for _, v := range p.data {
		if v&mask == pattern {
			n++
		}
	}
	p.charge("ap-compare", matchCycleLatencyPS, float64(p.rows*p.width)*matchCellEnergyPJ)
	return n
}

// Max returns the maximum stored value via bit-serial elimination: from the
// MSB down, if any surviving row has the bit set, rows without it are
// eliminated. O(width) cycles, row-count independent.
func (p *Processor) Max() (uint64, energy.Cost) {
	alive := make([]bool, p.rows)
	for r := range alive {
		alive[r] = true
	}
	var result uint64
	for bit := p.width - 1; bit >= 0; bit-- {
		bitMask := uint64(1) << bit
		any := false
		for r := range p.data {
			if alive[r] && p.data[r]&bitMask != 0 {
				any = true
				break
			}
		}
		if any {
			result |= bitMask
			for r := range p.data {
				if alive[r] && p.data[r]&bitMask == 0 {
					alive[r] = false
				}
			}
		}
	}
	cost := energy.Cost{
		LatencyPS: int64(p.width) * matchCycleLatencyPS,
		EnergyPJ:  float64(p.width) * float64(p.rows) * matchCellEnergyPJ,
	}
	if p.led != nil {
		p.led.Charge("ap-max", cost)
	}
	return result, cost
}
