// Package machines curates the historical machine-balance database behind
// Fig 2 of the paper: "Memory bandwidth per processor floating point
// operations (FLOP)", the steady drop from a byte/FLOP ratio of 1.0 "to
// several orders of magnitude lower" that motivates CIM.
//
// Peak FLOP/s and sustained memory bandwidth figures are representative
// public numbers for each system; Fig 2 is about the trend, and the trend
// is robust to small disagreements in individual entries.
package machines

import (
	"fmt"
	"math"
	"sort"
)

// Record describes one machine generation.
type Record struct {
	Year      int
	Name      string
	PeakFlops float64 // FLOP/s
	MemBW     float64 // bytes/s
}

// BytesPerFlop returns the machine-balance ratio Fig 2 plots.
func (r Record) BytesPerFlop() float64 { return r.MemBW / r.PeakFlops }

// All returns the database ordered by year.
func All() []Record {
	recs := []Record{
		// Vector supercomputers.
		{1964, "CDC 6600", 3e6, 24e6},
		{1969, "CDC 7600", 36e6, 144e6},
		{1976, "Cray-1", 160e6, 640e6},
		{1982, "Cray X-MP", 235e6, 940e6},
		{1985, "Cray-2", 488e6, 990e6},
		{1991, "Cray C90", 1e9, 2.7e9},
		// CPUs.
		{1994, "Pentium 100", 100e6, 180e6},
		{1997, "Pentium II", 300e6, 400e6},
		{2001, "Pentium 4", 3e9, 3.2e9},
		{2006, "Core 2 Quad", 38e9, 8.5e9},
		{2009, "Nehalem-EP", 85e9, 32e9},
		{2011, "Sandy Bridge-EP", 166e9, 51e9},
		{2013, "Ivy Bridge-EP", 259e9, 60e9},
		{2014, "Haswell-EP", 580e9, 68e9},
		{2017, "Skylake-SP", 2000e9, 128e9},
		// GPUs.
		{2013, "Tesla K40", 4.3e12, 288e9},
		{2015, "Tesla M40", 6.8e12, 288e9},
		{2016, "Tesla P100", 10.6e12, 732e9},
		{2017, "Tesla V100", 15.7e12, 900e9},
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Year < recs[j].Year })
	return recs
}

// Point is one (year, bytes/FLOP) sample of the Fig 2 series.
type Point struct {
	Year  int
	Name  string
	Ratio float64
}

// Series returns the Fig 2 byte/FLOP series in year order.
func Series() []Point {
	recs := All()
	pts := make([]Point, len(recs))
	for i, r := range recs {
		pts[i] = Point{Year: r.Year, Name: r.Name, Ratio: r.BytesPerFlop()}
	}
	return pts
}

// TrendSlope fits log10(ratio) = a + b*year by least squares and returns b,
// the per-year decline exponent. A healthy Fig 2 reproduction has b well
// below zero (ratios fall by orders of magnitude across decades).
func TrendSlope(pts []Point) (float64, error) {
	if len(pts) < 2 {
		return 0, fmt.Errorf("machines: need at least 2 points, got %d", len(pts))
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(pts))
	for _, p := range pts {
		if p.Ratio <= 0 {
			return 0, fmt.Errorf("machines: non-positive ratio for %s", p.Name)
		}
		x := float64(p.Year)
		y := math.Log10(p.Ratio)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, fmt.Errorf("machines: degenerate year distribution")
	}
	return (n*sxy - sx*sy) / den, nil
}

// DecadeMeans aggregates the series into per-decade geometric means,
// the robust way to see the Fig 2 staircase.
func DecadeMeans(pts []Point) []Point {
	type agg struct {
		logSum float64
		n      int
	}
	byDecade := make(map[int]*agg)
	for _, p := range pts {
		d := (p.Year / 10) * 10
		a, ok := byDecade[d]
		if !ok {
			a = &agg{}
			byDecade[d] = a
		}
		a.logSum += math.Log10(p.Ratio)
		a.n++
	}
	decades := make([]int, 0, len(byDecade))
	for d := range byDecade {
		decades = append(decades, d)
	}
	sort.Ints(decades)
	out := make([]Point, 0, len(decades))
	for _, d := range decades {
		a := byDecade[d]
		out = append(out, Point{
			Year:  d,
			Name:  fmt.Sprintf("%ds", d),
			Ratio: math.Pow(10, a.logSum/float64(a.n)),
		})
	}
	return out
}
