package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
)

// latWindows is how many equal windows of the timed phase each latency
// quantile is taken over; the reported value is the median of the
// per-window quantiles. This host deschedules the process for 100-300 ms
// a few times a minute, which lands in one window and moves a whole-run
// tail quantile by 2x or more, but moves the median over windows hardly
// at all (README, "Why the tail is windowed").
const latWindows = 8

// rank is the nearest rank of the q-quantile among n ascending samples,
// counted from 1: the smallest rank with at least q*n samples at or
// below it.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile is the exact nearest-rank quantile of an ascending sample. It
// returns the value and how many samples lie strictly beyond its rank —
// the support the quantile has. The result is always one of the samples,
// never an interpolated or bucketed value.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	r := rank(n, q)
	return sorted[r-1], n - r
}

// median is the middle of values (the mean of the middle two for an even
// count); values is left as it was.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// sample is one timed operation: when it was due (or, closed loop,
// finished) as an offset into the timed phase, and how long it took. A
// failed operation carries +Inf, so it counts as missing any latency.
type sample struct {
	at, lat float64
}

// windowQuantile splits the samples into latWindows equal windows of
// [0, span) by their at offset, takes the exact q-quantile inside every
// window, and returns the median of those. minBeyond is the smallest
// per-window count of samples beyond the quantile; a window with no
// samples is skipped.
func windowQuantile(samples []sample, span, q float64) (v float64, minBeyond int) {
	wins := make([][]float64, latWindows)
	for _, s := range samples {
		w := int(s.at / span * latWindows)
		if w < 0 {
			w = 0
		}
		if w >= latWindows {
			w = latWindows - 1
		}
		wins[w] = append(wins[w], s.lat)
	}
	var qs []float64
	minBeyond = -1
	for _, w := range wins {
		if len(w) == 0 {
			continue
		}
		sort.Float64s(w)
		x, beyond := quantile(w, q)
		qs = append(qs, x)
		if minBeyond < 0 || beyond < minBeyond {
			minBeyond = beyond
		}
	}
	if minBeyond < 0 {
		minBeyond = 0
	}
	return median(qs), minBeyond
}

// completion is n inferences finishing over [from, to] seconds into the
// timed phase: a closed-loop call occupies the caller from from to to; an
// open-loop request finishes at the instant to (from == to).
type completion struct {
	from, to float64
	n        int
}

// windowRate spreads every completion's inferences over the whole 1-s
// windows of [0, span) its interval overlaps and returns the median
// per-window count: the completion rate that a stall in one second cannot
// move. Spreading matters when one call is a sizeable part of a window
// (a batch-64 call is 35 ms), where counting calls by their end would
// quantize the rate in steps of several percent.
func windowRate(done []completion, span float64) float64 {
	wins := int(span)
	if wins < 1 {
		// Shorter than one window (smoke runs): the whole-phase rate.
		total := 0
		for _, c := range done {
			total += c.n
		}
		return float64(total) / span
	}
	counts := make([]float64, wins)
	for _, c := range done {
		if c.to <= c.from {
			if w := int(c.to); w >= 0 && w < wins {
				counts[w] += float64(c.n)
			}
			continue
		}
		perSec := float64(c.n) / (c.to - c.from)
		for w := int(c.from); w <= int(c.to) && w < wins; w++ {
			lo, hi := math.Max(c.from, float64(w)), math.Min(c.to, float64(w+1))
			if hi > lo {
				counts[w] += perSec * (hi - lo)
			}
		}
	}
	return median(counts)
}

// digest hashes output vectors bit for bit, in the order given.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) add(out []float64) {
	var b [8]byte
	for _, v := range out {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

func (d digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// relErr is ||got-want||2 / ||want||2.
func relErr(got, want []float64) float64 {
	var num, den float64
	for i := range want {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
