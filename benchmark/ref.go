package main

import (
	"math"
	"sync"
	"time"
)

// The host this benchmark runs on does not hold one speed. Over minutes
// the same binary on the same inputs takes 10-40 % more or less CPU time
// per inference as neighbours come and go (README, "The host"), which is
// wider than any bound a metric could be given. hostRef measures that
// speed while the workload runs, with a fixed kernel that shares no code
// with the program under test, so that a run can report its compute-bound
// times at the reference speed: what moves both the kernel and the
// program is the host, what moves the program alone is the program.

// refData is small enough to stay in the L1 cache: the kernel measures
// the core, not the memory behind it.
var (
	refData = func() []uint64 {
		a := make([]uint64, 8<<10)
		x := uint64(0x9E3779B97F4A7C15)
		for i := range a {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			a[i] = x
		}
		return a
	}()
	refSink uint64
)

// refNominal is what one refKernel call takes on this class of host when
// it is quiet. It only fixes the scale of the reported values; comparing
// two commits needs the same constant on both sides, not a true one.
const refNominal = 600 * time.Microsecond

// refKernel is integer multiply-add over refData, two fifths of its time
// as one dependent chain and three fifths as eight independent ones. What
// slows this host is mostly something that takes issue slots away (a busy
// sibling hyperthread, by the look of it): code with many instructions in
// flight loses most, a chain waiting on its own multiply hardly notices.
// The simulator's kernels sit between the two — against the eight-lane
// loop alone the bit-serial path slowed half as much and the batch kernel
// nine tenths as much, against the single chain both slowed three times
// as much — and so does this mixture (README, "The host").
func refKernel() time.Duration {
	t0 := time.Now()
	a := refData
	var c uint64
	for r := 0; r < 28; r++ {
		for i, v := range a {
			c = c*31 + (v ^ uint64(i))
		}
	}
	var a0, a1, a2, a3, a4, a5, a6, a7 uint64
	for r := 0; r < 99; r++ {
		for i := 0; i+8 <= len(a); i += 8 {
			a0 = a0*31 + a[i]
			a1 = a1*37 + a[i+1]
			a2 = (a2 ^ a[i+2]) + a2<<3
			a3 = a3*41 + a[i+3]
			a4 = (a4 ^ a[i+4]) + a4>>5
			a5 = a5*43 + a[i+5]
			a6 = (a6 + a[i+6]) ^ a6<<7
			a7 = a7*47 + a[i+7]
		}
	}
	refSink += c ^ a0 ^ a1 ^ a2 ^ a3 ^ a4 ^ a5 ^ a6 ^ a7
	return time.Since(t0)
}

// refEvery is how often a phase samples the host's speed: 0.6 % of one
// core.
const refEvery = 100 * time.Millisecond

// hostRef collects the reference timings taken during one phase.
type hostRef struct {
	mu      sync.Mutex
	samples []float64 // ns
	spent   time.Duration

	stop, done chan struct{}
}

func (h *hostRef) sample() {
	d := refKernel()
	h.mu.Lock()
	h.samples = append(h.samples, float64(d.Nanoseconds()))
	h.spent += d
	h.mu.Unlock()
}

// background samples every refEvery from a goroutine of its own until
// halt: for open-loop phases, which have no caller loop to sample from.
func (h *hostRef) background() {
	h.stop, h.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(h.done)
		t := time.NewTicker(refEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
}

func (h *hostRef) halt() {
	close(h.stop)
	<-h.done
}

// kernelNS is the median reference timing of the phase.
func (h *hostRef) kernelNS() float64 {
	if len(h.samples) == 0 {
		return float64(refNominal.Nanoseconds())
	}
	return median(h.samples)
}

// speed is how fast the host ran the workload during the phase relative
// to the reference speed: above 1 on a faster host. share is the
// workload's hostShare: how much of the kernel's change its compute shows.
// A compute-bound time multiplied by the result, or a compute-bound rate
// divided by it, is that time or rate at the reference speed.
func (h *hostRef) speed(share float64) float64 {
	return math.Pow(float64(refNominal.Nanoseconds())/h.kernelNS(), share)
}
