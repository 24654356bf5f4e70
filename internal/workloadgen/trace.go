package workloadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Trace is a recorded arrival schedule: absolute arrival offsets plus the
// request class of each arrival. Traces serialize to JSON, round-trip
// bit-identically, and replay through TraceReplay — record a schedule
// once (from a synthetic process or, in principle, production logs) and
// every replay fires the same train.
type Trace struct {
	// Source names the process the trace was recorded from.
	Source string `json:"source"`
	// RateRPS is the nominal rate of the recorded process.
	RateRPS float64 `json:"rate_rps"`
	// TimesNS are the absolute arrival offsets from schedule start, in
	// nanoseconds, nondecreasing.
	TimesNS []int64 `json:"times_ns"`
	// Classes holds the class name of each arrival; empty means every
	// arrival is the implicit single class. When present it must be the
	// same length as TimesNS.
	Classes []string `json:"classes,omitempty"`
}

// Record materializes n arrivals of the process (and, when pick is
// non-nil, their classes) into a trace. The recorded schedule is the
// exact schedule an open-loop drive of (a, pick, n) fires.
func Record(a Arrivals, pick Picker, n int) (*Trace, error) {
	if a == nil || n < 1 {
		return nil, fmt.Errorf("workloadgen: recording needs a process and n >= 1")
	}
	times := Times(a, n)
	t := &Trace{Source: a.Name(), RateRPS: a.Rate(), TimesNS: make([]int64, n)}
	for i, d := range times {
		t.TimesNS[i] = int64(d)
	}
	if pick != nil {
		t.Classes = make([]string, n)
		for i := range t.Classes {
			t.Classes[i] = pick.Pick(uint64(i)).Name
		}
	}
	return t, nil
}

// Validate reports whether the trace is well-formed.
func (t *Trace) Validate() error {
	if len(t.TimesNS) == 0 {
		return fmt.Errorf("workloadgen: trace has no arrivals")
	}
	prev := int64(0)
	for i, ts := range t.TimesNS {
		if ts < prev {
			return fmt.Errorf("workloadgen: trace times decrease at arrival %d (%d < %d)", i, ts, prev)
		}
		prev = ts
	}
	if len(t.Classes) != 0 && len(t.Classes) != len(t.TimesNS) {
		return fmt.Errorf("workloadgen: trace has %d classes for %d arrivals", len(t.Classes), len(t.TimesNS))
	}
	return nil
}

// WriteJSON serializes the trace.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}

// ReadTrace deserializes and validates a trace.
func ReadTrace(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("workloadgen: decode trace: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Replay returns the trace as an arrival process. Replays past the
// recorded window cycle: arrival n+i fires one period after arrival i,
// where the period is the recorded span padded by one mean gap (so the
// wrap gap is never zero).
func (t *Trace) Replay() (*TraceReplay, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := len(t.TimesNS)
	span := t.TimesNS[n-1]
	var meanGap int64
	if n > 1 {
		meanGap = span / int64(n-1)
	}
	if meanGap <= 0 {
		meanGap = int64(time.Millisecond)
	}
	rate := t.RateRPS
	if rate <= 0 {
		rate = float64(n) / (float64(span+meanGap) * 1e-9)
	}
	return &TraceReplay{trace: t, period: span + meanGap, rate: rate}, nil
}

// TraceReplay replays a trace as an Arrivals process, cycling past the
// recorded window. Immutable after construction; safe for concurrent
// use.
type TraceReplay struct {
	trace  *Trace
	period int64
	rate   float64
}

// Name implements Arrivals.
func (r *TraceReplay) Name() string { return "trace" }

// Rate implements Arrivals: the recorded process's nominal rate, or the
// empirical rate of the recorded window when the trace does not carry
// one.
func (r *TraceReplay) Rate() float64 { return r.rate }

// at returns the absolute offset of arrival i, cycling past the recorded
// window.
func (r *TraceReplay) at(i uint64) int64 {
	n := uint64(len(r.trace.TimesNS))
	return int64(i/n)*r.period + r.trace.TimesNS[i%n]
}

// Gap implements Arrivals: the difference of consecutive recorded
// offsets.
func (r *TraceReplay) Gap(i uint64) time.Duration {
	if i == 0 {
		return time.Duration(r.trace.TimesNS[0])
	}
	return time.Duration(r.at(i) - r.at(i-1))
}

// ClassNames reports whether the trace carries per-arrival classes.
func (r *TraceReplay) ClassNames() bool { return len(r.trace.Classes) > 0 }

// Picker resolves the trace's recorded class names against the mix that
// defines them, returning a Picker that replays the recorded class
// sequence (cycling like the schedule). A trace without classes replays
// the implicit single class and needs no mix.
func (r *TraceReplay) Picker(m Mix) (Picker, error) {
	if !r.ClassNames() {
		return nil, fmt.Errorf("workloadgen: trace records no classes")
	}
	classes := make([]Class, len(r.trace.Classes))
	for i, name := range r.trace.Classes {
		c, err := m.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("workloadgen: trace arrival %d: %w", i, err)
		}
		classes[i] = c
	}
	return traceClasses(classes), nil
}

// traceClasses replays a recorded class sequence.
type traceClasses []Class

// Pick implements Picker, cycling past the recorded window.
func (t traceClasses) Pick(i uint64) Class { return t[i%uint64(len(t))] }
