package main

import (
	"fmt"
	"time"

	"cimrev/internal/energy"
)

// phase is what one timed phase of a workload measured, before it is
// folded into named metrics. Closed- and open-loop runners both fill it.
type phase struct {
	// attempted counts offered units (closed loop: inferences; open
	// loop: requests) and failed those that were shed, dropped, errored
	// or disagreed with the oracle.
	attempted, failed int
	// inferences is how many single-input inferences completed.
	inferences int
	// span is the length of the timed phase in seconds, warm is the
	// warm-up before it.
	span, warm float64
	host       hostDelta

	// lat holds one sample per call (closed) or request (open), in ms.
	lat []sample
	// done is when inferences completed, for the windowed rate.
	done []completion

	// simPS and simPJ are per-inference simulated latency and energy
	// from the returned energy.Cost values.
	simPS, simPJ float64

	// Oracle check, outside the timed phase.
	checked, mismatched int
	relErr              float64
	digest              string

	// ref is the host's speed sampled through the phase.
	ref hostRef

	open *openExtras // open-loop runs only
}

// digestOutputs is how many leading outputs of a closed-loop timed phase
// the digest covers: a fixed count, because how many inferences fit in
// the phase differs from run to run.
const digestOutputs = 1024

// oracleSamples is how many evenly spaced closed-loop outputs are re-run
// on a fresh engine at batch 1.
const oracleSamples = 256

// runClosed drives the engine with one caller for seconds: calls of
// s.batch inputs back to back, after s.warmupCalls untimed calls.
// Inference k (counted from the first warm-up call) carries input
// k % inputPool and noise key k — for Infer that is the engine's own
// counter, for InferBatchKeyed it is passed explicitly — so the outputs
// are a pure function of the seed whatever the host does.
func (s spec) runClosed(sys *system, seconds float64) (*phase, error) {
	b := s.batch
	ins := make([][]float64, b)
	seqs := make([]uint64, b)
	var outs [][]float64
	var next uint64
	call := func() (energy.Cost, error) {
		for j := 0; j < b; j++ {
			seqs[j] = next + uint64(j)
			ins[j] = sys.inputs[seqs[j]%inputPool]
		}
		next += uint64(b)
		if b == 1 {
			out, cost, err := sys.eng.Infer(ins[0])
			outs = append(outs, out)
			return cost, err
		}
		o, cost, err := sys.eng.InferBatchKeyed(seqs, ins)
		outs = append(outs, o...)
		return cost, err
	}

	warmStart := time.Now()
	for i := 0; i < s.warmupCalls; i++ {
		if _, err := call(); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", s.name, err)
		}
	}
	firstKey := next
	outs = outs[:0]
	p := &phase{warm: time.Since(warmStart).Seconds()}

	var first energy.Cost
	uniform := true
	var sumPS int64
	var sumPJ float64
	limit := time.Duration(seconds * float64(time.Second))
	h0 := stampHost()
	start := h0.wall
	t0 := time.Now()
	lastRef := t0
	for {
		cost, err := call()
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("%s: inference %d: %w", s.name, next, err)
		}
		p.lat = append(p.lat, sample{at: t1.Sub(start).Seconds(), lat: float64(t1.Sub(t0).Nanoseconds()) / 1e6})
		if len(p.lat) == 1 {
			first = cost
		} else if cost != first {
			uniform = false
		}
		sumPS += cost.LatencyPS
		sumPJ += cost.EnergyPJ
		if t1.Sub(start) >= limit {
			break
		}
		if t1.Sub(lastRef) >= refEvery {
			p.ref.sample()
			t1 = time.Now()
			lastRef = t1
		}
		t0 = t1
	}
	h1 := stampHost()
	p.host = h0.until(h1)
	p.span = p.lat[len(p.lat)-1].at
	p.inferences = len(outs)
	p.attempted = p.inferences
	from := 0.0
	for _, l := range p.lat {
		p.done = append(p.done, completion{from: from, to: l.at, n: b})
		from = l.at
	}
	// Every call does the same work, so every call returns the same
	// cost and the per-inference figure is exact; a float mean over a
	// run-dependent count would differ in its last bits run to run.
	if uniform {
		p.simPS = float64(first.LatencyPS) / float64(b)
		p.simPJ = first.EnergyPJ / float64(b)
	} else {
		p.simPS = float64(sumPS) / float64(p.inferences)
		p.simPJ = sumPJ / float64(p.inferences)
	}

	if err := s.checkClosed(sys, p, outs, firstKey); err != nil {
		return nil, err
	}
	p.failed = p.mismatched
	return p, nil
}

// checkClosed re-runs evenly spaced outputs on a fresh engine, one input
// per call under the same noise key, and requires bit equality: for
// sim_functional_b64 that is batch-64 against batch-1, for
// sim_bitserial_b1 the engine's counter-keyed Infer against the keyed
// entry point. The digest and the error against the float network come
// from the leading digestOutputs outputs only, so that both repeat
// exactly for a seed however many inferences the phase fitted.
func (s spec) checkClosed(sys *system, p *phase, outs [][]float64, firstKey uint64) error {
	oracle, err := s.engine(sys.net)
	if err != nil {
		return err
	}
	n := len(outs)
	step := n / oracleSamples
	if step < 1 {
		step = 1
	}
	for i := 0; i < n; i += step {
		key := firstKey + uint64(i)
		want, _, err := oracle.InferBatchKeyed([]uint64{key}, [][]float64{sys.inputs[key%inputPool]})
		if err != nil {
			return fmt.Errorf("%s: oracle: %w", s.name, err)
		}
		p.checked++
		if !equalBits(outs[i], want[0]) {
			p.mismatched++
		}
	}
	d := newDigest()
	var errSum float64
	lead := min(n, digestOutputs)
	for i := 0; i < lead; i++ {
		d.add(outs[i])
		ref, err := sys.net.Forward(sys.inputs[(firstKey+uint64(i))%inputPool])
		if err != nil {
			return err
		}
		errSum += relErr(outs[i], ref)
	}
	p.digest = d.String()
	p.relErr = errSum / float64(lead)
	return nil
}
