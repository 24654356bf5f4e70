package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"cimrev/internal/energy"
	"cimrev/internal/fleet"
	"cimrev/internal/nn"
	"cimrev/internal/serve"
	"cimrev/internal/workloadgen"
)

// clientSpan is one offered request as its client saw it. Offsets are
// from the start of the timed phase. outcome is stored +1 so that zero
// means "no outcome recorded" when conservation is checked.
type clientSpan struct {
	due, sent, done time.Duration
	outcome         int8
	batch           int8
	first           int32 // index of the request's first element
}

// elemSpan is one keyed submission (a batch-k request makes k of them).
type elemSpan struct {
	sent, done time.Duration
	simPS      int64
	simPJ      float64
	out        []float64 // kept for oracle-checked requests only
}

// reprogramSpan is one Fleet.RollingReprogram as the benchmark saw it.
type reprogramSpan struct {
	host            time.Duration
	visible, hidden energy.Cost
	err             error
}

// openExtras is what only open-loop phases record.
type openExtras struct {
	report     workloadgen.Report
	reqs       []clientSpan
	elems      []elemSpan
	reprograms []reprogramSpan
	lateMS     []float64 // generator lateness per request, ms
	offered    float64   // requests/s of the schedule
	// meanSimPS is the mean simulated latency of a served inference. A
	// request waits for its whole batch, so this follows the batch sizes
	// the batcher happened to form, and through them the host.
	meanSimPS float64
	// start is the instant the timed phase began: the zero of every span.
	start time.Time
	// before and after are the fleet's own counters at the two ends of
	// the timed phase.
	before, after fleetStats
}

// checkEvery: every such request has all its outputs compared with the
// oracle.
const checkEvery = 8

// warmKeyBase keeps warm-up noise keys clear of the timed phase's.
const warmKeyBase = 1 << 40

// openLoad is the offered load of an open-loop run: schedule, class mix
// and request count are pure functions of (spec, seed, seconds).
type openLoad struct {
	arrivals workloadgen.Poisson
	mix      workloadgen.Picker // nil: every request is one batch-1 inference
	requests int
}

func (s spec) load(seed int64, seconds float64) (openLoad, error) {
	arr, err := workloadgen.NewPoisson(seed, s.rate)
	if err != nil {
		return openLoad{}, err
	}
	l := openLoad{arrivals: arr, requests: int(s.rate * seconds)}
	if l.requests < 1 {
		l.requests = 1
	}
	if s.mix {
		m := workloadgen.DefaultMix(seed)
		for _, c := range m.Classes() {
			if c.Batch > maxClassBatch {
				return openLoad{}, fmt.Errorf("%s: class %s batch %d exceeds %d", s.name, c.Name, c.Batch, maxClassBatch)
			}
		}
		l.mix = m
	}
	return l, nil
}

func (l openLoad) batchOf(seq uint64) int {
	if l.mix == nil {
		return 1
	}
	return l.mix.Pick(seq).Batch
}

// workloadOutcome names a clientSpan's stored outcome.
func workloadOutcome(stored int8) string {
	if stored == 0 {
		return "none"
	}
	return workloadgen.Outcome(stored - 1).String()
}

func classify(err error) workloadgen.Outcome {
	switch {
	case err == nil:
		return workloadgen.OK
	case errors.Is(err, serve.ErrOverloaded):
		return workloadgen.Shed
	default:
		return workloadgen.Drop
	}
}

// runOpen drives the fleet open loop for seconds and checks the outputs.
// traced additionally stamps every element's sent/done times (the client
// side of the in-situ spans).
func (s spec) runOpen(sys *system, seed int64, seconds float64, traced bool) (*phase, error) {
	l, err := s.load(seed, seconds)
	if err != nil {
		return nil, err
	}
	f := sys.fleet
	nets := []*nn.Network{sys.net}
	if s.reprogramEvery > 0 {
		netB, err := s.network(weightSeedB)
		if err != nil {
			return nil, err
		}
		nets = append(nets, netB)
	}

	// Warm-up: one second of the same schedule under separate keys.
	warmStart := time.Now()
	warm := workloadgen.DriveConfig{Arrivals: l.arrivals, Mix: l.mix, Requests: int(math.Min(s.rate, float64(l.requests)))}
	if _, err := workloadgen.Drive(warm, func(req workloadgen.Request) (workloadgen.Outcome, error) {
		worst := workloadgen.OK
		for j := 0; j < req.Class.Batch; j++ {
			key := warmKeyBase + req.Seq*maxClassBatch + uint64(j)
			_, _, err := f.SubmitSeq(context.Background(), key, sys.inputs[key%inputPool])
			if o := classify(err); o > worst {
				worst = o
			}
		}
		return worst, nil
	}); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", s.name, err)
	}
	p := &phase{warm: time.Since(warmStart).Seconds(), open: &openExtras{offered: s.rate}}
	x := p.open

	// The class of every request is a pure function of (seed, seq), so
	// the element table is laid out before the first arrival.
	x.reqs = make([]clientSpan, l.requests)
	nElems := 0
	for i := range x.reqs {
		b := l.batchOf(uint64(i))
		x.reqs[i].batch, x.reqs[i].first = int8(b), int32(nElems)
		nElems += b
	}
	x.elems = make([]elemSpan, nElems)
	x.lateMS = make([]float64, l.requests)

	var rollWG sync.WaitGroup
	var rollMu sync.Mutex
	var start time.Time
	one := func(req workloadgen.Request, r *clientSpan, j int) workloadgen.Outcome {
		e := &x.elems[int(r.first)+j]
		key := req.Seq*maxClassBatch + uint64(j)
		if traced {
			e.sent = time.Since(start)
		}
		out, cost, err := f.SubmitSeq(context.Background(), key, sys.inputs[key%inputPool])
		if traced {
			e.done = time.Since(start)
		}
		if err == nil {
			e.simPS, e.simPJ = cost.LatencyPS, cost.EnergyPJ
			if req.Seq%checkEvery == 0 {
				e.out = out
			}
		}
		return classify(err)
	}
	submit := func(req workloadgen.Request) (workloadgen.Outcome, error) {
		r := &x.reqs[req.Seq]
		r.sent = time.Since(start)
		if s.reprogramEvery > 0 && req.Seq > 0 && req.Seq%uint64(s.reprogramEvery) == 0 {
			net := nets[(req.Seq/uint64(s.reprogramEvery))%2]
			rollWG.Add(1)
			go func() {
				defer rollWG.Done()
				t := time.Now()
				rep := f.RollingReprogram(net)
				span := reprogramSpan{host: time.Since(t), visible: rep.Visible, hidden: rep.Hidden, err: rep.Err()}
				rollMu.Lock()
				x.reprograms = append(x.reprograms, span)
				rollMu.Unlock()
			}()
		}
		worst := workloadgen.OK
		if b := int(r.batch); b == 1 {
			worst = one(req, r, 0)
		} else {
			// A batch-k request is k concurrent keyed submissions and is
			// served only if every one is; the worst outcome wins.
			outcomes := make([]workloadgen.Outcome, b)
			var wg sync.WaitGroup
			for j := 0; j < b; j++ {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					outcomes[j] = one(req, r, j)
				}(j)
			}
			wg.Wait()
			for _, o := range outcomes {
				if o > worst {
					worst = o
				}
			}
		}
		r.done = time.Since(start)
		r.due = req.Scheduled
		r.outcome = int8(worst) + 1
		x.lateMS[req.Seq] = float64(req.Lateness.Nanoseconds()) / 1e6
		return worst, nil
	}

	x.before = readFleet(f)
	h0 := stampHost()
	p.ref.background()
	// Drive reads its own clock a few microseconds after this one, so a
	// request's due time here is that much early and its latency that
	// much long: the error is on the safe side.
	start = time.Now()
	x.start = start
	x.report, err = workloadgen.Drive(workloadgen.DriveConfig{Arrivals: l.arrivals, Mix: l.mix, Requests: l.requests}, submit)
	h1 := stampHost()
	p.ref.halt()
	rollWG.Wait()
	x.after = readFleet(f)
	if err != nil {
		return nil, fmt.Errorf("%s: drive: %w", s.name, err)
	}
	p.host = h0.until(h1)
	p.attempted = l.requests

	var sumPS, minPJ float64
	minPS := int64(math.MaxInt64)
	for i := range x.reqs {
		r := &x.reqs[i]
		lat := math.Inf(1)
		switch workloadgen.Outcome(r.outcome - 1) {
		case workloadgen.OK:
			lat = float64((r.done - r.due).Nanoseconds()) / 1e6
			p.inferences += int(r.batch)
			p.done = append(p.done, completion{from: r.done.Seconds(), to: r.done.Seconds(), n: int(r.batch)})
			for j := 0; j < int(r.batch); j++ {
				e := &x.elems[int(r.first)+j]
				sumPS += float64(e.simPS)
				if e.simPS < minPS {
					minPS, minPJ = e.simPS, e.simPJ
				}
			}
		default:
			// Shed, dropped, or never given an outcome at all.
			p.failed++
		}
		p.lat = append(p.lat, sample{at: r.due.Seconds(), lat: lat})
	}
	p.span = x.reqs[len(x.reqs)-1].due.Seconds()
	if p.inferences > 0 {
		// End to end, the simulated cost of an inference is the smallest
		// one served: that of a batch of one, which is what the modelled
		// hardware takes and does not depend on the host. (Energy per
		// inference is the same in every batch, up to rounding in the
		// server's division of the batch's energy.)
		p.simPS, p.simPJ = float64(minPS), minPJ
		x.meanSimPS = sumPS / float64(p.inferences)
	}
	// Conservation: the generator's tallies and the benchmark's own
	// per-request records must describe the same requests.
	if got := int(x.report.OKs + x.report.Sheds + x.report.Drops); got != l.requests {
		return nil, fmt.Errorf("%s: conservation: %d outcomes for %d requests", s.name, got, l.requests)
	}
	for _, rp := range x.reprograms {
		if rp.err != nil {
			p.failed++
		}
	}
	if err := s.checkOpen(sys, p, nets); err != nil {
		return nil, err
	}
	p.failed += p.mismatched
	return p, nil
}

// checkOpen compares every output of every checkEvery-th request with a
// fresh single engine run on the same (key, input) — under weight set A,
// or, where a reprogram may have landed first, A or B. The digest and the
// error against the float network are taken from the oracle's outputs for
// those keys (both sets when there are two): the served outputs are shown
// equal to them, and unlike the served ones they do not depend on when a
// swap happened to land.
func (s spec) checkOpen(sys *system, p *phase, nets []*nn.Network) error {
	x := p.open
	var keys []uint64
	var ins, got [][]float64
	for i := 0; i < len(x.reqs); i += checkEvery {
		r := &x.reqs[i]
		if workloadgen.Outcome(r.outcome-1) != workloadgen.OK {
			continue
		}
		for j := 0; j < int(r.batch); j++ {
			key := uint64(i)*maxClassBatch + uint64(j)
			keys = append(keys, key)
			ins = append(ins, sys.inputs[key%inputPool])
			got = append(got, x.elems[int(r.first)+j].out)
		}
	}
	if len(keys) == 0 {
		return nil
	}
	want := make([][][]float64, len(nets))
	d := newDigest()
	var errSum float64
	for w, net := range nets {
		oracle, err := s.engine(net)
		if err != nil {
			return err
		}
		for lo := 0; lo < len(keys); lo += 64 {
			hi := min(lo+64, len(keys))
			outs, _, err := oracle.InferBatchKeyed(keys[lo:hi], ins[lo:hi])
			if err != nil {
				return fmt.Errorf("%s: oracle: %w", s.name, err)
			}
			want[w] = append(want[w], outs...)
		}
		for i, o := range want[w] {
			d.add(o)
			ref, err := net.Forward(ins[i])
			if err != nil {
				return err
			}
			errSum += relErr(o, ref)
		}
	}
	p.digest = d.String()
	for i := range keys {
		p.checked++
		served := false
		for w := range nets {
			served = served || equalBits(got[i], want[w][i])
		}
		if !served {
			p.mismatched++
		}
	}
	p.relErr = errSum / float64(len(nets)*len(keys))
	return nil
}

// fleetStats is a snapshot of the fleet's and its engines' own counters.
type fleetStats struct {
	requests, failovers, unrouteable int64
	batches, rejected                int64
	routed                           []int64
}

func readFleet(f *fleet.Fleet) fleetStats {
	snap := f.Registry().Snapshot()
	st := fleetStats{
		requests:    snap.Counters["fleet.requests"],
		failovers:   snap.Counters["fleet.failovers"],
		unrouteable: snap.Counters["fleet.unrouteable"],
	}
	for _, e := range f.Engines() {
		es := e.Registry().Snapshot()
		st.batches += es.Counters["serve.batches"]
		st.rejected += es.Counters["serve.rejected"]
		st.routed = append(st.routed, e.Routed())
	}
	return st
}
