package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cimrev/internal/crossbar"
	"cimrev/internal/energy"
	"cimrev/internal/fleet"
	"cimrev/internal/hybrid"
	"cimrev/internal/metrics"
	"cimrev/internal/nn"
	"cimrev/internal/noise"
	"cimrev/internal/obs"
	"cimrev/internal/serve"
	"cimrev/internal/vonneumann"
	"cimrev/internal/workloadgen"
)

// The ladder answers "what does each layer add": one closed-loop caller
// drives the same inputs at every boundary of the workload's path, from
// one crossbar array up to the load generator, every boundary reached
// through its exported functions only. The rungs run interleaved inside
// every iteration, so that drift of the host clock or a noisy neighbour
// lands on all of them alike (the docs/PERF.md technique); a rung's time is
// its median over the iterations, a layer's self time its rung minus the
// rung below.

// rung is one boundary. block runs calls calls starting at inference
// index k, each call worth batch inferences, and hands every call's
// simulated cost to observe.
type rung struct {
	name  string
	batch int
	block func(r *rung, k uint64, calls int) error

	nsPerReq       []float64 // one per iteration
	mallocs, bytes uint64
	n              int // inferences

	// Every call of a rung does the same work and so returns the same
	// cost; first is that cost, and the sums are only the fallback should
	// a call ever differ.
	first        energy.Cost
	calls        int
	uniform      bool
	sumPS, sumPJ float64
}

func (r *rung) observe(c energy.Cost) {
	if r.calls == 0 {
		r.first, r.uniform = c, true
	} else if c != r.first {
		r.uniform = false
	}
	r.calls++
	r.sumPS += float64(c.LatencyPS)
	r.sumPJ += c.EnergyPJ
}

// sim is the rung's simulated latency (ps) and energy (pJ) per inference.
func (r *rung) sim() (ps, pj float64) {
	if r.uniform {
		return float64(r.first.LatencyPS) / float64(r.batch), r.first.EnergyPJ / float64(r.batch)
	}
	n := float64(r.calls * r.batch)
	return r.sumPS / n, r.sumPJ / n
}

func (r *rung) ns() float64 { return median(r.nsPerReq) }

func (r *rung) allocs() float64 { return float64(r.mallocs) / float64(r.n) }

// ladder is the set of rungs of one workload, bottom first.
type ladder struct {
	rungs     []*rung
	programMS float64
	closers   []func()
}

func (l *ladder) rung(name string) *rung {
	for _, r := range l.rungs {
		if r.name == name {
			return r
		}
	}
	return nil
}

// self is what a rung adds to the rung below it, in ns per inference: the
// rung minus the rung below, so that the selfs of a path add up to its top
// rung. 0 when the workload's path does not have that rung.
func (l *ladder) self(name, below string) float64 {
	r, b := l.rung(name), l.rung(below)
	if r == nil || b == nil {
		return 0
	}
	return r.ns() - b.ns()
}

func (l *ladder) close() {
	for _, c := range l.closers {
		c()
	}
}

// ladderInputs is how many inputs of the pool the ladder cycles through.
const ladderInputs = 256

// layerInputs runs the float network over those inputs and keeps what
// enters each dense layer. Post-ReLU activations are non-negative and
// partly zero, which changes how many rows a bit-serial read touches, so
// the tile rung must be fed what the engine's tiles are fed.
func layerInputs(net *nn.Network, inputs [][]float64) (dense []*nn.Dense, acts [][][]float64, err error) {
	inputs = inputs[:ladderInputs]
	for _, l := range net.Layers {
		if d, ok := l.(*nn.Dense); ok {
			dense = append(dense, d)
		}
	}
	acts = make([][][]float64, len(dense))
	for _, in := range inputs {
		v, di := in, 0
		for _, l := range net.Layers {
			if _, ok := l.(*nn.Dense); ok {
				acts[di] = append(acts[di], v)
				di++
			}
			if v, err = l.Forward(v); err != nil {
				return nil, nil, err
			}
		}
	}
	return dense, acts, nil
}

// newLadder builds every rung the workload's path has. Closed-loop
// workloads stop at the engine and keep their own batch size; open-loop
// ones go on through dispatcher, server, fleet and generator at batch 1
// with WithBatch(1, .), so that a flush is immediate and a rung's time is
// the layer's own work and not a batching wait.
func (s spec) newLadder(sys *system) (*ladder, error) {
	cfg := s.dpeConfig()
	b := s.batch
	if s.open {
		b = 1
	}
	noisy := cfg.Crossbar.ReadNoise > 0
	src := noise.NewSource(cfg.Seed)
	// sources returns the per-item noise sources of a call, nil when the
	// configuration draws none.
	nss := make([]noise.Source, b)
	sources := func(k uint64, stage int) []noise.Source {
		if !noisy {
			return nil
		}
		for j := range nss {
			nss[j] = src.Derive(k + uint64(j)).Derive(uint64(stage))
		}
		return nss
	}
	dense, acts, err := layerInputs(sys.net, sys.inputs)
	if err != nil {
		return nil, err
	}
	l := &ladder{}
	add := func(name string, call func(k uint64) (energy.Cost, error)) {
		l.rungs = append(l.rungs, &rung{name: name, batch: b, block: func(r *rung, k uint64, calls int) error {
			for c := 0; c < calls; c++ {
				cost, err := call(k + uint64(c*b))
				if err != nil {
					return fmt.Errorf("ladder rung %s: %w", name, err)
				}
				r.observe(cost)
			}
			return nil
		}})
	}
	ins := make([][]float64, b)
	gather := func(pool [][]float64, k uint64, width int) [][]float64 {
		for j := range ins {
			ins[j] = pool[(k+uint64(j))%ladderInputs][:width]
		}
		return ins
	}

	// Rung 1: one physical array holding the top-left block of layer 0.
	w0 := dense[0].WeightMatrix()
	ar, ac := min(len(w0), cfg.Crossbar.Rows), min(len(w0[0]), cfg.Crossbar.Cols)
	block := make([][]float64, ar)
	for i := range block {
		block[i] = w0[i][:ac]
	}
	xb, err := crossbar.New(cfg.Crossbar)
	if err != nil {
		return nil, err
	}
	if _, err := xb.Program(block); err != nil {
		return nil, err
	}
	dsts := make([][]float64, b)
	for j := range dsts {
		dsts[j] = make([]float64, ac)
	}
	add("array", func(k uint64) (energy.Cost, error) {
		in := gather(sys.inputs, k, ar)
		if s.batch == 1 && !s.open {
			ns := crossbar.NoNoise
			if noisy {
				ns = sources(k, 0)[0]
			}
			return xb.MVMInto(dsts[0], in[0], ns)
		}
		cost, err := xb.MVMBatchInto(dsts, in, sources(k, 0))
		return cost.Scale(int64(b)), err
	})

	// Rung 2: every dense layer's tile, each fed its own activations.
	tiles := make([]*crossbar.Tile, len(dense))
	for i, d := range dense {
		if tiles[i], err = crossbar.NewTile(cfg.Crossbar); err != nil {
			return nil, err
		}
		if _, err := tiles[i].Program(d.WeightMatrix()); err != nil {
			return nil, err
		}
	}
	add("tiles", func(k uint64) (energy.Cost, error) {
		total := energy.Zero
		for i, t := range tiles {
			in := gather(acts[i], k, len(acts[i][0]))
			var cost energy.Cost
			var err error
			if s.batch == 1 && !s.open {
				ns := crossbar.NoNoise
				if noisy {
					ns = sources(k, 2*i)[0]
				}
				_, cost, err = t.MVM(in[0], ns)
			} else {
				_, cost, err = t.MVMBatch(in, sources(k, 2*i))
				cost = cost.Scale(int64(b))
			}
			if err != nil {
				return energy.Zero, err
			}
			total = total.Seq(cost)
		}
		return total, nil
	})

	// crossbar.program_ms: programming one tile with the widest layer.
	wide := dense[0]
	for _, d := range dense {
		if d.InSize()*d.OutSize() > wide.InSize()*wide.OutSize() {
			wide = d
		}
	}
	var progs []float64
	for i := 0; i < 5; i++ {
		t, err := crossbar.NewTile(cfg.Crossbar)
		if err != nil {
			return nil, err
		}
		w := wide.WeightMatrix()
		t0 := time.Now()
		if _, err := t.Program(w); err != nil {
			return nil, err
		}
		progs = append(progs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	l.programMS = median(progs)

	// Rung 3: the engine, entered the way the workload enters it.
	eng, err := s.engine(sys.net)
	if err != nil {
		return nil, err
	}
	seqs := make([]uint64, b)
	keys := func(k uint64) []uint64 {
		for j := range seqs {
			seqs[j] = k + uint64(j)
		}
		return seqs
	}
	full := len(sys.inputs[0])
	add("engine", func(k uint64) (energy.Cost, error) {
		in := gather(sys.inputs, k, full)
		if s.batch == 1 && !s.open {
			_, cost, err := eng.Infer(in[0])
			return cost, err
		}
		_, cost, err := eng.InferBatchKeyed(keys(k), in)
		return cost, err
	})
	if !s.open {
		return l, nil
	}

	// Beside the engine: the executing Von Neumann twin on the same input.
	twin, err := vonneumann.NewBackend(vonneumann.CPU(), vonneumann.DefaultHierarchy(), cfg.Crossbar, sys.net)
	if err != nil {
		return nil, err
	}
	add("vonneumann", func(k uint64) (energy.Cost, error) {
		_, cost, err := twin.InferBatch(gather(sys.inputs, k, full))
		return cost, err
	})

	// Rung 4: the hybrid dispatcher pinned to the crossbar side.
	dispatcher := func(cim hybrid.CIMBackend, reg *metrics.Registry) (*hybrid.Dispatcher, error) {
		tw, err := vonneumann.NewBackend(vonneumann.CPU(), vonneumann.DefaultHierarchy(), cfg.Crossbar, sys.net)
		if err != nil {
			return nil, err
		}
		return hybrid.New(cim, tw, hybrid.WithMode(hybrid.ModeCIM), hybrid.WithRegistry(reg))
	}
	dengine, err := s.engine(sys.net)
	if err != nil {
		return nil, err
	}
	disp, err := dispatcher(dengine, metrics.NewRegistry())
	if err != nil {
		return nil, err
	}
	add("dispatcher", func(k uint64) (energy.Cost, error) {
		_, cost, err := disp.InferBatchKeyedCtx(obs.Ctx{}, keys(k), gather(sys.inputs, k, full))
		return cost, err
	})

	// Rung 5: the micro-batching server over such a dispatcher.
	batch1 := []serve.Option{serve.WithBatch(1, s.maxDelay), serve.WithQueueBound(queueBound)}
	sengine, err := s.engine(sys.net)
	if err != nil {
		return nil, err
	}
	sdisp, err := dispatcher(sengine, metrics.NewRegistry())
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(sdisp, batch1...)
	if err != nil {
		return nil, err
	}
	l.closers = append(l.closers, srv.Close)
	ctx := context.Background()
	add("server", func(k uint64) (energy.Cost, error) {
		_, cost, err := srv.SubmitKeyed(ctx, k, sys.inputs[k%ladderInputs])
		return cost, err
	})

	// Rung 6: a one-engine fleet whose engine carries the same dispatcher
	// (over the shadow pair and breaker the fleet builds itself).
	var wrapErr error
	newFleet := func() (*fleet.Fleet, error) {
		f, _, err := fleet.New(cfg, sys.net,
			fleet.WithEngines(1),
			fleet.WithPolicy(fleet.LeastLoaded()),
			fleet.WithServeOptions(batch1...),
			fleet.WithWrapBackend(func(_ int, be serve.Backend, reg *metrics.Registry) serve.Backend {
				cim, ok := be.(hybrid.CIMBackend)
				if !ok {
					wrapErr = fmt.Errorf("ladder: fleet backend %T is not a hybrid.CIMBackend", be)
					return be
				}
				d, err := dispatcher(cim, reg)
				if err != nil {
					wrapErr = err
					return be
				}
				return d
			}))
		if err == nil && wrapErr != nil {
			f.Close()
			return nil, wrapErr
		}
		return f, err
	}
	f, err := newFleet()
	if err != nil {
		return nil, err
	}
	l.closers = append(l.closers, f.Close)
	add("fleet", func(k uint64) (energy.Cost, error) {
		_, cost, err := f.SubmitSeq(ctx, k, sys.inputs[k%ladderInputs])
		return cost, err
	})

	// Rung 7: the load generator, closed loop with one client, over a
	// second such fleet. Drive owns the loop, so this rung is a block.
	g, err := newFleet()
	if err != nil {
		return nil, err
	}
	l.closers = append(l.closers, g.Close)
	l.rungs = append(l.rungs, &rung{name: "drive", batch: 1, block: func(r *rung, k uint64, calls int) error {
		_, err := workloadgen.Drive(workloadgen.DriveConfig{Requests: calls, Clients: 1},
			func(req workloadgen.Request) (workloadgen.Outcome, error) {
				key := k + req.Seq
				_, cost, err := g.SubmitSeq(ctx, key, sys.inputs[key%ladderInputs])
				if err != nil {
					return workloadgen.Fatal, err
				}
				r.observe(cost)
				return workloadgen.OK, nil
			})
		return err
	}})
	return l, nil
}

// ladderBlock is how long one rung runs inside one iteration: long
// enough that the two counter reads around it are noise, short enough
// that an iteration sees the same host conditions on every rung.
const ladderBlock = 4 * time.Millisecond

// run interleaves the rungs for seconds (at least three iterations).
func (l *ladder) run(seconds float64) error {
	// Size the blocks once, from a first untimed pass that also warms
	// every rung's pools and caches.
	calls := make([]int, len(l.rungs))
	for i, r := range l.rungs {
		t0 := time.Now()
		if err := r.block(r, 0, 1); err != nil {
			return err
		}
		per := time.Since(t0)
		calls[i] = 1
		if per < ladderBlock {
			calls[i] = int(ladderBlock / (per + 1))
		}
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var ms0, ms1 runtime.MemStats
	var k uint64
	for iter := 0; iter < 3 || time.Now().Before(deadline); iter++ {
		for i, r := range l.rungs {
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			err := r.block(r, k, calls[i])
			dt := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return err
			}
			n := calls[i] * r.batch
			r.nsPerReq = append(r.nsPerReq, float64(dt.Nanoseconds())/float64(n))
			r.mallocs += ms1.Mallocs - ms0.Mallocs
			r.bytes += ms1.TotalAlloc - ms0.TotalAlloc
			r.n += n
			k += uint64(n)
		}
	}
	return nil
}

// rungReport is one rung in the results file: everything it measured, per
// inference.
type rungReport struct {
	Rung      string  `json:"rung"`
	NS        float64 `json:"ns"`
	SelfNS    float64 `json:"self_ns"`
	Allocs    float64 `json:"allocs"`
	Bytes     float64 `json:"bytes"`
	SimPS     float64 `json:"sim_ps"`
	SimPJ     float64 `json:"sim_pj"`
	Iteration int     `json:"iterations"`
}

// report lists the rungs bottom first. self is against the rung before,
// except that the Von Neumann twin stands beside the engine and not in the
// path: it has no self, and the dispatcher's is against the engine.
func (l *ladder) report() []rungReport {
	var out []rungReport
	below := 0.0
	for _, r := range l.rungs {
		ps, pj := r.sim()
		rr := rungReport{Rung: r.name, NS: r.ns(), Allocs: r.allocs(), Bytes: float64(r.bytes) / float64(r.n),
			SimPS: ps, SimPJ: pj, Iteration: len(r.nsPerReq)}
		if r.name != "vonneumann" {
			rr.SelfNS = rr.NS - below
			below = rr.NS
		}
		out = append(out, rr)
	}
	return out
}
