package main

import (
	"fmt"
	"math/rand"
	"time"

	"cimrev/internal/dpe"
	"cimrev/internal/fleet"
	"cimrev/internal/nn"
	"cimrev/internal/serve"
)

// spec is one workload. Everything in it is a constant of the benchmark:
// rates and sizes are never calibrated at run time, so two commits are
// offered exactly the same work.
type spec struct {
	name string

	// sizes are the MLP layer widths and xbar the physical array side.
	sizes []int
	xbar  int
	// bitSerial selects the honest per-cycle analog pipeline with
	// readNoise; otherwise dpe.DefaultConfig (functional, noise-free).
	bitSerial bool
	readNoise float64

	// hostShare is how much of the reference kernel's slowdown the
	// workload's compute shows when the host slows (ref.go): the slope of
	// log(time as it ran) against log(reference time) over runs spanning
	// host speeds 0.55-0.99. The noisy bit-serial path, full of
	// long-latency math, loses about 0.6 of what the reference loses;
	// serve_small_open, a third of whose CPU is system calls and most of
	// the rest scheduler and channel hand-offs, 0.4 among the runs of one
	// hour and 1.0 between a slow hour and a fast one, taken as 0.75; the
	// two workloads that run the batch kernel measured 0.7-1.2 and are
	// taken as 1.
	hostShare float64

	// Closed loop (open == false): one caller issues calls of batch
	// inputs back to back.
	batch       int
	warmupCalls int

	// Open loop: Poisson arrivals at rate requests/s through
	// workloadgen.Drive -> fleet.SubmitSeq on engines engines.
	open     bool
	rate     float64
	mix      bool // workloadgen.DefaultMix; otherwise one batch-1 class
	engines  int
	maxBatch int
	maxDelay time.Duration
	// reprogramEvery > 0 fires Fleet.RollingReprogram at every such
	// request index, alternating weight sets A and B.
	reprogramEvery int
}

// queueBound is deep enough that a 300 ms host stall queues requests
// instead of shedding them: the workloads are sized to lose nothing.
const queueBound = 4096

// maxClassBatch bounds Class.Batch so the elements of request seq get the
// distinct noise keys seq*maxClassBatch + element.
const maxClassBatch = 8

var (
	bigMLP   = []int{256, 256, 256, 256, 256, 128, 10}
	smallMLP = []int{16, 16, 10}
)

// specs are the four workloads BENCHMARK.json declares, in its order; why
// each is there is its `why` in that file, and at length in README.md.
var specs = []spec{
	{
		name:  "sim_bitserial_b1",
		sizes: bigMLP, xbar: 128, bitSerial: true, readNoise: 0.01, hostShare: 0.6,
		batch: 1, warmupCalls: 200,
	},
	{
		name:  "sim_functional_b64",
		sizes: bigMLP, xbar: 128, hostShare: 1,
		batch: 64, warmupCalls: 16,
	},
	{
		name:  "serve_small_open",
		sizes: smallMLP, xbar: 64, hostShare: 0.75,
		open: true, rate: 3000, mix: true, engines: 2, maxBatch: 16, maxDelay: 100 * time.Microsecond,
	},
	{
		name:  "serve_big_reprogram",
		sizes: bigMLP, xbar: 128, hostShare: 1,
		open: true, rate: 500, engines: 2, maxBatch: 64, maxDelay: 2 * time.Millisecond,
		reprogramEvery: 1000,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// dpeConfig is the engine configuration of the workload. The noise seed
// is fixed: it is part of the deployed system, not of the offered load.
func (s spec) dpeConfig() dpe.Config {
	cfg := dpe.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = s.xbar, s.xbar
	if s.bitSerial {
		cfg.Crossbar.Functional = false
		cfg.Crossbar.ReadNoise = s.readNoise
	}
	return cfg
}

// Weight sets: A is what every workload deploys, B is what
// serve_big_reprogram alternates with. Like the noise seed they are the
// system under test, so they do not follow -seed.
const (
	weightSeedA = 4242
	weightSeedB = 4343
)

func (s spec) network(weightSeed int64) (*nn.Network, error) {
	return nn.NewMLP(s.name, s.sizes, rand.New(rand.NewSource(weightSeed)))
}

// inputPool is how many distinct input vectors a run cycles through;
// inference k carries input k % inputPool. It is prime so that keys with
// a stride (element j of request seq is key 8*seq+j, and every 8th
// request is checked) still visit every input, and large so that
// output_rel_err, a mean over the inputs, differs little between seeds.
const inputPool = 1021

// genInputs draws the run's inputs from the workload seed: uniform in
// [-1, 1), the range the capacity and chaos sweeps feed the same models.
func (s spec) genInputs(seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	in := make([][]float64, inputPool)
	for i := range in {
		in[i] = make([]float64, s.sizes[0])
		for j := range in[i] {
			in[i][j] = rng.Float64()*2 - 1
		}
	}
	return in
}

func (s spec) fleetOptions(extra ...fleet.Option) []fleet.Option {
	opts := []fleet.Option{
		fleet.WithEngines(s.engines),
		fleet.WithPolicy(fleet.LeastLoaded()),
		fleet.WithServeOptions(serve.WithBatch(s.maxBatch, s.maxDelay), serve.WithQueueBound(queueBound)),
	}
	return append(opts, extra...)
}

// system is everything a workload builds before its first request.
type system struct {
	net    *nn.Network
	inputs [][]float64
	eng    *dpe.Engine  // closed-loop workloads
	fleet  *fleet.Fleet // open-loop workloads
}

func (sys *system) close() {
	if sys.fleet != nil {
		sys.fleet.Close()
	}
}

// build constructs the workload's system from nothing: model, inputs, and
// a programmed engine or a programmed fleet (both engines of every shadow
// pair). This is what setup_s times.
func (s spec) build(seed int64, extra ...fleet.Option) (*system, error) {
	net, err := s.network(weightSeedA)
	if err != nil {
		return nil, err
	}
	sys := &system{net: net, inputs: s.genInputs(seed)}
	if s.open {
		sys.fleet, _, err = fleet.New(s.dpeConfig(), net, s.fleetOptions(extra...)...)
		return sys, err
	}
	sys.eng, err = s.engine(net)
	return sys, err
}

// engine returns a fresh engine of the workload's configuration with net
// loaded — the system under test for closed-loop workloads and the oracle
// for all of them.
func (s spec) engine(net *nn.Network) (*dpe.Engine, error) {
	eng, err := dpe.New(s.dpeConfig())
	if err != nil {
		return nil, err
	}
	if _, err := eng.Load(net); err != nil {
		return nil, err
	}
	return eng, nil
}

// setup_s is the median over fresh constructions, repeated for
// setupSeconds: the first quarter of that time, and setupWarm constructions
// at least, grow the heap and are not counted; the rest, and setupReps at
// least, are. One construction takes 0.4 to 16 ms, and on this host the
// speed of a core moves by tens of percent from one tenth of a second to
// the next (and a process started right after a large one has exited
// builds slowly for up to a second), so it is the length of time the
// constructions span, more than their number, that steadies the median.
const (
	setupReps    = 21
	setupWarm    = 3
	setupSeconds = 2.0
)

// setupTiming is the set-up time of a workload: every construction's wall
// time beside a reference-kernel timing taken right after it.
type setupTiming struct {
	seconds []float64
	refNS   []float64
}

// atReference is the median construction time at the reference host
// speed, each construction scaled by the sample taken next to it.
// Constructing is the same code on every workload (quantize, pack and
// program the arrays), so it takes the reference kernel's slowdown whole
// whatever the workload's hostShare.
func (t setupTiming) atReference() float64 {
	scaled := make([]float64, len(t.seconds))
	for i, s := range t.seconds {
		scaled[i] = s * float64(refNominal.Nanoseconds()) / t.refNS[i]
	}
	return median(scaled)
}

// timeSetup builds the system again and again for seconds (see
// setupSeconds; at least setupWarm uncounted and reps counted times) and
// returns the last one for the run to use, with the counted timings.
func (s spec) timeSetup(seed int64, reps int, seconds float64) (*system, setupTiming, error) {
	var sys *system
	var t setupTiming
	begin := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(begin).Seconds()
		warm := i < setupWarm || elapsed < seconds/4
		if !warm && len(t.seconds) >= reps && elapsed >= seconds {
			return sys, t, nil
		}
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		var err error
		sys, err = s.build(seed)
		if err != nil {
			return nil, t, fmt.Errorf("%s: setup: %w", s.name, err)
		}
		d := time.Since(t0)
		ref := refKernel()
		if !warm {
			t.seconds = append(t.seconds, d.Seconds())
			t.refNS = append(t.refNS, float64(ref.Nanoseconds()))
		}
	}
}
