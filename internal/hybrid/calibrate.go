package hybrid

import (
	"math/bits"
	"sync"

	"cimrev/internal/energy"
	"cimrev/internal/nn"
)

const (
	// calibratorAlpha is the EWMA smoothing factor for observed per-item
	// latencies: heavy enough that a few flushes overturn a wrong prior,
	// light enough that one outlier flush does not flip routing.
	calibratorAlpha = 0.25
	// probeEvery is how often a bucket routes against its current
	// preference to keep the other backend's estimate fresh.
	probeEvery = 16
)

// ewma is an exponentially weighted moving average of per-item latency in
// picoseconds. Until the first observation it reports its seed verbatim.
type ewma struct {
	v float64
	n int64
}

func (e *ewma) observe(x float64) {
	if e.n == 0 {
		e.v = x
	} else {
		e.v += calibratorAlpha * (x - e.v)
	}
	e.n++
}

// bucketState tracks both backends' per-item latency estimates for one
// batch-size class, plus the flush count that drives probing.
type bucketState struct {
	cim, vn ewma
	flushes int64
}

// calibrator refines the static crossover model online. Flushes are
// classed by batch size into log2 buckets (1, 2-3, 4-7, 8-15, ...): the
// crossover between backends is a function of how much batching amortizes
// the crossbar's fixed read cycles, so estimates must not be smeared
// across batch sizes. Each bucket seeds from the static model — the CIM
// board constants for the crossbar side, the twin's exact roofline
// PredictBatchCost for the Von Neumann side — and every observed flush
// folds its measured per-item latency into the chosen backend's EWMA.
//
// Decisions are deterministic given the flush sequence: the preferred
// backend is the one with the lower estimate, and every probeEvery-th
// flush in a bucket routes to the other backend so a stale estimate
// cannot pin routing forever.
type calibrator struct {
	mu      sync.Mutex
	seedCIM func(n int) float64
	seedVN  func(n int) float64
	buckets map[int]*bucketState
}

func newCalibrator(seedCIM, seedVN func(n int) float64) *calibrator {
	return &calibrator{
		seedCIM: seedCIM,
		seedVN:  seedVN,
		buckets: make(map[int]*bucketState),
	}
}

// bucketOf classes a batch size: bits.Len gives the log2 bucket.
func bucketOf(n int) int { return bits.Len(uint(n)) }

// bucket returns the state for batch size n, seeding it on first use with
// the static model evaluated at n (the first size seen in the class).
func (c *calibrator) bucket(n int) *bucketState {
	k := bucketOf(n)
	b, ok := c.buckets[k]
	if !ok {
		b = &bucketState{}
		b.cim.v = c.seedCIM(n)
		b.vn.v = c.seedVN(n)
		c.buckets[k] = b
	}
	return b
}

// choose routes one flush of n items: true means the Von Neumann backend.
func (c *calibrator) choose(n int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.bucket(n)
	b.flushes++
	preferVN := b.vn.v < b.cim.v
	if b.flushes%probeEvery == 0 {
		return !preferVN
	}
	return preferVN
}

// observe folds a measured flush into the chosen backend's estimate.
func (c *calibrator) observe(n int, vn bool, latencyPS int64) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.bucket(n)
	perItem := float64(latencyPS) / float64(n)
	if vn {
		b.vn.observe(perItem)
	} else {
		b.cim.observe(perItem)
	}
}

// estimates reports the current per-item latency estimates for batch size
// n without counting a flush — the sweep's view into the learned model.
func (c *calibrator) estimates(n int) (cimPS, vnPS float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.bucket(n)
	return b.cim.v, b.vn.v
}

// cimSeed builds the static per-item CIM prior from the shared board
// constants (the same energy.CIM* block the suitability calculator uses):
// compute at peak MVM throughput, operand streaming over the mesh, and the
// per-stage round latency amortized across the batch — the pipelining
// dpe.Engine actually performs.
func cimSeed(net *nn.Network) func(n int) float64 {
	flops := net.Flops()
	stages := float64(len(net.Layers))
	bytes := 16 * float64(net.InSize()+net.OutSize())
	return func(n int) float64 {
		s := flops/energy.CIMPeakOps + bytes/energy.CIMMeshBandwidth +
			stages*energy.CIMRoundLatencyS/float64(n)
		return float64(energy.PicosecondsFromSeconds(s))
	}
}
