package crossbar

import (
	"fmt"
	"sync"

	"cimrev/internal/energy"
	"cimrev/internal/faultinject"
	"cimrev/internal/noise"
	"cimrev/internal/obs"
	"cimrev/internal/parallel"
)

// Tile aggregates a grid of crossbars to hold matrices larger than one
// array, mirroring the paper's Fig 5 hierarchy (micro-units composed into
// units and tiles). An M x N matrix is split into ceil(M/Rows) x
// ceil(N/Cols) blocks; block results merge with digital adds. All blocks
// compute in parallel (each owns its arrays and converters), so MVM latency
// is one block MVM plus the merge, while energy sums across blocks.
//
// The simulator mirrors the hardware's spatial parallelism: independent
// blocks of Program and MVM fan out across the internal/parallel worker
// pool, with per-block results merged in fixed (row, column) order so cost
// totals and outputs are bit-identical to serial execution at any pool
// width. Analog read noise no longer forces sequential evaluation: each
// block derives its own counter-based noise stream (ns.Derive(blockIndex)),
// so the draw applied to any (block, bit, slice, column) is a pure function
// of position, not of goroutine schedule (see internal/noise and
// docs/PARALLELISM.md). A Tile's mutating methods are not safe for
// concurrent use from multiple goroutines, while MVM on a programmed tile —
// noisy or not — is read-only and may be called concurrently.
type Tile struct {
	cfg        Config
	blocks     [][]*Crossbar // blocks[br][bc]
	rows, cols int           // programmed logical dims
	programmed bool
	// pastWrites preserves wear from arrays discarded by a reshaping
	// reprogram, so lifetime write counts survive reconfiguration.
	pastWrites int64
	// faults / faultSrc configure device-fault injection for every block:
	// block b derives the child source faultSrc.Derive(b), so fault
	// positions are a pure function of (tile source, block, cell) and
	// parallel block programming is bit-identical to serial.
	faults   faultinject.Model
	faultSrc noise.Source
	// batchScratch pools per-call block outputs, costs and view arenas so
	// steady-state tile MVMs stop allocating a slab per call. Pooled (not
	// a plain field) because a programmed tile may serve concurrent MVMs.
	batchScratch sync.Pool
}

// tileBatchScratch is the pooled per-call workspace for a tile MVM: the
// per-(block, item) output slab, per-task costs, and the view /
// derived-source arenas handed to the crossbar kernel. Sized against the
// current block grid and batch on every use (the same monotonic-capacity
// audit contract as the crossbar scratch pool).
type tileBatchScratch struct {
	outs  []float64
	costs []energy.Cost
	dsts  [][]float64
	ins   [][]float64
	nss   []noise.Source
}

// NewTile returns an empty tile that will allocate crossbars on Program.
func NewTile(cfg Config) (*Tile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tile{cfg: cfg}, nil
}

// Config returns the tile's per-crossbar configuration.
func (t *Tile) Config() Config { return t.cfg }

// Shape returns the programmed logical matrix dimensions.
func (t *Tile) Shape() (rows, cols int) { return t.rows, t.cols }

// BlockGrid returns the crossbar grid dimensions.
func (t *Tile) BlockGrid() (brows, bcols int) {
	if len(t.blocks) == 0 {
		return 0, 0
	}
	return len(t.blocks), len(t.blocks[0])
}

// CrossbarCount returns the number of physical crossbars in use.
func (t *Tile) CrossbarCount() int {
	br, bc := t.BlockGrid()
	return br * bc
}

// SetFaults installs a device-fault model for every block of the tile,
// effective from the next Program. Each block derives its own child fault
// source by block index, so which cells are stuck never depends on pool
// width or programming order. A zero model disables injection.
func (t *Tile) SetFaults(m faultinject.Model, src noise.Source) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if m.Enabled() && !src.Valid() {
		return fmt.Errorf("crossbar: enabled fault model requires a fault source")
	}
	t.faults = m
	t.faultSrc = src
	return nil
}

// FaultsEnabled reports whether device-fault injection is active.
func (t *Tile) FaultsEnabled() bool { return t.faults.Enabled() }

// FaultReport aggregates the per-block fault reports of the most recent
// Program pass in fixed (block-row, block-col) order.
func (t *Tile) FaultReport() faultinject.Report {
	var rep faultinject.Report
	for _, row := range t.blocks {
		for _, b := range row {
			rep.Add(b.FaultReport())
		}
	}
	return rep
}

// Writes returns total lifetime cell-programming operations, including
// wear on arrays retired by reshaping reprograms.
func (t *Tile) Writes() int64 {
	n := t.pastWrites
	for _, row := range t.blocks {
		for _, b := range row {
			n += b.Writes()
		}
	}
	return n
}

// Program loads an arbitrary M x N matrix, allocating the block grid. It
// returns the programming cost: blocks program in parallel (latency = max
// block latency), energy sums.
func (t *Tile) Program(w [][]float64) (energy.Cost, error) {
	return t.ProgramCtx(obs.Ctx{}, w)
}

// ProgramCtx is Program under a trace span: the whole tile write is a
// "tile.program" child of pc, with one "xbar.program" grandchild per block
// (blocks program from pool workers; span recording is concurrency-safe).
// A zero Ctx traces nothing.
func (t *Tile) ProgramCtx(pc obs.Ctx, w [][]float64) (energy.Cost, error) {
	m := len(w)
	if m == 0 {
		return energy.Zero, fmt.Errorf("crossbar: empty weight matrix")
	}
	n := len(w[0])
	if n == 0 {
		return energy.Zero, fmt.Errorf("crossbar: empty weight rows")
	}
	for r, row := range w {
		if len(row) != n {
			return energy.Zero, fmt.Errorf("crossbar: ragged matrix at row %d", r)
		}
	}

	sp := pc.Child("tile.program")

	brows := (m + t.cfg.Rows - 1) / t.cfg.Rows
	bcols := (n + t.cfg.Cols - 1) / t.cfg.Cols

	// Same logical shape: reprogram the existing arrays in place so wear
	// accumulates on the physical cells. A reshape retires the old arrays
	// (their wear is preserved in pastWrites) and allocates fresh ones.
	reuse := t.programmed && t.rows == m && t.cols == n
	if !reuse {
		for _, row := range t.blocks {
			for _, b := range row {
				t.pastWrites += b.Writes()
			}
		}
		t.blocks = make([][]*Crossbar, brows)
		for br := range t.blocks {
			t.blocks[br] = make([]*Crossbar, bcols)
		}
	}

	// Blocks are independent (each owns its arrays), so programming fans
	// out across the worker pool; per-block costs are folded afterwards in
	// fixed (br, bc) order so the accumulated energy is bit-identical to a
	// serial run at any pool width.
	blockCosts := make([]energy.Cost, brows*bcols)
	err := parallel.ForErr(brows*bcols, func(b int) error {
		br, bc := b/bcols, b%bcols
		r0 := br * t.cfg.Rows
		r1 := min(r0+t.cfg.Rows, m)
		c0 := bc * t.cfg.Cols
		c1 := min(c0+t.cfg.Cols, n)
		sub := make([][]float64, r1-r0)
		for r := r0; r < r1; r++ {
			sub[r-r0] = w[r][c0:c1]
		}
		xb := t.blocks[br][bc]
		if xb == nil {
			var err error
			xb, err = New(t.cfg)
			if err != nil {
				return err
			}
			t.blocks[br][bc] = xb
		}
		// (Re)install the fault model before programming: block b keys
		// its faults off the derived child source, so stuck positions are
		// stable across reprograms and pool widths. Idempotent when the
		// model is unchanged; a zero model is a disable.
		bsrc := NoNoise
		if t.faultSrc.Valid() {
			bsrc = t.faultSrc.Derive(uint64(b))
		}
		if err := xb.SetFaults(t.faults, bsrc); err != nil {
			return fmt.Errorf("crossbar: block (%d,%d) faults: %w", br, bc, err)
		}
		c, err := xb.ProgramCtx(sp, sub)
		if err != nil {
			return fmt.Errorf("crossbar: program block (%d,%d): %w", br, bc, err)
		}
		blockCosts[b] = c
		return nil
	})
	if err != nil {
		sp.End(energy.Zero)
		return energy.Zero, err
	}
	cost := energy.Zero
	for _, c := range blockCosts {
		cost = cost.Par(c)
	}
	t.rows, t.cols = m, n
	t.programmed = true
	if sp.Active() {
		sp.Annotate("blocks", float64(brows*bcols))
	}
	sp.End(cost)
	return cost, nil
}

// MVM computes y = W · input across the block grid: MVMBatch on a batch
// of one. Blocks run in parallel regardless of noise: block b draws from
// the derived stream ns.Derive(b), so noisy outputs are bit-identical at
// any worker-pool width.
func (t *Tile) MVM(input []float64, ns noise.Source) ([]float64, energy.Cost, error) {
	outs, cost, err := t.MVMBatch([][]float64{input}, []noise.Source{ns})
	if err != nil {
		return nil, energy.Zero, err
	}
	return outs[0], cost, nil
}

// MVMBatch computes y_i = W · input_i for every batch item across the
// block grid. nss supplies one noise source per item (nil when the
// configuration is noise-free); block b of item i draws from
// nss[i].Derive(b), whatever batch the item rides in. The returned cost
// is the uniform per-item tile MVM cost; batch-level cost models belong
// to the caller.
func (t *Tile) MVMBatch(inputs [][]float64, nss []noise.Source) ([][]float64, energy.Cost, error) {
	return t.MVMBatchCtx(obs.Ctx{}, inputs, nss)
}

// MVMBatchCtx is MVMBatch under a trace span: one "tile.mvm_batch" child
// of pc, annotated with the batch size and recording the serial-equivalent
// cost (per-item cost × batch), with one "xbar.mvm_batch" grandchild per
// (block, item-chunk) task. With a zero Ctx the serving hot path stays
// allocation-free below the (returned) output panel.
func (t *Tile) MVMBatchCtx(pc obs.Ctx, inputs [][]float64, nss []noise.Source) ([][]float64, energy.Cost, error) {
	sp := pc.Child("tile.mvm_batch")
	outs, cost, err := t.mvmBatch(sp, inputs, nss)
	if sp.Active() {
		sp.Annotate("batch", float64(len(inputs)))
	}
	sp.End(energy.Cost{
		LatencyPS: cost.LatencyPS * int64(len(inputs)),
		EnergyPJ:  cost.EnergyPJ * float64(len(inputs)),
	})
	return outs, cost, err
}

// mvmBatch fans the batch out over (block × item-chunk) tasks — blocks
// alone would under-fill the worker pool for small tiles, items alone
// would re-pay every block's weight-panel traffic per item — and each
// task runs the crossbar kernel (MVMBatchInto) on its item panel.
// Chunking affects only wall-clock locality and parallelism: item i's
// noise comes from its own derived stream, and block stripes merge in
// fixed (block, item) order, so outputs are bit-identical at any pool
// width and any chunking.
func (t *Tile) mvmBatch(sp obs.Ctx, inputs [][]float64, nss []noise.Source) ([][]float64, energy.Cost, error) {
	if !t.programmed {
		return nil, energy.Zero, fmt.Errorf("crossbar: tile MVM before Program")
	}
	n := len(inputs)
	if nss != nil && len(nss) != n {
		return nil, energy.Zero, fmt.Errorf("crossbar: %d noise sources for %d inputs", len(nss), n)
	}
	for i, in := range inputs {
		if len(in) != t.rows {
			return nil, energy.Zero, fmt.Errorf("crossbar: input %d length %d != rows %d", i, len(in), t.rows)
		}
	}
	if n == 0 {
		return [][]float64{}, energy.Zero, nil
	}

	brows, bcols := t.BlockGrid()
	nb := brows * bcols

	// Split the batch into chunks so (blocks × chunks) covers the worker
	// pool; at width 1 the whole batch stays in one chunk per block for
	// maximum weight-panel reuse.
	chunks := (parallel.Width() + nb - 1) / nb
	if chunks > n {
		chunks = n
	}
	chunkSz := (n + chunks - 1) / chunks
	chunks = (n + chunkSz - 1) / chunkSz
	tasks := nb * chunks

	s := t.getBatchScratch(nb, n, tasks)
	defer t.batchScratch.Put(s)

	stride := t.cfg.Cols
	err := parallel.ForErr(tasks, func(tk int) error {
		b, k := tk/chunks, tk%chunks
		i0 := k * chunkSz
		i1 := min(i0+chunkSz, n)
		if i0 >= i1 {
			return nil
		}
		br, bc := b/bcols, b%bcols
		r0 := br * t.cfg.Rows
		r1 := min(r0+t.cfg.Rows, t.rows)
		c0 := bc * t.cfg.Cols
		c1 := min(c0+t.cfg.Cols, t.cols)
		for i := i0; i < i1; i++ {
			idx := b*n + i
			s.ins[idx] = inputs[i][r0:r1]
			s.dsts[idx] = s.outs[idx*stride : idx*stride+(c1-c0)]
			if nss != nil {
				s.nss[idx] = NoNoise
				if nss[i].Valid() {
					s.nss[idx] = nss[i].Derive(uint64(b))
				}
			}
		}
		var bnss []noise.Source
		if nss != nil {
			bnss = s.nss[b*n+i0 : b*n+i1]
		}
		c, err := t.blocks[br][bc].MVMBatchIntoCtx(sp, s.dsts[b*n+i0:b*n+i1], s.ins[b*n+i0:b*n+i1], bnss)
		if err != nil {
			return fmt.Errorf("crossbar: block (%d,%d) MVM: %w", br, bc, err)
		}
		s.costs[tk] = c
		return nil
	})
	if err != nil {
		return nil, energy.Zero, err
	}

	// Per-item cost: fold block costs in fixed order (chunk 0 of every
	// block is never empty and all chunks report the same
	// shape-determined cost).
	cost := energy.Zero
	for b := 0; b < nb; b++ {
		cost = cost.Par(s.costs[b*chunks])
	}

	// Deterministic reduction: digital adds in (block, item) order — per
	// output element the block stripes accumulate in ascending block
	// order.
	slab := make([]float64, n*t.cols)
	out := make([][]float64, n)
	for i := range out {
		out[i] = slab[i*t.cols : (i+1)*t.cols]
	}
	for b := 0; b < nb; b++ {
		c0 := (b % bcols) * t.cfg.Cols
		c1 := min(c0+t.cfg.Cols, t.cols)
		for i := 0; i < n; i++ {
			stripe := s.outs[(b*n+i)*stride : (b*n+i)*stride+(c1-c0)]
			dst := out[i][c0:]
			for j, v := range stripe {
				dst[j] += v
			}
		}
	}
	// Digital merge: one add per partial element beyond the first block row.
	if brows > 1 {
		merges := int64(brows-1) * int64(t.cols)
		cost = cost.Seq(energy.Cost{
			LatencyPS: energy.EDRAMAccessLatencyPS,
			EnergyPJ:  float64(merges) * energy.ShiftAddEnergyPJ,
		})
	}
	return out, cost, nil
}

// getBatchScratch pops (or grows) a pooled batch workspace for nb blocks,
// n items, and the given task count.
func (t *Tile) getBatchScratch(nb, n, tasks int) *tileBatchScratch {
	s, _ := t.batchScratch.Get().(*tileBatchScratch)
	if s == nil {
		s = &tileBatchScratch{}
	}
	if need := nb * n * t.cfg.Cols; cap(s.outs) < need {
		s.outs = make([]float64, need)
	} else {
		s.outs = s.outs[:need]
	}
	if cap(s.costs) < tasks {
		s.costs = make([]energy.Cost, tasks)
	} else {
		s.costs = s.costs[:tasks]
	}
	if need := nb * n; cap(s.dsts) < need {
		s.dsts = make([][]float64, need)
		s.ins = make([][]float64, need)
		s.nss = make([]noise.Source, need)
	} else {
		s.dsts = s.dsts[:need]
		s.ins = s.ins[:need]
		s.nss = s.nss[:need]
	}
	return s
}
