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
// The simulator mirrors the hardware's spatial parallelism: the blocks of
// Program and the (item chunk × column-block group) tasks of an MVM fan out
// across the internal/parallel worker pool. An MVM task owns finished output
// elements: it walks its column blocks' block rows in ascending order,
// quantizing each row block's inputs once, and every block adds its stripe
// straight into the destination, so an output element is the same
// 0 + b₀ + b₁ + … whichever task computes it, and costs fold in fixed (row,
// column) order: outputs and cost totals are bit-identical to serial
// execution at any pool width. Analog read noise no longer forces sequential
// evaluation: each block derives its own counter-based noise stream
// (ns.Derive(blockIndex)), so the draw applied to any (block, bit, slice,
// column) is a pure function of position, not of goroutine schedule (see
// internal/noise and docs/PARALLELISM.md). A Tile's mutating methods are not
// safe for concurrent use from multiple goroutines, while MVM on a programmed
// tile — noisy or not — is read-only and may be called concurrently.
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
	// batchScratch pools the per-call view arenas so steady-state tile MVMs
	// allocate nothing. Pooled (not a plain field) because a programmed tile
	// may serve concurrent MVMs.
	batchScratch sync.Pool
}

// tileBatchScratch is the pooled per-call workspace for a tile MVM: the
// input-view, destination-view and derived-source arenas its tasks hand to
// the crossbar steps, one element per (column-block group, item) — each
// belongs to exactly one task, which rewrites it per block. There is no
// output arena: blocks accumulate into the caller's destination. Sized on
// every use (grow).
type tileBatchScratch struct {
	dsts [][]float64
	ins  [][]float64
	nss  []noise.Source
}

// NewTile returns an empty tile that will allocate crossbars on Program.
func NewTile(cfg Config) (*Tile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tile{cfg: cfg}, nil
}

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
	outs := newPanel(len(inputs), t.cols)
	cost, err := t.MVMBatchIntoCtx(obs.Ctx{}, outs, inputs, nss, nil)
	if err != nil {
		return nil, energy.Zero, err
	}
	return outs, cost, nil
}

// MVMBatchIntoCtx is the tile's one MVM entry: MVMBatch writing into the
// caller's panel (dsts[i] of length cols, overwritten whatever it held,
// unspecified after an error), under one "tile.mvm_batch" child of pc that
// carries the batch size and the serial-equivalent cost (per-item cost ×
// batch) and has one "xbar.mvm_batch" grandchild per (block, item-chunk)
// read. finish, when not nil, is the digital tail of the read: it is called
// exactly once per item on every stripe of finished output elements —
// columns [c0, c0+len(stripe)) of that item's dst, after their last block
// row — from the pool worker that computed them, so it must be safe to call
// concurrently on disjoint stripes; which columns share a stripe follows the
// fan-out, not the caller. A steady-state call allocates no panel, slab or
// view, only what the fan-out itself does.
func (t *Tile) MVMBatchIntoCtx(pc obs.Ctx, dsts, inputs [][]float64, nss []noise.Source, finish func(c0 int, stripe []float64)) (energy.Cost, error) {
	sp := pc.Child("tile.mvm_batch")
	cost, err := t.mvmBatch(sp, dsts, inputs, nss, finish)
	endBatchSpan(sp, cost, len(inputs))
	return cost, err
}

// mvmBatch fans the batch out over (item chunk × column-block group) tasks.
// The width is what parallel.WidthFor grants the read: a functional read
// below the pool's fan-out work (n·rows·cols MACs) is one task, run inline
// on the caller, and a bit-serial one — many conversions per MAC — gets the
// pool's width. Chunks cover that width first — one per worker, so a task's
// items meet every weight panel once — and the column blocks split into
// groups only when the batch has fewer items than the width; both follow
// from (batch, width, block grid) and nothing else. A task owns the output
// elements of its items on its columns, start to finish: per block row, in
// ascending order, it quantizes its items' slice of that row once
// (Crossbar.quantize) and every block of its group adds its stripe straight
// into dsts (Crossbar.multiply: 0 + b₀ for the first row, += after); then
// finish runs on what is now final. The decomposition affects only
// wall-clock locality and parallelism: block b = br·bcols + bc of item i
// draws from nss[i].Derive(b) and an element's block-row sum has one order,
// so outputs are bit-identical at any width and any batch.
func (t *Tile) mvmBatch(sp obs.Ctx, dsts, inputs [][]float64, nss []noise.Source, finish func(c0 int, stripe []float64)) (energy.Cost, error) {
	if !t.programmed {
		return energy.Zero, fmt.Errorf("crossbar: tile MVM before Program")
	}
	n := len(inputs)
	if len(dsts) != n {
		return energy.Zero, fmt.Errorf("crossbar: %d dsts for %d inputs", len(dsts), n)
	}
	if err := t.cfg.checkSources(nss, n); err != nil {
		return energy.Zero, err
	}
	for i, in := range inputs {
		if len(in) != t.rows {
			return energy.Zero, fmt.Errorf("crossbar: input %d length %d != rows %d", i, len(in), t.rows)
		}
		if len(dsts[i]) != t.cols {
			return energy.Zero, fmt.Errorf("crossbar: dst %d length %d != cols %d", i, len(dsts[i]), t.cols)
		}
	}
	if n == 0 {
		return energy.Zero, nil
	}
	if t.cfg.ReadNoise == 0 {
		nss = nil // no kernel reads them: spare the per-(block, item) derivations
	}

	_, bcols := t.BlockGrid()
	width := parallel.Width()
	if t.cfg.Functional {
		width = parallel.WidthFor(n * t.rows * t.cols)
	}
	chunkSz := (n + width - 1) / width
	chunks := (n + chunkSz - 1) / chunkSz
	groups := 1
	if n < width {
		groups = min(bcols, (width+chunks-1)/chunks)
	}
	groupSz := (bcols + groups - 1) / groups
	groups = (bcols + groupSz - 1) / groupSz

	s := t.getBatchScratch(groups * n)
	defer t.batchScratch.Put(s)

	err := parallel.ForErr(chunks*groups, func(tk int) error {
		k, g := tk/groups, tk%groups
		i0, i1 := k*chunkSz, min((k+1)*chunkSz, n)
		bc0, bc1 := g*groupSz, min((g+1)*groupSz, bcols)
		ins, outs := s.ins[g*n+i0:g*n+i1], s.dsts[g*n+i0:g*n+i1]
		var bnss []noise.Source
		if nss != nil {
			bnss = s.nss[g*n+i0 : g*n+i1]
		}
		for br, row := range t.blocks {
			r0 := br * t.cfg.Rows
			r1 := min(r0+t.cfg.Rows, t.rows)
			for j := range ins {
				ins[j] = inputs[i0+j][r0:r1]
			}
			// The blocks of a row share usedRows, the configuration and so
			// the kernel Program chose: one quantized panel serves them all.
			xs := row[bc0].getScratch()
			err := row[bc0].quantize(xs, ins)
			m := add
			if br == 0 {
				m = first
			}
			for bc := bc0; bc < bc1 && err == nil; bc++ {
				c0 := bc * t.cfg.Cols
				c1 := min(c0+t.cfg.Cols, t.cols)
				for j := range outs {
					outs[j] = dsts[i0+j][c0:c1]
					if nss != nil {
						bnss[j] = nss[i0+j].Derive(uint64(br*bcols + bc))
					}
				}
				row[bc].multiplyCtx(sp, xs, outs, bnss, m)
			}
			row[bc0].batchScratch.Put(xs)
			if err != nil {
				return fmt.Errorf("crossbar: block (%d,%d) MVM: %w", br, bc0, err)
			}
		}
		if finish != nil {
			c0 := bc0 * t.cfg.Cols
			c1 := min(bc1*t.cfg.Cols, t.cols)
			for _, dst := range dsts[i0:i1] {
				finish(c0, dst[c0:c1])
			}
		}
		return nil
	})
	if err != nil {
		return energy.Zero, err
	}
	return t.Cost(), nil
}

// Cost returns the per-item cost of one read of the programmed tile — what
// every MVM charges, a pure function of the programmed shape and the
// configuration (zero before Program). Block costs are tabulated at Program
// and fold in fixed (row, column) order; block rows past the first add one
// digital merge per output element.
func (t *Tile) Cost() energy.Cost {
	cost := energy.Zero
	for _, row := range t.blocks {
		for _, b := range row {
			cost = cost.Par(b.cost)
		}
	}
	if brows := len(t.blocks); brows > 1 {
		merges := int64(brows-1) * int64(t.cols)
		cost = cost.Seq(energy.Cost{
			LatencyPS: energy.EDRAMAccessLatencyPS,
			EnergyPJ:  float64(merges) * energy.ShiftAddEnergyPJ,
		})
	}
	return cost
}

// getBatchScratch pops (or grows) a pooled batch workspace of the given
// number of views.
func (t *Tile) getBatchScratch(views int) *tileBatchScratch {
	s, _ := t.batchScratch.Get().(*tileBatchScratch)
	if s == nil {
		s = &tileBatchScratch{}
	}
	s.dsts, s.ins, s.nss = grow(s.dsts, views), grow(s.ins, views), grow(s.nss, views)
	return s
}
