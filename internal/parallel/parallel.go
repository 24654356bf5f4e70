// Package parallel is the simulator's shared worker-pool layer: bounded
// goroutine fan-out with deterministic result ordering for the hot paths in
// internal/crossbar (the item chunk × column-block group tasks of a tiled
// batched MVM, the blocks of tile programming), internal/dpe (layer
// programming, cluster boards), and internal/experiments (sweep points). The
// serving pipeline (internal/serve) rides the same pool: every micro-batch it
// flushes is one dpe.Engine.InferBatchKeyed call, which advances the whole
// batch stage by stage; each stage's tile read (crossbar.Tile.mvmBatch,
// whose tasks also do a dense stage's merge, bias and activation) asks
// WidthFor for its width, so a small read — a serving flush of one or a few
// requests — runs inline on the flusher and only a read large enough to pay
// for a fork-join fans out. One width knob and one work rule govern both
// offline sweeps and online serving.
//
// The hardware this repository simulates is massively spatially parallel —
// thousands of crossbar tiles compute matrix-vector products at once — so
// the natural simulation strategy is embarrassingly parallel too: every
// tile, batch item, and sweep point is an independent unit of work. This
// package turns that independence into wall-clock speedup without touching
// the *simulated* cost accounting, which stays in deterministic virtual
// time (see internal/energy).
//
// # Determinism
//
// Every helper assigns work by index and stores results by index. Callers
// reduce (sum energies, max latencies, concatenate rows) over the result
// slice in index order after the fan-out completes, so floating-point
// reductions happen in exactly the order the serial code used. A run at
// width 16 is therefore bit-identical to a run at width 1 — the equivalence
// tests in crossbar, dpe, and experiments assert this at widths 1/4/16.
//
// # Sequential mode
//
// SetWidth(1) selects sequential mode: work runs inline on the calling
// goroutine, in index order, with no goroutines spawned. Reproducibility
// tests pin it as the reference, and it is handy when profiling
// single-thread hot spots. No simulation path requires it anymore: analog
// read noise is counter-based (internal/noise draws are pure functions of
// position, not draw order), so even noise studies fan out at any width
// and stay bit-identical to sequential mode.
//
// # Width
//
// The pool width defaults to GOMAXPROCS and is process-global, set once at
// startup (cmd/cimbench -parallel N) or per-test via SetWidth. Width is
// the maximum number of concurrently executing units of work per For/Map
// call; nested fan-outs (an experiment sweep whose points run batched
// inference over tiled crossbars) may multiply momentarily, which is
// harmless for CPU-bound simulation work at these scales.
//
// # Work
//
// A fork-join costs goroutine starts, wake-ups and a barrier whatever the
// work behind it, and below a certain size the work is cheaper than that.
// WidthFor is the one rule for when a call's work pays: at the default
// width, a call of fewer than fanOutMACs multiply-accumulates runs on one
// worker, inline on its caller, without consulting GOMAXPROCS; from there
// on it gets the full width. A width set explicitly with SetWidth is taken
// as asked, whatever the work, so pinned-width suites and cimbench
// -parallel N keep exactly N workers. The rule decides only which
// goroutine runs a task, never what the task computes, so it cannot change
// a result.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// width holds the configured pool width; 0 means "use GOMAXPROCS".
var width atomic.Int32

// fanOutMACs is the work, in multiply-accumulates, from which a call at the
// default width fans out: 2²¹, a 256×256 functional read of 32 items. On a
// 2-vCPU amd64 host a batch-16 read of the 256-wide MLP ran no faster on two
// workers than inline, and a batch-32 one 1.2–1.3× faster
// (docs/perf/2026-10-15-pr27.md).
const fanOutMACs = 1 << 21

// Width returns the current worker-pool width. It defaults to
// runtime.GOMAXPROCS(0) and is always at least 1.
func Width() int {
	if w := int(width.Load()); w > 0 {
		return w
	}
	if n := runtime.GOMAXPROCS(0); n > 0 {
		return n
	}
	return 1
}

// SetWidth sets the global worker-pool width. n == 1 selects sequential
// mode (work runs inline, in order, on the calling goroutine); n <= 0
// resets to the GOMAXPROCS default.
func SetWidth(n int) {
	if n <= 0 {
		width.Store(0)
		return
	}
	width.Store(int32(n))
}

// WidthFor returns the worker count for a call whose work is macs
// multiply-accumulates: the explicitly set width if there is one, else 1
// below fanOutMACs and Width() from there on. Below the constant it reads
// one atomic and nothing else.
func WidthFor(macs int) int {
	if w := int(width.Load()); w > 0 {
		return w
	}
	if macs < fanOutMACs {
		return 1
	}
	return Width()
}

// Sequential reports whether the pool is in sequential mode (width 1).
func Sequential() bool { return Width() == 1 }

// For runs fn(i) for every i in [0, n), fanning out across at most
// Width() goroutines, and returns when all calls have completed. Indices
// are claimed in ascending order. fn must either be safe for concurrent
// invocation or the caller must be in sequential mode. A panic in any fn
// is re-raised on the calling goroutine after the remaining workers drain.
func For(n int, fn func(i int)) {
	ForWidth(Width(), n, fn)
}

// ForWidth is For with an explicit width override, independent of the
// global setting. width <= 1 or n <= 1 runs inline and in order.
func ForWidth(width, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if width > n {
		width = n
	}
	if width <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var (
		next     atomic.Int64 // next index to claim
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked bool
		panicVal any
	)
	work := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if !panicked {
					panicked, panicVal = true, r
					// Poison the counter so idle workers stop claiming.
					next.Store(int64(n))
				}
				panicMu.Unlock()
			}
		}()
		for {
			i := next.Add(1) - 1
			if i >= int64(n) {
				return
			}
			fn(int(i))
		}
	}
	wg.Add(width)
	for w := 0; w < width; w++ {
		go work()
	}
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
}

// ForErr runs fn(i) for every i in [0, n) across the pool and returns the
// error with the lowest index, or nil if every call succeeded. Once an
// error is observed, workers stop claiming new indices; because indices
// are claimed in ascending order, any in-flight lower index still
// completes, so the returned error is deterministic. (The serial path
// stops at the first error; the parallel path may execute a few extra
// higher-index calls before halting — side effects past the failing index
// are therefore best-effort, exactly as with hardware running ahead of a
// fault.)
func ForErr(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 || Sequential() { // n first: one task never asks for GOMAXPROCS
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var failed atomic.Bool
	For(n, func(i int) {
		if failed.Load() {
			return
		}
		if err := fn(i); err != nil {
			errs[i] = err
			failed.Store(true)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn(i) for every i in [0, n) across the pool and returns the
// results in index order.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	For(n, func(i int) { out[i] = fn(i) })
	return out
}

// MapErr runs fn(i) for every i in [0, n) across the pool, collecting
// results in index order. On error it returns nil and the lowest-index
// error (see ForErr for the determinism argument).
func MapErr[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForErr(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
