package montecarlo

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/faultinject"
)

// Snapshot is the resumable state of an adaptive run: the stream it
// folds, the number of whole chunks folded so far, their merged
// accumulators (see fold) and, when the run keeps one, their merged
// quantile sketch. Because the engine folds chunks strictly in index
// order and what a chunk draws depends only on Seed and the chunk
// index, a snapshot at k chunks is exactly the intermediate state of ANY
// longer run with the same seed and stream — extending it from chunk k
// is bit-identical to a cold run of the larger chunk count (see
// adaptive_test.go). That is what lets the makespand registry tighten a
// stored estimate without re-running the trials it already paid for.
//
// Snapshots are immutable once returned: ResumeAdaptive deep-copies its
// input and returns a fresh value, so a stored snapshot can be shared
// across concurrent readers and extension runs.
type Snapshot struct {
	frozen *dag.Frozen // identity of the compiled graph the chunks ran on
	seed   uint64
	mode   Mode
	stream stream
	chunks int64
	acc    [3]Welford      // R and M − d0 of the draws, and M of every trial (see fold)
	sketch *QuantileSketch // only on the sketchStream
}

// stream names the trial stream an adaptive run folds; a snapshot
// extends only under an estimator on the same stream.
type stream uint8

const (
	plainStream  stream = iota // every trial, no sketch
	sketchStream               // every trial, with a quantile sketch
	stratStream                // the stratified estimator's conditional draws
)

func (s stream) String() string {
	return [...]string{"plain", "plain with sketch", "stratified"}[s]
}

// stream returns the stream e's runs fold.
func (e *Estimator) stream() stream {
	switch {
	case e.stratified():
		return stratStream
	case e.sketch():
		return sketchStream
	}
	return plainStream
}

// Chunks returns the number of whole trial chunks folded into the snapshot.
func (s *Snapshot) Chunks() int64 { return s.chunks }

// Trials returns the number of nominal trials folded into the snapshot
// (Chunks · ChunkTrials; adaptive runs are always chunk-aligned).
func (s *Snapshot) Trials() int { return int(s.chunks) * chunkSize }

// Seed returns the RNG seed the snapshot's chunks were drawn with.
func (s *Snapshot) Seed() uint64 { return s.seed }

// Mode returns the re-execution model the snapshot's trials sampled.
func (s *Snapshot) Mode() Mode { return s.mode }

// Sketch returns an independent copy of the snapshot's merged quantile
// sketch, safe to query and mutate without affecting the snapshot; nil
// for a run that keeps none (Config.Sketch).
func (s *Snapshot) Sketch() *QuantileSketch {
	if s.sketch == nil {
		return nil
	}
	return s.sketch.Clone()
}

// Clone returns an independent deep copy of the snapshot.
func (s *Snapshot) Clone() *Snapshot {
	c := *s
	c.sketch = s.Sketch()
	return &c
}

// SizeBytes reports the approximate retained heap size of the snapshot:
// its fixed part plus, when it keeps one, the sketch's cell array (the
// frozen graph is shared with its owner and accounted there). Registry
// entries use it for artifact accounting.
func (s *Snapshot) SizeBytes() int64 {
	if s.sketch == nil {
		return 192
	}
	return int64(len(s.sketch.cells))*8 + 192
}

// checkSnapshot verifies that snap was produced by an estimator sharing
// this estimator's compiled snapshot, seed, mode and stream — the
// conditions under which extending it reproduces a cold run
// bit-identically.
func (e *Estimator) checkSnapshot(snap *Snapshot) error {
	if snap.frozen != e.frozen {
		return fmt.Errorf("montecarlo: snapshot from a different compiled graph")
	}
	if snap.seed != e.cfg.Seed {
		return fmt.Errorf("montecarlo: snapshot seed %d does not match config seed %d", snap.seed, e.cfg.Seed)
	}
	if snap.mode != e.cfg.Mode {
		return fmt.Errorf("montecarlo: snapshot mode %v does not match config mode %v", snap.mode, e.cfg.Mode)
	}
	if s := e.stream(); snap.stream != s {
		return fmt.Errorf("montecarlo: snapshot stream %v does not match the config's %v", snap.stream, s)
	}
	return nil
}

// snapshotCI returns the half-width of the stopping statistic's confidence
// interval at the snapshot's current trial count: the TargetQuantile's
// order-statistic interval from the sketch, or the mean's normal interval.
// ok is false while too few samples exist to form the interval.
func (e *Estimator) snapshotCI(s *Snapshot) (ci float64, ok bool) {
	if s.chunks == 0 {
		return 0, false
	}
	if q := e.cfg.TargetQuantile; q > 0 {
		lo, hi, err := s.sketch.QuantileCI(q, e.cfg.Confidence)
		if err != nil {
			return 0, false
		}
		return (hi - lo) / 2, true
	}
	z := normalQuantile(0.5 + e.cfg.Confidence/2)
	return z * e.result(s.acc, s.Trials()).StdErr, true
}

// converged reports whether the snapshot satisfies the estimator's
// stopping rule (Tolerance at Confidence on the target statistic).
func (e *Estimator) converged(s *Snapshot) bool {
	ci, ok := e.snapshotCI(s)
	return ok && ci <= e.cfg.Tolerance
}

// SnapshotConverged reports whether snap already satisfies this
// estimator's adaptive stopping rule, without running any trials. False
// when snap belongs to a different (graph, seed, mode). The service uses
// it to decide between serving a stored snapshot and extending it.
func (e *Estimator) SnapshotConverged(snap *Snapshot) bool {
	return e.checkSnapshot(snap) == nil && e.converged(snap)
}

// SnapshotResult returns the Result an adaptive run stopping at snap's
// state would report under this estimator's configuration, without
// running trials. The service uses it to derive per-request results —
// each with its own tolerance's Converged/AchievedCI — from one shared
// run's snapshot.
func (e *Estimator) SnapshotResult(snap *Snapshot) (Result, error) {
	if !e.cfg.Adaptive() {
		return Result{}, fmt.Errorf("montecarlo: SnapshotResult needs an adaptive config (Tolerance > 0)")
	}
	if err := e.checkSnapshot(snap); err != nil {
		return Result{}, err
	}
	return e.adaptiveResult(snap), nil
}

func (e *Estimator) adaptiveResult(s *Snapshot) Result {
	res := e.result(s.acc, s.Trials())
	if ci, ok := e.snapshotCI(s); ok {
		res.AchievedCI = ci
		res.Converged = ci <= e.cfg.Tolerance
	}
	return res
}

// chunkStat is one chunk's contribution, produced by whichever worker ran
// it and folded by the reducer in chunk-index order.
type chunkStat struct {
	c      int64
	acc    [3]Welford      // as in Snapshot
	sketch *QuantileSketch // only when the run keeps one
}

// chunkStat runs whole chunk c of e's stream and summarizes it.
func (wk *mcWorker) chunkStat(c int64) chunkStat {
	e := wk.e
	st := chunkStat{c: c}
	wk.run(int(c), int(c)+1)
	k := e.span(int(c)+1) - e.span(int(c))
	wk.fold(&st.acc, 0, k)
	if e.sketch() {
		st.sketch = NewQuantileSketch(DefaultSketchCells)
		for _, x := range wk.res[:k] {
			st.sketch.Add(x)
		}
	}
	return st
}

// ResumeAdaptive runs the estimator's adaptive stopping loop, optionally
// continuing from a previous snapshot, and returns the final result plus
// the snapshot to store for later extension. The config must be adaptive
// (Tolerance > 0); prev may be nil for a cold start and must come from the
// same (compiled graph, Seed, Mode) otherwise. prev is never mutated.
//
// Whole ChunkTrials-sized chunks are executed by Workers goroutines, but
// their statistics are folded strictly in chunk-index order, and the
// stopping decision is re-evaluated only after each in-order fold — so the
// stopping chunk count is a deterministic function of (Seed, Mode,
// stopping rule) alone, and the returned Result is bit-identical to a
// fixed-budget run of the same chunk count for any worker count. With
// several workers, chunks started speculatively past the stopping point
// are discarded; a single worker runs the chunks in the calling goroutine
// and starts none past it. The MaxTrials cap always binds; a run reaching
// it returns with Result.Converged reporting whether the tolerance was
// also met.
//
// progress, when non-nil, replaces the estimator's own stopping check: it
// is called after every in-order fold (and once before the first chunk)
// with the current snapshot and returns true to stop. The snapshot passed
// in is live — callers retaining it past the call must Clone it. The
// service's coalescer uses progress to unblock each waiting request as
// soon as the shared run satisfies that request's tolerance.
//
// A prev snapshot that already satisfies the stopping rule (or already
// holds MaxTrials) returns immediately with no trials run — the warm
// cache-hit path.
func (e *Estimator) ResumeAdaptive(prev *Snapshot, progress func(*Snapshot) bool) (Result, *Snapshot, error) {
	return e.ResumeAdaptiveContext(context.Background(), prev, progress)
}

// ResumeAdaptiveContext is ResumeAdaptive with cancellation, honored at
// chunk boundaries. A run cancelled before the stopping rule fires
// returns ctx.Err() with neither Result nor Snapshot: the chunks it
// paid for are discarded whole, so the caller's stored snapshot (prev,
// which is never mutated) stays valid and a retry extends it
// bit-identically. If the stopping decision lands before the
// cancellation is observed, the completed prefix is returned normally.
func (e *Estimator) ResumeAdaptiveContext(ctx context.Context, prev *Snapshot, progress func(*Snapshot) bool) (Result, *Snapshot, error) {
	if err := e.fresh(); err != nil {
		return Result{}, nil, err
	}
	if !e.cfg.Adaptive() {
		return Result{}, nil, fmt.Errorf("montecarlo: ResumeAdaptive needs an adaptive config (Tolerance > 0)")
	}
	var cur *Snapshot
	if prev != nil {
		if err := e.checkSnapshot(prev); err != nil {
			return Result{}, nil, err
		}
		cur = prev.Clone()
	} else {
		cur = &Snapshot{
			frozen: e.frozen,
			seed:   e.cfg.Seed,
			mode:   e.cfg.Mode,
			stream: e.stream(),
		}
		if e.sketch() {
			cur.sketch = NewQuantileSketch(DefaultSketchCells)
		}
	}
	stop := func() bool {
		if progress != nil {
			return progress(cur)
		}
		return e.converged(cur)
	}
	maxChunks := int64(e.cfg.MaxTrials / chunkSize)
	if cur.chunks >= maxChunks || stop() {
		return e.adaptiveResult(cur), cur, nil
	}
	// fold merges the next in-order chunk and reports whether to stop.
	fold := func(st chunkStat) bool {
		merge(&cur.acc, st.acc)
		if cur.sketch != nil {
			cur.sketch.Merge(st.sketch)
		}
		cur.chunks++
		return cur.chunks >= maxChunks || stop()
	}
	workers := e.cfg.Workers
	if int64(workers) > maxChunks-cur.chunks {
		workers = int(maxChunks - cur.chunks)
	}
	if workers < 1 {
		workers = 1
	}
	done := ctx.Done()
	if workers == 1 {
		// One worker: run each chunk only once the previous one is folded
		// and the stopping rule has passed on it, so no chunk is executed
		// past the stopping point.
		wk := e.newWorker()
		for {
			if err := chunkGate(ctx, done); err != nil {
				return Result{}, nil, err
			}
			if fold(wk.chunkStat(cur.chunks)) {
				return e.adaptiveResult(cur), cur, nil
			}
		}
	}

	// Workers pull chunk indices from next, bounded by limit; limit drops
	// to the stopping point once the in-order reducer decides to stop, so
	// in-flight speculation drains quickly. Results flow over a channel to
	// this goroutine, which holds out-of-order chunks in pending and folds
	// them in index order.
	results := make(chan chunkStat, workers)
	var next, limit atomic.Int64
	var abort atomic.Bool
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		abort.Store(true)
	}
	next.Store(cur.chunks)
	limit.Store(maxChunks)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := e.newWorker()
			for {
				c := next.Add(1) - 1
				if c >= limit.Load() {
					return
				}
				if done != nil || faultinject.Enabled() {
					if abort.Load() {
						return
					}
					if err := chunkGate(ctx, done); err != nil {
						fail(err)
						return
					}
				}
				results <- wk.chunkStat(c)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	pending := make(map[int64]chunkStat)
	stopped := false
	for st := range results {
		if stopped || st.c >= limit.Load() {
			continue // speculative chunk past the stopping point
		}
		pending[st.c] = st
		for !stopped {
			nst, ok := pending[cur.chunks]
			if !ok {
				break
			}
			delete(pending, cur.chunks)
			if fold(nst) {
				stopped = true
				limit.Store(cur.chunks)
			}
		}
	}
	if !stopped && cur.chunks < maxChunks {
		// The only way the chunk stream dries up before the stopping rule
		// fires is a worker aborting on cancellation or an injected fault.
		// Discard the partial fold entirely: no Result, no Snapshot.
		if firstErr != nil {
			return Result{}, nil, firstErr
		}
		if err := ctx.Err(); err != nil {
			return Result{}, nil, err
		}
	}
	return e.adaptiveResult(cur), cur, nil
}

// normalQuantile returns the standard normal inverse CDF at p ∈ (0,1)
// (Acklam's rational approximation, relative error < 1.15e-9 — far below
// the binomial normal-approximation error it feeds).
func normalQuantile(p float64) float64 {
	const (
		a1   = -3.969683028665376e+01
		a2   = 2.209460984245205e+02
		a3   = -2.759285104469687e+02
		a4   = 1.383577518672690e+02
		a5   = -3.066479806614716e+01
		a6   = 2.506628277459239e+00
		b1   = -5.447609879822406e+01
		b2   = 1.615858368580409e+02
		b3   = -1.556989798598866e+02
		b4   = 6.680131188771972e+01
		b5   = -1.328068155288572e+01
		c1   = -7.784894002430293e-03
		c2   = -3.223964580411365e-01
		c3   = -2.400758277161838e+00
		c4   = -2.549732539343734e+00
		c5   = 4.374664141464968e+00
		c6   = 2.938163982698783e+00
		d1   = 7.784695709041462e-03
		d2   = 3.224671290700398e-01
		d3   = 2.445134137142996e+00
		d4   = 3.754408661907416e+00
		pLow = 0.02425
	)
	switch {
	case !(p > 0 && p < 1):
		return math.NaN()
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p > 1-pLow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	}
}
