package service

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/montecarlo"
	"repro/internal/query"
)

// This file implements cross-request Monte Carlo coalescing: concurrent
// requests that would run the same trial stream share one kernel run.
//
// Adaptive requests coalesce on (graph entry, schedule?, policy, procs,
// λ, mode, seed) — deliberately NOT on (tolerance, target, confidence):
// the trial stream is chunk-deterministic and target-agnostic, so one
// in-flight run can serve every stopping rule, releasing each waiter as
// soon as the shared prefix satisfies *its* rule. Because the stopping
// point is a prefix of the same stream a solo run would consume, a
// waiter's response is byte-identical to the run it would have done
// alone. The converged snapshot is retained as a "snap" artifact in
// the store (keyed by the entry's graph plus the stream's SnapshotKey)
// so later requests (same or looser tolerance) are answered without
// any trials, and tighter ones extend it instead of restarting; the
// store's Put gives replacement delta accounting and eviction under
// the shared byte budget for free.
//
// Fixed-budget requests use a conventional singleflight keyed by the
// full run identity (including trials and whether a sketch is needed):
// followers arriving while the leader computes share its result.
//
// Lifetime and cancellation: each kernel runs on a goroutine the flight
// itself owns, under a flight context derived from Background — never
// from any one requester's context. Every participant (the creator
// included) registers as a waiter and counts one unit of interest; a
// participant whose request context dies detaches, and only when the
// last participant has detached is the flight context cancelled, so a
// cancelled creator hands the run off to the surviving waiters instead
// of failing their requests. A request that joins a flight just as its
// last interest lapses may be handed the dying flight's cancellation;
// it retries (its own context is live) and leads a fresh run — the
// cancellation of strangers is never surfaced to a live request.
//
// Lock order: Entry.mu → adaptiveSlot.mu → inflightRun.mu. Snapshot
// store access (which takes the resolver lock, possibly then
// Registry.mu via graph eviction) nests under adaptiveSlot.mu.

// adaptiveSlot is the per-key coalescing state: the in-flight run, if
// any. The retained prefix snapshot itself lives in the artifact store
// (Entry.snapshot / Entry.putSnapshot); the slot lock serializes the
// lookup-decide-replace sequence around it.
type adaptiveSlot struct {
	mu  sync.Mutex
	run *inflightRun
}

// inflightRun is one flight-owned adaptive kernel run: the waiters
// joined to it plus the interest count that keeps its context alive.
type inflightRun struct {
	cancel context.CancelFunc // cancels the flight context

	mu       sync.Mutex
	interest int // participants not yet released or detached
	waiters  []*adaptiveWaiter
}

type adaptiveWaiter struct {
	satisfied func(*montecarlo.Snapshot) bool
	ch        chan waiterResult // buffered(1): deliver never blocks
}

// waiterResult is one released waiter's view of the run. Mid-run
// releases carry a snapshot clone satisfying the waiter's rule; the
// final release additionally carries the flight's own Result so the
// creator returns exactly what a solo run would have (its cap binding
// even when its rule was not met).
type waiterResult struct {
	snap  *montecarlo.Snapshot
	res   montecarlo.Result
	final bool
	err   error
}

// join registers a waiter and its unit of interest.
func (r *inflightRun) join(w *adaptiveWaiter) {
	r.mu.Lock()
	r.interest++
	r.waiters = append(r.waiters, w)
	r.mu.Unlock()
}

// detach withdraws a cancelled participant. The last detach cancels the
// flight context — the kernel aborts at its next chunk boundary. A
// participant that was concurrently released by deliver is not found
// and nothing is withdrawn (its interest was already released).
func (r *inflightRun) detach(w *adaptiveWaiter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, x := range r.waiters {
		if x != w {
			continue
		}
		last := len(r.waiters) - 1
		r.waiters[i] = r.waiters[last]
		r.waiters[last] = nil
		r.waiters = r.waiters[:last]
		r.interest--
		if r.interest == 0 {
			r.cancel()
		}
		return
	}
}

// deliver hands the current prefix to every waiter it satisfies (all of
// them when final) and reports whether none remain. Each released
// waiter gets its own clone — the run keeps mutating cur.
func (r *inflightRun) deliver(cur *montecarlo.Snapshot, final bool, res montecarlo.Result, err error) (empty bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.waiters[:0]
	for _, w := range r.waiters {
		if final || w.satisfied(cur) {
			wr := waiterResult{res: res, final: final, err: err}
			if err == nil && cur != nil {
				wr.snap = cur.Clone()
			}
			w.ch <- wr
			r.interest--
		} else {
			kept = append(kept, w)
		}
	}
	// Zero the tail so dropped waiter pointers don't pin their channels.
	for i := len(kept); i < len(r.waiters); i++ {
		r.waiters[i] = nil
	}
	r.waiters = kept
	return len(kept) == 0
}

// adaptiveSlotFor returns (creating if needed) the entry's coalescing
// slot for key.
func (e *Entry) adaptiveSlotFor(key artifact.SnapshotKey) *adaptiveSlot {
	e.mu.Lock()
	defer e.mu.Unlock()
	slot := e.adapts[key]
	if slot == nil {
		slot = &adaptiveSlot{}
		e.adapts[key] = slot
	}
	return slot
}

// coalesceAdaptive answers one adaptive request through the entry's
// shared trial stream for key. Three outcomes per loop iteration: the
// stored snapshot already satisfies this request's rule (serve it, zero
// trials); a run is in flight (join it, wake when the shared prefix
// satisfies us); or create a run, extending the stored snapshot. A
// joiner released by a run that ended (its creator's cap) before this
// request's rule was met loops back — its own MaxTrials bounds the
// retry, so the loop terminates. A cancelled request detaches without
// disturbing the flight; a flight killed by everyone else's lapsed
// interest is retried, never surfaced.
func (s *Server) coalesceAdaptive(ctx context.Context, e *Entry, key artifact.SnapshotKey, runner query.Kernel) (montecarlo.Result, *montecarlo.Snapshot, error) {
	slot := e.adaptiveSlotFor(key)
	for {
		if err := ctx.Err(); err != nil {
			return montecarlo.Result{}, nil, err
		}
		slot.mu.Lock()
		if snap, ok := e.snapshot(key, true); ok && runner.SnapshotConverged(snap) {
			slot.mu.Unlock()
			res, err := runner.SnapshotResult(snap)
			return res, snap, err
		}
		w := &adaptiveWaiter{satisfied: runner.SnapshotConverged, ch: make(chan waiterResult, 1)}
		run := slot.run
		created := run == nil
		if created {
			// Lead: register our own waiter and interest before the kernel
			// goroutine exists, so the flight can never observe an empty
			// waiter set between creation and first join.
			fctx, cancel := context.WithCancel(context.Background())
			run = &inflightRun{cancel: cancel, interest: 1, waiters: []*adaptiveWaiter{w}}
			slot.run = run
			prev, _ := e.snapshot(key, false)
			slot.mu.Unlock()
			e.kernelRuns.Add(1)
			go s.runAdaptiveFlight(fctx, e, slot, key, run, runner, prev)
		} else {
			run.join(w)
			slot.mu.Unlock()
		}
		select {
		case wr := <-w.ch:
			switch {
			case wr.err != nil:
				if isCtxErr(wr.err) && ctx.Err() == nil {
					continue // strangers' lapsed interest killed the flight; retry
				}
				return montecarlo.Result{}, nil, wr.err
			case wr.final && created:
				// The creator returns the flight's own result — its cap
				// binds exactly as in a solo run even when its rule was
				// not met.
				return wr.res, wr.snap, nil
			case runner.SnapshotConverged(wr.snap):
				res, err := runner.SnapshotResult(wr.snap)
				return res, wr.snap, err
			default:
				continue // released at someone else's final, rule unmet: retry
			}
		case <-ctx.Done():
			run.detach(w)
			return montecarlo.Result{}, nil, ctx.Err()
		}
	}
}

// runAdaptiveFlight is the flight-owned kernel goroutine: it extends
// prev under the flight context, releasing waiters as the shared prefix
// satisfies them, then retains the grown snapshot and sweeps the
// stragglers. It runs under the compute gate like any other kernel.
func (s *Server) runAdaptiveFlight(fctx context.Context, e *Entry, slot *adaptiveSlot, key artifact.SnapshotKey, run *inflightRun, runner query.Kernel, prev *montecarlo.Snapshot) {
	defer run.cancel() // release the flight context's resources
	var res montecarlo.Result
	var snap *montecarlo.Snapshot
	err := s.heavy(fctx, func() error {
		var rerr error
		res, snap, rerr = runner.ResumeAdaptiveContext(fctx, prev, func(cur *montecarlo.Snapshot) bool {
			// Release every waiter the prefix satisfies first, then apply
			// the creator's own rule; stop only when both the creator and
			// all joined waiters are done.
			return run.deliver(cur, false, montecarlo.Result{}, nil) && runner.SnapshotConverged(cur)
		})
		return rerr
	})

	slot.mu.Lock()
	slot.run = nil
	if err == nil {
		if old, ok := e.snapshot(key, false); !ok || snap.Chunks() > old.Chunks() {
			e.putSnapshot(key, snap)
		}
	}
	// Sweep waiters that joined after the run's last progress call; they
	// re-evaluate against the final snapshot and retry if it still falls
	// short of their rule. Joins serialize on slot.mu, so none are lost.
	run.deliver(snap, true, res, err)
	slot.mu.Unlock()
}

// fixedFlight is one in-flight fixed-budget run; followers block on
// done and then read the leader's fields (written before close).
// Interest counting mirrors inflightRun: the kernel runs on a
// flight-owned goroutine and its context dies only when the last
// participant has detached.
type fixedFlight struct {
	done    chan struct{}
	cancel  context.CancelFunc
	joiners atomic.Int64 // followers waiting; test-hook observability

	mu       sync.Mutex
	interest int

	res montecarlo.Result
	sk  *montecarlo.QuantileSketch
	err error
}

// detach withdraws a cancelled participant; the last one out cancels
// the flight context.
func (f *fixedFlight) detach() {
	f.mu.Lock()
	f.interest--
	if f.interest == 0 {
		f.cancel()
	}
	f.mu.Unlock()
}

// testHookFixedLeader, when set, runs on the creator after its flight
// is registered and before the kernel starts. The under-load test uses
// it to hold the kernel until all followers have joined.
var testHookFixedLeader func(f *fixedFlight)

// coalesceFixed deduplicates concurrent identical fixed-budget runs:
// the first request creates the flight and requests arriving while it
// is in flight share its result. The flight is removed before done
// closes, so a request arriving after completion runs fresh — fixed
// runs are cheap to rerun and, unlike adaptive snapshots, not worth
// retaining. The kernel runs under the compute gate and the flight
// context, so it aborts at its next chunk boundary once every
// participant has detached.
func (s *Server) coalesceFixed(ctx context.Context, e *Entry, key query.FixedKey, kernel query.Kernel) (montecarlo.Result, *montecarlo.QuantileSketch, error) {
	for {
		if err := ctx.Err(); err != nil {
			return montecarlo.Result{}, nil, err
		}
		e.mu.Lock()
		f := e.fixed[key]
		if f == nil {
			fctx, cancel := context.WithCancel(context.Background())
			f = &fixedFlight{done: make(chan struct{}), cancel: cancel, interest: 1}
			e.fixed[key] = f
			e.mu.Unlock()
			if h := testHookFixedLeader; h != nil {
				h(f)
			}
			e.kernelRuns.Add(1)
			go func() {
				f.err = s.heavy(fctx, func() error {
					var err error
					f.res, f.sk, err = query.RunFixed(fctx, kernel, key.Stream.Sketch)
					return err
				})
				e.mu.Lock()
				delete(e.fixed, key)
				e.mu.Unlock()
				close(f.done) // publishes res/sk/err
				cancel()
			}()
		} else {
			f.joiners.Add(1)
			f.mu.Lock()
			f.interest++
			f.mu.Unlock()
			e.mu.Unlock()
		}
		select {
		case <-f.done:
			if f.err != nil && isCtxErr(f.err) && ctx.Err() == nil {
				continue // strangers' lapsed interest killed the flight; retry
			}
			return f.res, f.sk, f.err
		case <-ctx.Done():
			f.detach()
			return montecarlo.Result{}, nil, ctx.Err()
		}
	}
}
