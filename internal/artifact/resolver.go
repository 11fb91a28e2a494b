// Package artifact is the typed artifact pipeline shared by the
// makespand service, the experiments runner and the CLIs: every
// expensive derived object of the paper's workflow — frozen CSR graph,
// Dodin reduction plan, compiled Monte Carlo estimator, frozen-schedule
// estimator, resumable adaptive snapshot — is declared once as a build
// rule (canonical key → dependency keys → build func → size) and
// resolved through one generic Resolver that provides, for every kind
// at once: content-addressed keying, dependency-aware resolution
// (resolving an estimator transparently resolves and reuses its frozen
// graph), per-key singleflight (concurrent requests for the same
// artifact trigger exactly one build), LRU byte-budget eviction with
// pinning of in-flight entries, and per-kind hit/miss/eviction
// statistics. The rules themselves live in store.go; see
// docs/ARCHITECTURE.md §"Ownership and caching" for the rule table.
package artifact

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Key is an artifact's canonical cache key. Keys are flat strings of
// the form "<kind>/<content-id>[/<params...>]" built by the rule
// constructors in store.go; two requests build the same artifact iff
// their keys are equal.
type Key string

// Request declares one artifact to resolve: its kind (a stats bucket),
// its canonical key, the requests of the artifacts it is derived from,
// and the build function. Build receives the resolved dependency
// values in Deps order and returns the artifact value plus its
// approximate retained size in bytes (the resolver's accounting unit).
// Rules must form a DAG: a dependency chain that reaches its own key
// again would deadlock on itself.
type Request struct {
	// Kind is the artifact's stats bucket ("graph", "plan", ...).
	Kind string
	// Key is the canonical cache key; equal keys mean equal artifacts.
	Key Key
	// Deps declares the artifacts this one is derived from; they are
	// resolved (and pinned) before Build runs.
	Deps []Request
	// Build constructs the artifact from the resolved dependency values
	// (in Deps order), returning it with its approximate retained size.
	// The context is the build's flight context, NOT any one caller's:
	// it is cancelled only when every request interested in this build
	// has detached (see ResolveContext), so a build shared by several
	// requests survives any one of them going away. Builds should honor
	// it at their natural checkpoint granularity.
	Build func(ctx context.Context, deps []any) (value any, size int64, err error)
}

// KindStats counts one artifact kind's cache traffic. Hits include
// requests coalesced onto an in-flight build (they shared the one
// build another request paid for); Misses count builds started, plus
// externally built values installed with Put.
type KindStats struct {
	// Hits counts requests served without a build here: ready entries,
	// coalesced waits and successful Lookups.
	Hits int64
	// Misses counts builds started plus Put installations.
	Misses int64
	// Evictions counts entries removed under budget pressure, cascaded
	// dependents included.
	Evictions int64
	// Resident counts the currently cached entries of the kind.
	Resident int64
	// ResidentBytes is their total accounted size.
	ResidentBytes int64
}

// entry is one resolver slot. Lifecycle: created building (done open,
// not in the LRU, self-pinned), then either ready (value/size set, done
// closed, linked into the LRU) or failed (err set, done closed, removed
// from the map so the next request retries). value, size, err and deps
// are written once before done closes and read-only after.
type entry struct {
	kind string
	key  Key

	value any
	size  int64
	err   error
	done  chan struct{} // closed when the build finished either way
	ready bool

	// pins counts active uses that forbid eviction: the entry's own
	// in-flight build, and every build or Put currently holding it as a
	// dependency. Guarded by Resolver.mu.
	pins int

	// interest counts requests whose outcome depends on the in-flight
	// build: the leader plus every coalesced waiter still present. When
	// the last one detaches, cancel fires and the build aborts. Only
	// meaningful while building; guarded by Resolver.mu.
	interest int
	// cancel aborts the build's flight context; nil once the build has
	// finished (or for ready entries). Guarded by Resolver.mu.
	cancel context.CancelFunc

	elem *list.Element // LRU position; nil while building

	// deps/dependents are the artifact graph's edges, maintained while
	// both sides are resident; eviction cascades down dependents (a
	// plan must not outlive the graph it indexes into).
	deps       []*entry
	dependents map[Key]*entry
}

// Resolver is the generic artifact cache. The zero value is not usable;
// create with NewResolver.
type Resolver struct {
	mu      sync.Mutex
	budget  int64 // <= 0: unlimited
	used    int64
	lru     *list.List // of *entry; front = most recently used
	entries map[Key]*entry
	stats   map[string]*KindStats

	// onEvict, when set (before first use), observes every eviction —
	// cascaded dependents included. It runs with mu held: it must not
	// call back into the resolver, but may take locks ordered after it.
	onEvict func(kind string, key Key, value any)
}

// NewResolver creates a resolver with the given byte budget (<= 0
// means unlimited). onEvict may be nil.
func NewResolver(budget int64, onEvict func(kind string, key Key, value any)) *Resolver {
	return &Resolver{
		budget:  budget,
		lru:     list.New(),
		entries: make(map[Key]*entry),
		stats:   make(map[string]*KindStats),
		onEvict: onEvict,
	}
}

func (r *Resolver) kindStats(kind string) *KindStats {
	ks := r.stats[kind]
	if ks == nil {
		ks = &KindStats{}
		r.stats[kind] = ks
	}
	return ks
}

// Resolve returns the artifact for req, building it (and any missing
// dependencies, transitively) exactly once per key: concurrent calls
// with the same key coalesce onto one build and all receive the same
// value. A failed build is not cached — the error goes to the waiters
// that joined it and the next request retries. The returned value
// stays valid even if the entry is evicted later (entries are ordinary
// GC-managed values; eviction only stops them being findable).
func (r *Resolver) Resolve(req Request) (any, error) {
	return r.ResolveContext(context.Background(), req)
}

// ResolveContext is Resolve with cancellation. The caller's ctx bounds
// its *wait*, not the build outright: a build is shared, so it keeps a
// flight context that is cancelled only when the last interested
// request detaches. A caller whose ctx expires detaches immediately
// (returning ctx.Err()); if it was the last one, the build aborts at
// its next checkpoint and the failed entry is removed — no error is
// cached, no dependency pins leak, and the next request simply
// rebuilds.
func (r *Resolver) ResolveContext(ctx context.Context, req Request) (any, error) {
	e, _, err := r.resolve(ctx, req)
	if err != nil {
		return nil, err
	}
	v := e.value
	r.unpin(e)
	return v, nil
}

// ResolveBuiltContext is ResolveContext plus a flag reporting whether
// this call ran the build itself (false on cache hits and coalesced
// waits) — the service's "created" field for graph submissions.
func (r *Resolver) ResolveBuiltContext(ctx context.Context, req Request) (any, bool, error) {
	e, built, err := r.resolve(ctx, req)
	if err != nil {
		return nil, false, err
	}
	v := e.value
	r.unpin(e)
	return v, built, nil
}

// resolve returns the entry for req with one pin held by the caller
// (release with unpin). built reports whether this call ran the build.
func (r *Resolver) resolve(ctx context.Context, req Request) (*entry, bool, error) {
	for {
		e, built, retry, err := r.resolveOnce(ctx, req)
		if retry {
			// The build this call coalesced onto was cancelled (its
			// last interested request left before we joined, or raced
			// our join). Our own ctx is still live, so lead a fresh
			// build rather than surfacing someone else's cancellation.
			continue
		}
		return e, built, err
	}
}

func (r *Resolver) resolveOnce(ctx context.Context, req Request) (_ *entry, built, retry bool, err error) {
	r.mu.Lock()
	if e, ok := r.entries[req.Key]; ok {
		e.pins++
		r.kindStats(e.kind).Hits++
		if e.ready {
			r.lru.MoveToFront(e.elem)
			r.mu.Unlock()
			return e, false, false, nil
		}
		// In flight: coalesce onto the running build.
		e.interest++
		r.mu.Unlock()
		if done := ctx.Done(); done != nil {
			select {
			case <-e.done:
			case <-done:
				// Detach: drop our interest (cancelling the flight if
				// we were the last) and stop waiting. The build, if it
				// continues for others, completes without us.
				r.mu.Lock()
				e.interest--
				if e.interest <= 0 && e.cancel != nil {
					e.cancel()
				}
				e.pins--
				r.mu.Unlock()
				return nil, false, false, ctx.Err()
			}
		} else {
			<-e.done
		}
		r.mu.Lock()
		e.interest--
		r.mu.Unlock()
		if e.err != nil {
			r.unpin(e)
			if isCancellation(e.err) && ctx.Err() == nil {
				return nil, false, true, e.err
			}
			return nil, false, false, e.err
		}
		return e, false, false, nil
	}
	// Become the builder. The entry is findable (so later requests
	// coalesce) but self-pinned and outside the LRU until the build
	// completes, so budget pressure from concurrent inserts can never
	// evict it mid-build. The build runs under its own flight context,
	// detached from the leader's ctx except through interest counting,
	// so a cancelled leader hands the running build to any waiter that
	// joined instead of killing it under them.
	buildCtx, buildCancel := context.WithCancel(context.Background())
	defer buildCancel()
	e := &entry{
		kind:       req.Kind,
		key:        req.Key,
		done:       make(chan struct{}),
		pins:       1,
		interest:   1,
		cancel:     buildCancel,
		dependents: make(map[Key]*entry),
	}
	r.entries[req.Key] = e
	r.kindStats(req.Kind).Misses++
	r.mu.Unlock()

	if done := ctx.Done(); done != nil {
		// Watch the leader's own ctx: the build runs on this goroutine
		// regardless (Build only aborts via buildCtx), but the leader's
		// interest must lapse on cancel so a waiterless build stops.
		watchStop := make(chan struct{})
		defer close(watchStop)
		go func() {
			select {
			case <-done:
				r.mu.Lock()
				e.interest--
				if e.interest <= 0 && e.cancel != nil {
					e.cancel()
				}
				r.mu.Unlock()
			case <-watchStop:
			}
		}()
	}

	deps, vals, err := r.resolveDeps(buildCtx, req.Deps)
	var value any
	var size int64
	if err == nil {
		value, size, err = req.Build(buildCtx, vals)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	e.cancel = nil
	if err != nil {
		if r.entries[req.Key] == e {
			delete(r.entries, req.Key)
		}
		e.err = err
		e.pins-- // the self-pin; the entry is dead either way
		r.unpinDepsLocked(deps)
		close(e.done)
		return nil, false, false, err
	}
	e.value, e.size, e.ready = value, size, true
	e.deps = deps
	for _, de := range deps {
		de.dependents[e.key] = e
		de.pins--
	}
	e.elem = r.lru.PushFront(e)
	r.used += size
	ks := r.kindStats(e.kind)
	ks.Resident++
	ks.ResidentBytes += size
	close(e.done)
	r.evictLocked(e)
	return e, true, false, nil
}

// isCancellation reports whether err is a context cancellation or
// deadline — the errors that mean "a caller went away", not "the build
// is broken".
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// resolveDeps resolves every dependency request, returning the entries
// with one pin each (held for the duration of the parent build) plus
// their values in order. On error the pins already taken are released.
// Dependencies resolve under the parent's flight context: they abort
// only when the parent build itself has lost all interest.
func (r *Resolver) resolveDeps(ctx context.Context, reqs []Request) ([]*entry, []any, error) {
	if len(reqs) == 0 {
		return nil, nil, nil
	}
	deps := make([]*entry, 0, len(reqs))
	vals := make([]any, 0, len(reqs))
	for _, d := range reqs {
		de, _, err := r.resolve(ctx, d)
		if err != nil {
			r.mu.Lock()
			r.unpinDepsLocked(deps)
			r.mu.Unlock()
			return nil, nil, err
		}
		deps = append(deps, de)
		vals = append(vals, de.value)
	}
	return deps, vals, nil
}

func (r *Resolver) unpinDepsLocked(deps []*entry) {
	for _, de := range deps {
		de.pins--
	}
}

func (r *Resolver) unpin(e *entry) {
	r.mu.Lock()
	e.pins--
	r.mu.Unlock()
}

// Put installs an externally built value under req's key — the
// adaptive-snapshot path, where the coalescing leader runs the kernel
// itself and only retention goes through the resolver. An existing
// ready entry is replaced in place with delta accounting; budget
// pressure from the growth may evict colder entries but never the
// entry being grown. If a Resolve build for the same key is in flight
// the Put is dropped (the build's result wins). Counts as a miss for
// the kind (a build happened, just not here).
func (r *Resolver) Put(req Request, value any, size int64) {
	deps, _, err := r.resolveDeps(context.Background(), req.Deps)
	if err != nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[req.Key]
	if e != nil && !e.ready {
		r.unpinDepsLocked(deps)
		return
	}
	ks := r.kindStats(req.Kind)
	if e == nil {
		e = &entry{kind: req.Kind, key: req.Key, ready: true, dependents: make(map[Key]*entry)}
		r.entries[req.Key] = e
		e.elem = r.lru.PushFront(e)
		ks.Resident++
	} else {
		r.used -= e.size
		ks.ResidentBytes -= e.size
		r.lru.MoveToFront(e.elem)
		for _, de := range e.deps {
			delete(de.dependents, e.key)
		}
	}
	e.value, e.size = value, size
	e.deps = deps
	for _, de := range deps {
		de.dependents[e.key] = e
		de.pins--
	}
	r.used += size
	ks.Misses++
	ks.ResidentBytes += size
	r.evictLocked(e)
}

// Lookup returns the ready value for key, touching it to the LRU front
// and counting a hit when found; a missing key counts nothing (use it
// for optional artifacts like retained snapshots, where absence is the
// normal first-request state, not a failed build).
func (r *Resolver) Lookup(key Key) (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[key]
	if !ok || !e.ready {
		return nil, false
	}
	r.lru.MoveToFront(e.elem)
	r.kindStats(e.kind).Hits++
	return e.value, true
}

// Peek returns the ready value for key without touching LRU order or
// statistics — residency checks and introspection.
func (r *Resolver) Peek(key Key) (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[key]
	if !ok || !e.ready {
		return nil, false
	}
	return e.value, true
}

// EntryInfo describes one resident entry (introspection: the per-graph
// artifact census behind GET /v1/graphs/{id}).
type EntryInfo struct {
	// Kind is the entry's stats bucket.
	Kind string
	// Key is its canonical cache key.
	Key Key
	// Size is its accounted bytes.
	Size int64
}

// DependentsOf lists the resident artifacts built directly on top of
// key, in unspecified order.
func (r *Resolver) DependentsOf(key Key) []EntryInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[key]
	if !ok || !e.ready {
		return nil
	}
	out := make([]EntryInfo, 0, len(e.dependents))
	for _, d := range e.dependents {
		out = append(out, EntryInfo{Kind: d.kind, Key: d.key, Size: d.size})
	}
	return out
}

// Stats snapshots the per-kind counters.
func (r *Resolver) Stats() map[string]KindStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]KindStats, len(r.stats))
	for k, v := range r.stats {
		out[k] = *v
	}
	return out
}

// UsedBytes reports the total accounted size of resident entries.
func (r *Resolver) UsedBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.used
}

// Budget reports the configured byte budget (<= 0: unlimited).
func (r *Resolver) Budget() int64 { return r.budget }

// evictLocked enforces the byte budget: walk the LRU from the cold
// end, evicting entries (cascading through their dependents) until the
// budget holds. Never evicted: keep (the entry the current operation
// is inserting or growing), pinned entries (in-flight builds hold pins
// on themselves and their dependencies), any entry whose transitive
// dependents include one of those, and the sole remaining entry
// (evicting what the current request is about to use would just force
// an immediate rebuild).
func (r *Resolver) evictLocked(keep *entry) {
	if r.budget <= 0 {
		return
	}
	for r.used > r.budget && r.lru.Len() > 1 {
		evicted := false
		for el := r.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*entry)
			if !r.evictableLocked(e, keep) {
				continue
			}
			r.evictEntryLocked(e)
			evicted = true
			break // cascades invalidated our iterator; rescan
		}
		if !evicted {
			return
		}
	}
}

// Shed evicts every currently evictable entry regardless of budget —
// pinned entries, in-flight builds and their dependencies stay, as do
// cascades that would touch them. It returns the number of entries
// dropped. Shed exists for fault drills (the chaos harness's eviction
// storm) and for operators that want to empty a cache without
// restarting; correctness must never depend on residency, only
// latency, which is exactly what the storm verifies.
func (r *Resolver) Shed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	dropped := 0
	for {
		evicted := false
		for el := r.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*entry)
			if !r.evictableLocked(e, nil) {
				continue
			}
			before := r.lru.Len()
			r.evictEntryLocked(e)
			dropped += before - r.lru.Len()
			evicted = true
			break // cascades invalidated the iterator; rescan
		}
		if !evicted {
			return dropped
		}
	}
}

// evictableLocked reports whether evicting e (which cascades through
// its dependents) would touch keep or any pinned entry.
func (r *Resolver) evictableLocked(e, keep *entry) bool {
	if e == keep || e.pins > 0 {
		return false
	}
	for _, d := range e.dependents {
		if !r.evictableLocked(d, keep) {
			return false
		}
	}
	return true
}

// evictEntryLocked removes e and, recursively, every artifact built on
// top of it — dependents first, so onEvict observes a plan before the
// graph it indexes into.
func (r *Resolver) evictEntryLocked(e *entry) {
	for _, d := range e.dependents {
		r.evictEntryLocked(d)
	}
	for _, de := range e.deps {
		delete(de.dependents, e.key)
	}
	r.lru.Remove(e.elem)
	delete(r.entries, e.key)
	r.used -= e.size
	ks := r.kindStats(e.kind)
	ks.Evictions++
	ks.Resident--
	ks.ResidentBytes -= e.size
	if r.onEvict != nil {
		r.onEvict(e.kind, e.key, e.value)
	}
}
