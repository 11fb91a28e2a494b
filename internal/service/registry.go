// Package service implements makespand, the long-running HTTP estimation
// daemon. All expensive per-graph artifacts — frozen CSR forms, Dodin
// reduction plans, Monte Carlo estimator snapshots with their sampler
// threshold tables, frozen schedules per (policy, procs, λ), retained
// adaptive snapshots — live in one internal/artifact store: declared
// build rules resolved through a generic content-addressed,
// singleflighted, LRU byte-budgeted resolver. The Registry in this file
// is a thin façade over that store, adding only the service-level
// concerns: graph metadata labels, the generator-spec shortcut index,
// per-entry coalescing slots and the kernel-run counter. Responses are
// rendered through internal/report — the same writers the CLIs use —
// and are byte-identical to the corresponding `makespan -format json` /
// `experiments -format json` / `schedsim -format json` output for the
// same inputs (timing fields excepted) and deterministic under
// concurrent load. See docs/ARCHITECTURE.md §"Ownership and caching"
// for the artifact rule table and docs/API.md for the HTTP reference.
package service

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/bounds"
	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/montecarlo"
	"repro/internal/query"
	"repro/internal/schedmc"
	"repro/internal/spgraph"
)

// GraphMeta labels how a registry entry was produced. Generated entries
// remember their (kind, k) so sweep responses can carry the same
// factorization label the experiments CLI prints; submitted graphs are
// labeled "custom".
type GraphMeta struct {
	Kind string
	K    int
}

// Entry is one registered graph. The artifact store owns every derived
// object (and the graph itself); the entry adds the service-level state
// that is not an artifact: the metadata label, the coalescing slots of
// coalesce.go and the kernel-run counter the coalescing tests assert on.
type Entry struct {
	reg *Registry
	ga  *artifact.Graph

	// Immutable after construction (views into the graph artifact).
	ID     string // content address (artifact.Graph.ID)
	G      *dag.Graph
	Frozen *dag.Frozen
	D0     float64 // failure-free makespan d(G)

	mu     sync.Mutex
	meta   GraphMeta // guarded: upgradeable from "custom" to a generator label
	adapts map[artifact.SnapshotKey]*adaptiveSlot
	fixed  map[query.FixedKey]*fixedFlight

	// kernelRuns counts Monte Carlo kernel executions this entry paid
	// for; coalesced requests share one (see coalesce.go).
	kernelRuns atomic.Int64
}

// RegistryStats is a snapshot of cache occupancy and effectiveness,
// served by /healthz. Hits/Misses count graph-level traffic (Add, Get,
// LookupGenerated); Evictions counts evicted graphs (each taking its
// derived artifacts with it). Per-kind artifact counters live on
// GET /v1/cache.
type RegistryStats struct {
	Graphs    int
	UsedBytes int64
	Budget    int64
	Hits      int64
	Misses    int64
	Evictions int64
}

// Registry is the service façade over the artifact store: it maps
// content addresses to entries, keeps the generator-spec shortcut index
// and relays graph evictions (the store evicts a graph's artifacts with
// it; the façade then drops the entry so later lookups miss).
type Registry struct {
	store *artifact.Store

	mu      sync.Mutex
	entries map[string]*Entry
	// genIDs short-circuits generator specs: the named workloads are
	// deterministic, so (kind, k) -> id lets a warm request skip graph
	// generation and content hashing entirely.
	genIDs map[GraphMeta]string

	hits, misses int64
}

// NewRegistry creates a registry whose artifact store enforces the
// given byte budget across every artifact kind (<= 0 means unlimited).
// The entry a request is actively building or growing is never evicted
// (the resolver pins in-flight builds), and neither is the sole
// remaining entry.
func NewRegistry(budget int64) *Registry {
	r := &Registry{
		entries: make(map[string]*Entry),
		genIDs:  make(map[GraphMeta]string),
	}
	r.store = artifact.NewStoreOnEvict(budget, func(kind string, _ artifact.Key, value any) {
		if kind != artifact.KindGraph {
			return
		}
		r.dropEntry(value.(*artifact.Graph).ID)
	})
	return r
}

// dropEntry unlinks an evicted graph from the façade maps. Runs under
// the resolver lock (lock order: resolver → Registry.mu → Entry.mu).
func (r *Registry) dropEntry(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return
	}
	delete(r.entries, id)
	e.mu.Lock()
	meta := e.meta
	e.mu.Unlock()
	if gid, ok := r.genIDs[meta]; ok && gid == id {
		delete(r.genIDs, meta)
	}
}

// Store exposes the underlying artifact store (the sweep runner and
// GET /v1/cache resolve through it directly).
func (r *Registry) Store() *artifact.Store { return r.store }

// GraphID returns the content address of a graph: "sha256:" + the hex
// digest of its canonical JSON. Two submissions of the same DAG — inline
// JSON or generator spec — collapse onto one entry.
func GraphID(canonical []byte) string { return artifact.GraphID(canonical) }

// Add registers g, returning its entry and whether it was newly created.
// Resolution goes through the artifact store: content addressing,
// freeze singleflight and LRU touch are the graph rule's. Labels only
// upgrade: resubmitting a generated graph as raw JSON keeps the
// generator label, while naming a previously raw-submitted graph by
// its generator spec replaces "custom" with the spec (and indexes it),
// so sweep responses always carry the most specific factorization known.
func (r *Registry) Add(g *dag.Graph, meta GraphMeta) (*Entry, bool, error) {
	return r.AddContext(context.Background(), g, meta)
}

// AddContext is Add bounded by ctx: a cancelled registration aborts the
// graph freeze at the next check and leaves the store retryable (the
// resolver never caches a cancellation).
func (r *Registry) AddContext(ctx context.Context, g *dag.Graph, meta GraphMeta) (*Entry, bool, error) {
	ga, created, err := r.store.GraphContext(ctx, g)
	if err != nil {
		return nil, false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if created {
		r.misses++
	} else {
		r.hits++
	}
	e, ok := r.entries[ga.ID]
	if !ok {
		e = newEntry(r, ga, meta)
		r.entries[ga.ID] = e
		if meta.Kind != "" && meta.Kind != "custom" {
			r.genIDs[meta] = ga.ID
		}
		return e, created, nil
	}
	r.upgradeMetaLocked(e, meta)
	return e, false, nil
}

func newEntry(r *Registry, ga *artifact.Graph, meta GraphMeta) *Entry {
	return &Entry{
		reg:    r,
		ga:     ga,
		ID:     ga.ID,
		G:      ga.G,
		Frozen: ga.Frozen,
		D0:     ga.D0,
		meta:   meta,
		adapts: make(map[artifact.SnapshotKey]*adaptiveSlot),
		fixed:  make(map[query.FixedKey]*fixedFlight),
	}
}

// upgradeMetaLocked relabels e when the caller knows a generator spec
// for content previously submitted as "custom", and indexes it. Called
// with r.mu held.
func (r *Registry) upgradeMetaLocked(e *Entry, meta GraphMeta) {
	if meta.Kind == "" || meta.Kind == "custom" {
		return
	}
	e.mu.Lock()
	if e.meta.Kind == "" || e.meta.Kind == "custom" {
		e.meta = meta
	}
	e.mu.Unlock()
	r.genIDs[meta] = e.ID
}

// Meta returns the entry's current label (generator spec or "custom").
func (e *Entry) Meta() GraphMeta {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.meta
}

// Artifact returns the entry's graph artifact (the sweep runner hands
// it to experiments.RunSweepGraph).
func (e *Entry) Artifact() *artifact.Graph { return e.ga }

// LookupGenerated resolves a generator spec without generating: a warm
// named workload costs one map probe instead of generate + marshal +
// hash. Falls back to a miss when the entry was evicted.
func (r *Registry) LookupGenerated(meta GraphMeta) (*Entry, bool) {
	r.mu.Lock()
	id, ok := r.genIDs[meta]
	r.mu.Unlock()
	if !ok {
		return nil, false
	}
	return r.Get(id)
}

// Get returns the entry for id, touching its graph to the front of the
// store's LRU.
func (r *Registry) Get(id string) (*Entry, bool) {
	r.mu.Lock()
	e, ok := r.entries[id]
	if !ok {
		r.misses++
		r.mu.Unlock()
		return nil, false
	}
	r.hits++
	r.mu.Unlock()
	r.store.Touch(e.ga)
	return e, true
}

// Stats snapshots cache occupancy and graph-level hit counters.
func (r *Registry) Stats() RegistryStats {
	ks := r.store.Stats()[artifact.KindGraph]
	r.mu.Lock()
	defer r.mu.Unlock()
	return RegistryStats{
		Graphs:    int(ks.Resident),
		UsedBytes: r.store.UsedBytes(),
		Budget:    r.store.Budget(),
		Hits:      r.hits,
		Misses:    r.misses,
		Evictions: ks.Evictions,
	}
}

// resident reports whether the entry's graph is still the store's
// artifact for its content address. Requests already holding an evicted
// entry keep working — its artifacts just stop being cached (and stop
// being accounted), exactly the pre-store registry behavior.
func (e *Entry) resident() bool { return e.reg.store.Resident(e.ga) }

// PlanContext returns the entry's compiled Dodin plan for the given atom
// cap, resolving the plan rule (keyed by the normalized cap only: a plan
// is compiled from topology alone and replays under every failure model,
// see spgraph.Plan). Cancellation aborts an in-flight compilation at the
// resolver's next check. On an evicted entry the plan is compiled cold
// and unaccounted (checking ctx once up front — compilation is not
// chunked). model is unused; benchmark/trace.go calls this signature.
func (e *Entry) PlanContext(ctx context.Context, atoms int, model failure.Model) (*spgraph.Plan, error) {
	if !e.resident() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return spgraph.Compile(e.G, atoms)
	}
	return e.reg.store.PlanContext(ctx, e.ga, atoms)
}

// EstimatorContext returns the entry's compiled Monte Carlo estimator
// for the failure model, resolving the estimator rule (threshold tables
// included) on first use; a cancelled compile is never cached and the
// rule stays retryable. Callers derive per-request run configs via
// WithConfig; the snapshot itself is shared read-only and safe for
// concurrent runs.
func (e *Entry) EstimatorContext(ctx context.Context, model failure.Model, mode montecarlo.Mode) (*montecarlo.Estimator, error) {
	if !e.resident() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return montecarlo.NewEstimatorFrozen(e.Frozen, model, montecarlo.Config{
			Trials: 1, Workers: 1, Mode: mode,
		})
	}
	return e.reg.store.EstimatorContext(ctx, e.ga, model, mode)
}

// ScheduleEstimatorContext returns the entry's frozen-schedule Monte
// Carlo estimator for (policy, procs, model), resolving the schedule
// rule — priorities, list schedule, schedule-DAG freeze, sampler
// threshold tables — exactly once per key; concurrent requesters
// coalesce on the resolver's singleflight, and a cancelled freeze is
// never cached. A warm request therefore skips schedule freezing
// entirely and pays only the O(1) WithConfig reconfiguration.
func (e *Entry) ScheduleEstimatorContext(ctx context.Context, policy schedmc.Policy, procs int, model failure.Model) (*schedmc.Estimator, error) {
	if !e.resident() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fs, err := schedmc.Freeze(e.G, policy, procs, model)
		if err != nil {
			return nil, err
		}
		return schedmc.NewEstimator(fs, model, schedmc.Config{Trials: 1, Workers: 1})
	}
	return e.reg.store.ScheduleEstimatorContext(ctx, e.ga, policy, procs, model)
}

// snapshot returns the retained adaptive prefix for key, if any (see
// coalesce.go). touch selects a warm lookup (counts a snapshot hit)
// versus a silent peek for compare-before-replace.
func (e *Entry) snapshot(key artifact.SnapshotKey, touch bool) (*montecarlo.Snapshot, bool) {
	if !e.resident() {
		return nil, false
	}
	if touch {
		return e.reg.store.Snapshot(e.ga, key)
	}
	return e.reg.store.PeekSnapshot(e.ga, key)
}

// putSnapshot retains snap as the entry's snapshot artifact for key.
// Dropped silently when the entry was evicted: an evicted graph's
// snapshots would be unreachable anyway.
func (e *Entry) putSnapshot(key artifact.SnapshotKey, snap *montecarlo.Snapshot) {
	if !e.resident() {
		return
	}
	e.reg.store.PutSnapshot(e.ga, key, snap)
}

// Sweeper checks a bounds sweeper out of the graph's pool; return it
// with PutSweeper. Sweepers are per-request scratch over the shared
// frozen graph: pooled for reuse, not counted against the byte budget
// (the GC may reclaim them under pressure).
func (e *Entry) Sweeper() *bounds.Sweeper { return e.ga.Sweeper() }

// PutSweeper returns a sweeper to the pool.
func (e *Entry) PutSweeper(sw *bounds.Sweeper) { e.ga.PutSweeper(sw) }

// PathEvaluator checks a longest-path evaluator out of the graph's pool
// (warm First Order estimates); return it with PutPathEvaluator.
func (e *Entry) PathEvaluator() *dag.PathEvaluator { return e.ga.PathEvaluator() }

// PutPathEvaluator returns an evaluator to the pool.
func (e *Entry) PutPathEvaluator(pe *dag.PathEvaluator) { e.ga.PutPathEvaluator(pe) }

// CacheInfo reports the entry's artifact population for GET /v1/graphs.
type CacheInfo struct {
	Bytes         int64
	DodinPlans    int
	Estimators    int
	Schedules     int
	AdaptiveSnaps int
}

// Cache snapshots the entry's resident artifact counts and accounted
// bytes — a census of the store's dependency graph under this entry's
// graph artifact.
func (e *Entry) Cache() CacheInfo {
	c := e.reg.store.Census(e.ga)
	return CacheInfo{
		Bytes:         c.Bytes,
		DodinPlans:    c.DodinPlans,
		Estimators:    c.Estimators,
		Schedules:     c.Schedules,
		AdaptiveSnaps: c.AdaptiveSnaps,
	}
}

// KernelRuns reports how many Monte Carlo kernel executions this entry
// has actually paid for; coalesced concurrent requests and snapshot
// cache hits share or skip runs, so this can be far below the request
// count. The coalescing tests assert on it.
func (e *Entry) KernelRuns() int64 { return e.kernelRuns.Load() }

// SizeBytes reports the entry's total accounted size (graph artifact
// plus resident derived artifacts).
func (e *Entry) SizeBytes() int64 { return e.reg.store.Census(e.ga).Bytes }
