// The declared build rules of the repository's artifact kinds. Each
// rule is one Request constructor: a canonical key, the dependency
// requests, the build function and the size accounting — everything
// the generic Resolver needs. The table (also in docs/ARCHITECTURE.md):
//
//	kind    key                                         deps    size
//	graph   graph/sha256:<canonical-JSON digest>        —       canonical + frozen + graph estimate
//	plan    plan/<graph>/<atom cap>                     graph   plan.SizeBytes
//	mc      mc/<graph>/<λ>/<mode>                       graph   estimator.SizeBytes
//	sched   sched/<graph>/<policy>/<procs>/<λ>          graph   estimator.SizeBytes
//	snap    snap/<graph>/<sched?>/<policy>/<procs>/<λ>/<mode>/<seed>
//	                                                    graph   snapshot.SizeBytes
//
// λ is formatted as an exact hexadecimal float so distinct rates can
// never collide in a key.

package artifact

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/bounds"
	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/montecarlo"
	"repro/internal/schedmc"
	"repro/internal/spgraph"
)

// The artifact kinds (stats buckets and key prefixes).
const (
	KindGraph     = "graph"
	KindPlan      = "plan"
	KindEstimator = "mc"
	KindSchedule  = "sched"
	KindSnapshot  = "snap"
)

// Kinds lists every declared artifact kind, in rule-table order — the
// stable iteration order of GET /v1/cache.
func Kinds() []string {
	return []string{KindGraph, KindPlan, KindEstimator, KindSchedule, KindSnapshot}
}

// Graph is the root artifact: one content-addressed DAG with its
// frozen CSR form and the per-graph scratch pools every derived
// artifact and warm request path shares. Immutable after construction
// and safe for concurrent use; the pools hand out per-goroutine
// scratch, never shared mid-flight.
type Graph struct {
	// ID is the content address: "sha256:" + hex digest of the graph's
	// canonical JSON (dag.Graph.AppendJSON), which is not kept.
	ID string
	// G is the parsed mutable graph (adjacency, weights, names).
	G *dag.Graph
	// Frozen is the compiled CSR form the kernels run on.
	Frozen *dag.Frozen
	// D0 is the failure-free makespan d(G).
	D0 float64

	key      Key
	size     int64
	sweepers sync.Pool // *bounds.Sweeper, per-goroutine scratch
	paths    sync.Pool // *dag.PathEvaluator, per-goroutine scratch
}

// Key returns the graph's resolver key ("graph/<id>").
func (ga *Graph) Key() Key { return ga.key }

// SizeBytes reports the graph artifact's accounted size.
func (ga *Graph) SizeBytes() int64 { return ga.size }

// Sweeper checks a bounds sweeper out of the graph's pool; return it
// with PutSweeper. Sweepers are per-request scratch over the shared
// frozen graph: pooled for reuse, not counted against the byte budget
// (the GC may reclaim them under pressure).
func (ga *Graph) Sweeper() *bounds.Sweeper { return ga.sweepers.Get().(*bounds.Sweeper) }

// PutSweeper returns a sweeper to the pool.
func (ga *Graph) PutSweeper(sw *bounds.Sweeper) { ga.sweepers.Put(sw) }

// PathEvaluator checks a longest-path evaluator out of the graph's
// pool (warm First Order estimates); return it with PutPathEvaluator.
func (ga *Graph) PathEvaluator() *dag.PathEvaluator { return ga.paths.Get().(*dag.PathEvaluator) }

// PutPathEvaluator returns an evaluator to the pool.
func (ga *Graph) PutPathEvaluator(pe *dag.PathEvaluator) { ga.paths.Put(pe) }

// GraphID returns the content address of a graph: "sha256:" + the hex
// digest of its canonical JSON. Two submissions of the same DAG —
// inline JSON or generator spec — collapse onto one artifact.
func GraphID(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// NormAtoms maps a Dodin atom cap onto its plan-rule key segment:
// 0 means the spgraph default, negative means unlimited.
func NormAtoms(atoms int) int {
	if atoms == 0 {
		return spgraph.DefaultMaxAtoms
	}
	if atoms < 0 {
		return -1
	}
	return atoms
}

// lambdaKey formats a failure rate as an exact, collision-free key
// segment (hexadecimal float round-trips every float64 bit pattern).
func lambdaKey(lambda float64) string {
	return strconv.FormatFloat(lambda, 'x', -1, 64)
}

// GraphKey returns the store key of the graph artifact with content
// address id ("graph/sha256:…"). It is also the cluster routing key:
// makespan-lb shards requests across replicas by this string, so every
// artifact derived from one graph lands in one replica's cache.
func GraphKey(id string) Key { return graphKey(id) }

func graphKey(id string) Key { return Key(KindGraph + "/" + id) }

func planKey(id string, atoms int) Key {
	return Key(fmt.Sprintf("%s/%s/%d", KindPlan, id, NormAtoms(atoms)))
}

func estimatorKey(id string, lambda float64, mode montecarlo.Mode) Key {
	return Key(fmt.Sprintf("%s/%s/%s/%d", KindEstimator, id, lambdaKey(lambda), mode))
}

func scheduleKey(id string, policy schedmc.Policy, procs int, lambda float64) Key {
	return Key(fmt.Sprintf("%s/%s/%s/%d/%s", KindSchedule, id, policy, procs, lambdaKey(lambda)))
}

// SnapshotKey identifies one retained adaptive chunk stream: the
// engine (unbounded-processor or a frozen schedule), the failure rate,
// the sampling mode, the seed and whether the stream carries a quantile
// sketch. Deliberately NOT the stopping rule (tolerance/confidence): the
// stream is chunk-deterministic, so one retained prefix serves every
// rule.
type SnapshotKey struct {
	// Sched selects the frozen-schedule engine over the
	// unbounded-processor one.
	Sched bool
	// Policy is the schedule's priority policy (zero unless Sched).
	Policy schedmc.Policy
	// Procs is the schedule's processor count (zero unless Sched).
	Procs int
	// Lambda is the failure rate the stream samples under.
	Lambda float64
	// Mode is the re-execution sampling mode.
	Mode montecarlo.Mode
	// Seed is the stream's RNG seed.
	Seed uint64
	// Sketch selects the stream that keeps a quantile sketch
	// (montecarlo.Config.Sketch), which is always the plain trial
	// stream: its snapshots carry the sketch, and the streams' prefixes
	// never stand in for each other.
	Sketch bool
}

func snapshotKey(id string, k SnapshotKey) Key {
	return Key(fmt.Sprintf("%s/%s/%t/%s/%d/%s/%d/%d/%t",
		KindSnapshot, id, k.Sched, k.Policy, k.Procs, lambdaKey(k.Lambda), k.Mode, k.Seed, k.Sketch))
}

// graphSizeEstimate approximates the retained size of the mutable
// graph: adjacency slices, weights and names.
func graphSizeEstimate(g *dag.Graph) int64 {
	s := int64(g.NumTasks())*64 + int64(g.NumEdges())*16
	for i := 0; i < g.NumTasks(); i++ {
		s += int64(len(g.Name(i)))
	}
	return s
}

// Store is the typed façade over one Resolver: each method is one
// declared rule of the table above. A Store is what the service
// registry, the experiments runner and the CLIs share — create one per
// process (CLIs: NewStore(0), unlimited) or per daemon (the registry's
// byte budget applies to every kind at once).
type Store struct {
	res *Resolver
}

// NewStore creates a store whose resolver enforces budget bytes across
// all artifact kinds (<= 0: unlimited).
func NewStore(budget int64) *Store {
	s := &Store{}
	s.res = NewResolver(budget, nil)
	return s
}

// NewStoreOnEvict is NewStore with an eviction observer: fn runs for
// every evicted entry — cascaded dependents first — under the resolver
// lock (it must not call back into the store, but may take locks
// ordered after the resolver's).
func NewStoreOnEvict(budget int64, fn func(kind string, key Key, value any)) *Store {
	s := &Store{}
	s.res = NewResolver(budget, fn)
	return s
}

// Resolver exposes the underlying resolver (stats, budget, low-level
// introspection).
func (s *Store) Resolver() *Resolver { return s.res }

// buildCheck is the shared preamble of every build rule: honor the
// build's flight context and the chaos harness's
// "artifact.build.<kind>" failpoint before doing any work. Both checks
// are free when unused — ctx.Err on a live context is one atomic load,
// and the failpoint gate is another.
func buildCheck(ctx context.Context, kind string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if faultinject.Enabled() {
		if err := faultinject.Hit(ctx, "artifact.build."+kind); err != nil {
			return err
		}
	}
	return nil
}

// maybeShed fires the chaos harness's "artifact.evict" failpoint: when
// armed in trigger mode, every store resolution is followed by a full
// eviction storm (Shed), the worst-case cache weather correctness must
// shrug off.
func (s *Store) maybeShed() {
	if faultinject.Enabled() && faultinject.Triggered("artifact.evict") {
		s.res.Shed()
	}
}

// graphRequest is the graph rule bound to specific inputs. The build
// freezes the graph and assembles the pools; size is the canonical
// JSON plus the frozen arrays plus the mutable-graph estimate —
// exactly the registry's historical accounting.
func graphRequest(id string, g *dag.Graph) Request {
	return Request{
		Kind: KindGraph,
		Key:  graphKey(id),
		Build: func(ctx context.Context, _ []any) (any, int64, error) {
			if err := buildCheck(ctx, KindGraph); err != nil {
				return nil, 0, err
			}
			frozen, err := dag.Freeze(g)
			if err != nil {
				return nil, 0, err
			}
			ga := &Graph{
				ID:     id,
				G:      g,
				Frozen: frozen,
				D0:     frozen.Makespan(),
				key:    graphKey(id),
				size:   frozen.SizeBytes() + graphSizeEstimate(g),
			}
			ga.sweepers.New = func() any { return bounds.NewSweeperFrozen(frozen) }
			ga.paths.New = func() any { return dag.NewPathEvaluatorFrozen(frozen) }
			return ga, ga.size, nil
		},
	}
}

// residentRequest re-declares an already built graph as a dependency:
// resolving it reuses ga without refreezing (and re-registers ga if it
// was evicted between the caller's lookup and the dependent build).
func residentRequest(ga *Graph) Request {
	return Request{
		Kind:  KindGraph,
		Key:   ga.key,
		Build: func(context.Context, []any) (any, int64, error) { return ga, ga.size, nil },
	}
}

// Graph resolves g's root artifact — canonical-JSON content
// addressing, freeze, pools — building it at most once per content.
// created reports whether this call ran the build (false on hits and
// coalesced waits).
func (s *Store) Graph(g *dag.Graph) (*Graph, bool, error) {
	return s.GraphContext(context.Background(), g)
}

// GraphContext is Graph with the caller's request context: the wait is
// cancellable, while the build itself aborts only when every interested
// request has detached (see Resolver.ResolveContext).
func (s *Store) GraphContext(ctx context.Context, g *dag.Graph) (*Graph, bool, error) {
	id := GraphID(g.AppendJSON(nil))
	v, built, err := s.res.ResolveBuiltContext(ctx, graphRequest(id, g))
	if err != nil {
		return nil, false, err
	}
	s.maybeShed()
	return v.(*Graph), built, nil
}

// Resident reports whether ga is still the store's entry for its key —
// callers holding a Graph across evictions use it to decide between
// warm resolution and an unaccounted cold build.
func (s *Store) Resident(ga *Graph) bool {
	v, ok := s.res.Peek(ga.key)
	return ok && v == ga
}

// Touch moves ga to the warm end of the LRU and counts a graph hit.
func (s *Store) Touch(ga *Graph) {
	s.res.Lookup(ga.key)
}

// Plan resolves the graph's compiled Dodin plan for the given atom cap.
// The key normalizes the cap only: a plan is compiled from topology
// alone and replays under every failure model (see spgraph.Plan), so one
// compilation serves estimates and sweeps at any pfail.
func (s *Store) Plan(ga *Graph, atoms int) (*spgraph.Plan, error) {
	return s.PlanContext(context.Background(), ga, atoms)
}

// PlanContext is Plan with the caller's request context.
func (s *Store) PlanContext(ctx context.Context, ga *Graph, atoms int) (*spgraph.Plan, error) {
	v, err := s.res.ResolveContext(ctx, Request{
		Kind: KindPlan,
		Key:  planKey(ga.ID, atoms),
		Deps: []Request{residentRequest(ga)},
		Build: func(bctx context.Context, deps []any) (any, int64, error) {
			if err := buildCheck(bctx, KindPlan); err != nil {
				return nil, 0, err
			}
			g := deps[0].(*Graph)
			plan, err := spgraph.Compile(g.G, atoms)
			if err != nil {
				return nil, 0, err
			}
			return plan, plan.SizeBytes(), nil
		},
	})
	if err != nil {
		return nil, err
	}
	s.maybeShed()
	return v.(*spgraph.Plan), nil
}

// Estimator resolves the graph's compiled Monte Carlo estimator for
// (λ, mode) — per-task probabilities and sampler threshold tables.
// The artifact is built with a placeholder run config (Trials 1,
// Workers 1); callers derive per-request variants with WithConfig,
// which is O(1) and bit-identical to cold construction.
func (s *Store) Estimator(ga *Graph, model failure.Model, mode montecarlo.Mode) (*montecarlo.Estimator, error) {
	return s.EstimatorContext(context.Background(), ga, model, mode)
}

// EstimatorContext is Estimator with the caller's request context.
func (s *Store) EstimatorContext(ctx context.Context, ga *Graph, model failure.Model, mode montecarlo.Mode) (*montecarlo.Estimator, error) {
	v, err := s.res.ResolveContext(ctx, Request{
		Kind: KindEstimator,
		Key:  estimatorKey(ga.ID, model.Lambda, mode),
		Deps: []Request{residentRequest(ga)},
		Build: func(bctx context.Context, deps []any) (any, int64, error) {
			if err := buildCheck(bctx, KindEstimator); err != nil {
				return nil, 0, err
			}
			g := deps[0].(*Graph)
			est, err := montecarlo.NewEstimatorFrozen(g.Frozen, model, montecarlo.Config{
				Trials: 1, Workers: 1, Mode: mode,
			})
			if err != nil {
				return nil, 0, err
			}
			return est, est.SizeBytes(), nil
		},
	})
	if err != nil {
		return nil, err
	}
	s.maybeShed()
	return v.(*montecarlo.Estimator), nil
}

// ScheduleEstimator resolves the graph's frozen-schedule Monte Carlo
// estimator for (policy, procs, λ): priorities, list schedule,
// schedule-DAG freeze and sampler tables, built exactly once per key.
// Like Estimator, the build uses a placeholder run config; derive the
// per-request one with WithConfig.
func (s *Store) ScheduleEstimator(ga *Graph, policy schedmc.Policy, procs int, model failure.Model) (*schedmc.Estimator, error) {
	return s.ScheduleEstimatorContext(context.Background(), ga, policy, procs, model)
}

// ScheduleEstimatorContext is ScheduleEstimator with the caller's
// request context.
func (s *Store) ScheduleEstimatorContext(ctx context.Context, ga *Graph, policy schedmc.Policy, procs int, model failure.Model) (*schedmc.Estimator, error) {
	v, err := s.res.ResolveContext(ctx, Request{
		Kind: KindSchedule,
		Key:  scheduleKey(ga.ID, policy, procs, model.Lambda),
		Deps: []Request{residentRequest(ga)},
		Build: func(bctx context.Context, deps []any) (any, int64, error) {
			if err := buildCheck(bctx, KindSchedule); err != nil {
				return nil, 0, err
			}
			g := deps[0].(*Graph)
			fs, err := schedmc.Freeze(g.G, policy, procs, model)
			if err != nil {
				return nil, 0, err
			}
			est, err := schedmc.NewEstimator(fs, model, schedmc.Config{Trials: 1, Workers: 1})
			if err != nil {
				return nil, 0, err
			}
			return est, est.SizeBytes(), nil
		},
	})
	if err != nil {
		return nil, err
	}
	s.maybeShed()
	return v.(*schedmc.Estimator), nil
}

// Snapshot returns the retained adaptive chunk-stream prefix for
// (graph, k), if any — a hit touches it warm. The snapshot is
// immutable once stored; extension installs a longer one via
// PutSnapshot.
func (s *Store) Snapshot(ga *Graph, k SnapshotKey) (*montecarlo.Snapshot, bool) {
	v, ok := s.res.Lookup(snapshotKey(ga.ID, k))
	if !ok {
		return nil, false
	}
	return v.(*montecarlo.Snapshot), true
}

// PeekSnapshot is Snapshot without the LRU touch or hit accounting —
// the coalescing leader's compare-before-replace check.
func (s *Store) PeekSnapshot(ga *Graph, k SnapshotKey) (*montecarlo.Snapshot, bool) {
	v, ok := s.res.Peek(snapshotKey(ga.ID, k))
	if !ok {
		return nil, false
	}
	return v.(*montecarlo.Snapshot), true
}

// PutSnapshot installs (or replaces, with delta accounting) the
// retained snapshot for (graph, k). Snapshots are the one
// externally-built kind — the coalescing leader runs the adaptive
// kernel itself — so retention uses Put: budget pressure may evict
// colder entries but never the snapshot being installed.
func (s *Store) PutSnapshot(ga *Graph, k SnapshotKey, snap *montecarlo.Snapshot) {
	s.res.Put(Request{
		Kind: KindSnapshot,
		Key:  snapshotKey(ga.ID, k),
		Deps: []Request{residentRequest(ga)},
	}, snap, snap.SizeBytes())
}

// Census counts one graph's resident derived artifacts per kind plus
// the total accounted bytes (graph included) — the cache object of
// GET /v1/graphs/{id}.
type Census struct {
	// Bytes is the accounted total: the graph plus its resident
	// derived artifacts.
	Bytes int64
	// DodinPlans counts resident recorded reduction schedules.
	DodinPlans int
	// Estimators counts resident compiled Monte Carlo estimators.
	Estimators int
	// Schedules counts resident frozen-schedule estimators.
	Schedules int
	// AdaptiveSnaps counts resident retained adaptive snapshots.
	AdaptiveSnaps int
}

// Census scans ga's resident dependents. A non-resident (evicted)
// graph reports only its own size: its derived artifacts were evicted
// with it.
func (s *Store) Census(ga *Graph) Census {
	c := Census{Bytes: ga.size}
	if !s.Resident(ga) {
		return c
	}
	for _, d := range s.res.DependentsOf(ga.key) {
		c.Bytes += d.Size
		switch d.Kind {
		case KindPlan:
			c.DodinPlans++
		case KindEstimator:
			c.Estimators++
		case KindSchedule:
			c.Schedules++
		case KindSnapshot:
			c.AdaptiveSnaps++
		}
	}
	return c
}

// Stats exposes the resolver's per-kind counters.
func (s *Store) Stats() map[string]KindStats { return s.res.Stats() }

// UsedBytes reports the resolver's accounted resident bytes.
func (s *Store) UsedBytes() int64 { return s.res.UsedBytes() }

// Budget reports the byte budget (<= 0: unlimited).
func (s *Store) Budget() int64 { return s.res.Budget() }
