package service

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/linalg"
	"repro/internal/montecarlo"
)

func genGraph(t *testing.T, fact linalg.Factorization, k int) *dag.Graph {
	t.Helper()
	g, err := linalg.Generate(fact, k, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The registry is content-addressed: a generated graph and the same DAG
// resubmitted as raw JSON collapse onto one entry.
func TestRegistryContentAddressing(t *testing.T) {
	r := NewRegistry(0)
	g := genGraph(t, linalg.FactLU, 6)
	e1, created, err := r.Add(g, GraphMeta{Kind: "lu", K: 6})
	if err != nil || !created {
		t.Fatalf("first add: created=%v err=%v", created, err)
	}
	// Round-trip through JSON: a fresh *dag.Graph with identical content.
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var g2 dag.Graph
	if err := json.Unmarshal(raw, &g2); err != nil {
		t.Fatal(err)
	}
	e2, created, err := r.Add(&g2, GraphMeta{Kind: "custom"})
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("identical content created a second entry")
	}
	if e2 != e1 {
		t.Fatal("content-equal graphs mapped to different entries")
	}
	if e2.Meta().Kind != "lu" {
		t.Fatalf("resubmission relabeled the entry: %q", e2.Meta().Kind)
	}
	// The reverse direction upgrades: naming previously raw-submitted
	// content by its generator spec replaces "custom" and indexes it.
	r2 := NewRegistry(0)
	var g3 dag.Graph
	if err := json.Unmarshal(raw, &g3); err != nil {
		t.Fatal(err)
	}
	ec, _, err := r2.Add(&g3, GraphMeta{Kind: "custom"})
	if err != nil {
		t.Fatal(err)
	}
	if ec.Meta().Kind != "custom" {
		t.Fatalf("meta = %+v", ec.Meta())
	}
	eg, created, err := r2.Add(g, GraphMeta{Kind: "lu", K: 6})
	if err != nil || created || eg != ec {
		t.Fatalf("generator resubmit: created=%v err=%v same=%v", created, err, eg == ec)
	}
	if eg.Meta().Kind != "lu" || eg.Meta().K != 6 {
		t.Fatalf("meta not upgraded: %+v", eg.Meta())
	}
	if got, ok := r2.LookupGenerated(GraphMeta{Kind: "lu", K: 6}); !ok || got != ec {
		t.Fatal("upgraded entry not indexed by generator spec")
	}
	if got, ok := r.Get(e1.ID); !ok || got != e1 {
		t.Fatal("Get by id failed")
	}
	if _, ok := r.Get("sha256:nope"); ok {
		t.Fatal("bogus id resolved")
	}
	if st := r.Stats(); st.Graphs != 1 || st.UsedBytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// Over-budget inserts evict the least recently used entry; touching an
// entry protects it.
func TestRegistryLRUEviction(t *testing.T) {
	a := genGraph(t, linalg.FactCholesky, 6)
	b := genGraph(t, linalg.FactLU, 6)
	c := genGraph(t, linalg.FactQR, 6)

	// Budget that holds a and b but not a third entry.
	probe := NewRegistry(0)
	ea, _, err := probe.Add(a, GraphMeta{Kind: "cholesky", K: 6})
	if err != nil {
		t.Fatal(err)
	}
	eb, _, err := probe.Add(b, GraphMeta{Kind: "lu", K: 6})
	if err != nil {
		t.Fatal(err)
	}
	budget := ea.SizeBytes() + eb.SizeBytes() + ea.SizeBytes()/4

	r := NewRegistry(budget)
	ea, _, _ = r.Add(a, GraphMeta{Kind: "cholesky", K: 6})
	eb, _, _ = r.Add(b, GraphMeta{Kind: "lu", K: 6})
	// Touch a so b is the LRU victim when c arrives.
	if _, ok := r.Get(ea.ID); !ok {
		t.Fatal("a missing before eviction")
	}
	if _, _, err := r.Add(c, GraphMeta{Kind: "qr", K: 6}); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(eb.ID); ok {
		t.Fatal("LRU entry b survived over budget")
	}
	if _, ok := r.Get(ea.ID); !ok {
		t.Fatal("recently-used entry a evicted")
	}
	st := r.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
	if st.UsedBytes > budget {
		t.Fatalf("used %d exceeds budget %d", st.UsedBytes, budget)
	}
}

// Artifact growth (plans, estimator tables) counts against the budget and
// can itself trigger eviction of colder entries — but never of the entry
// being grown.
func TestRegistryArtifactGrowthEvicts(t *testing.T) {
	a := genGraph(t, linalg.FactCholesky, 6)
	b := genGraph(t, linalg.FactLU, 8)

	probe := NewRegistry(0)
	ea, _, _ := probe.Add(a, GraphMeta{Kind: "cholesky", K: 6})
	eb, _, _ := probe.Add(b, GraphMeta{Kind: "lu", K: 8})
	base := ea.SizeBytes() + eb.SizeBytes()

	model, err := failure.FromPfail(0.01, b.MeanWeight())
	if err != nil {
		t.Fatal(err)
	}
	// Budget: both bases fit, but not plus b's Dodin plan.
	r := NewRegistry(base + 512)
	ea, _, _ = r.Add(a, GraphMeta{Kind: "cholesky", K: 6})
	eb, _, _ = r.Add(b, GraphMeta{Kind: "lu", K: 8})
	if _, err := eb.PlanContext(context.Background(), 0, model); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(ea.ID); ok {
		t.Fatal("cold entry a survived b's artifact growth")
	}
	if _, ok := r.Get(eb.ID); !ok {
		t.Fatal("the growing entry b was evicted")
	}
	// An evicted-entry build must not corrupt accounting.
	used := r.Stats().UsedBytes
	if _, err := ea.PlanContext(context.Background(), 0, model); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().UsedBytes; got != used {
		t.Fatalf("evicted entry's artifact accounted: %d -> %d", used, got)
	}
}

// Plan and Estimator build exactly once per key under concurrent access
// and return shared pointers.
func TestEntryArtifactSingleflight(t *testing.T) {
	r := NewRegistry(0)
	g := genGraph(t, linalg.FactLU, 6)
	e, _, err := r.Add(g, GraphMeta{Kind: "lu", K: 6})
	if err != nil {
		t.Fatal(err)
	}
	model, err := failure.FromPfail(0.01, g.MeanWeight())
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	plans := make([]any, n)
	ests := make([]any, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := e.PlanContext(context.Background(), 0, model)
			if err != nil {
				t.Error(err)
			}
			plans[i] = p
			est, err := e.EstimatorContext(context.Background(), model, montecarlo.FullReexecution)
			if err != nil {
				t.Error(err)
			}
			ests[i] = est
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if plans[i] != plans[0] || ests[i] != ests[0] {
			t.Fatal("artifact not shared across concurrent builders")
		}
	}
	ci := e.Cache()
	if ci.DodinPlans != 1 || ci.Estimators != 1 {
		t.Fatalf("cache info = %+v", ci)
	}
	// A different atom cap and model key new artifacts.
	if _, err := e.PlanContext(context.Background(), 128, model); err != nil {
		t.Fatal(err)
	}
	model2, _ := failure.FromPfail(0.001, g.MeanWeight())
	if _, err := e.EstimatorContext(context.Background(), model2, montecarlo.FullReexecution); err != nil {
		t.Fatal(err)
	}
	ci = e.Cache()
	if ci.DodinPlans != 2 || ci.Estimators != 2 {
		t.Fatalf("cache info after new keys = %+v", ci)
	}
}

// The atom-cap cache key must collapse the spellings of the default and
// of "unlimited".
func TestNormAtoms(t *testing.T) {
	if artifact.NormAtoms(0) != artifact.NormAtoms(64) {
		t.Fatal("0 and 64 (the default) keyed differently")
	}
	if artifact.NormAtoms(-1) != artifact.NormAtoms(-7) {
		t.Fatal("negative caps (unlimited) keyed differently")
	}
	if artifact.NormAtoms(32) == artifact.NormAtoms(64) {
		t.Fatal("distinct caps collided")
	}
}
