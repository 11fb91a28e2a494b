package schedmc

import (
	"reflect"
	"testing"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/linalg"
	"repro/internal/sched"
)

func mustLU(t testing.TB, k int) *dag.Graph {
	t.Helper()
	g, err := linalg.Generate(linalg.FactLU, k, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustModel(t testing.TB, g *dag.Graph, pfail float64) failure.Model {
	t.Helper()
	m, err := failure.FromPfail(pfail, g.MeanWeight())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The compiled schedule DAG must reproduce the simulated failure-free
// schedule bit for bit, for both policies across shapes and processor
// counts (Freeze itself verifies the invariant; this exercises it).
func TestFreezeMatchesListSchedule(t *testing.T) {
	for _, kind := range linalg.All() {
		for _, k := range []int{2, 5, 8} {
			g, err := linalg.Generate(kind, k, linalg.KernelTimes{})
			if err != nil {
				t.Fatal(err)
			}
			model := mustModel(t, g, 0.01)
			for _, procs := range []int{1, 3, 7, 64} {
				for _, pol := range AllPolicies() {
					fs, err := Freeze(g, pol, procs, model)
					if err != nil {
						t.Fatalf("%s k=%d procs=%d %s: %v", kind, k, procs, pol, err)
					}
					prio, err := pol.Priorities(g, model)
					if err != nil {
						t.Fatal(err)
					}
					base, err := sched.ListSchedule(g, prio, procs)
					if err != nil {
						t.Fatal(err)
					}
					if fs.Makespan != base.Makespan {
						t.Fatalf("%s k=%d procs=%d %s: frozen %v != simulated %v",
							kind, k, procs, pol, fs.Makespan, base.Makespan)
					}
					if fs.Frozen.Makespan() != base.Makespan {
						t.Fatalf("schedule DAG longest path %v != %v", fs.Frozen.Makespan(), base.Makespan)
					}
					if eff := fs.Efficiency(); eff <= 0 || eff > 1+1e-12 {
						t.Fatalf("efficiency %v outside (0,1]", eff)
					}
				}
			}
		}
	}
}

// On one processor the schedule is a total order: the schedule DAG's
// makespan is the serial sum of all weights.
func TestSingleProcessorSerializes(t *testing.T) {
	g := mustLU(t, 6)
	fs, err := Freeze(g, PolicyCP, 1, failure.Model{})
	if err != nil {
		t.Fatal(err)
	}
	want := g.TotalWeight()
	if diff := fs.Makespan - want; diff > 1e-9*want || diff < -1e-9*want {
		t.Fatalf("1-proc makespan %v, total weight %v", fs.Makespan, want)
	}
}

// Chain edges on a handcrafted diamond: two independent middle tasks on
// one processor must be chained; the chain respects dispatch order.
func TestChainEdgesDiamond(t *testing.T) {
	g := dag.New(4)
	a := g.MustAddTask("a", 1)
	b := g.MustAddTask("b", 2)
	c := g.MustAddTask("c", 3)
	d := g.MustAddTask("d", 1)
	g.MustAddEdge(a, b)
	g.MustAddEdge(a, c)
	g.MustAddEdge(b, d)
	g.MustAddEdge(c, d)
	fs, err := Freeze(g, PolicyCP, 1, failure.Model{})
	if err != nil {
		t.Fatal(err)
	}
	// Serial execution: every consecutive dispatch pair not already a
	// precedence edge becomes a chain edge — here exactly (c,b) or (b,c).
	if fs.ChainEdges != 1 {
		t.Fatalf("want 1 chain edge, got %d", fs.ChainEdges)
	}
	// Priorities: bl(b)+w = 2+1+... c has higher bottom level (3+1)+3? CP
	// priority of b = 2+1 = 3, of c = 3+1 = 4, so c dispatches first.
	if !fs.Graph.HasEdge(c, b) {
		t.Fatal("expected chain edge c -> b (c has the higher bottom level)")
	}
	if fs.Makespan != 7 {
		t.Fatalf("serial makespan %v, want 7", fs.Makespan)
	}
	// On two processors b and c overlap: no chain edge between them.
	fs2, err := Freeze(g, PolicyCP, 2, failure.Model{})
	if err != nil {
		t.Fatal(err)
	}
	if fs2.ChainEdges != 0 {
		t.Fatalf("2-proc diamond wants 0 chain edges, got %d", fs2.ChainEdges)
	}
	if fs2.Makespan != 5 {
		t.Fatalf("2-proc makespan %v, want 5 (a + c + d)", fs2.Makespan)
	}
}

// Configuration errors must surface at construction, matching the
// montecarlo.Config convention.
func TestConfigValidation(t *testing.T) {
	g := mustLU(t, 4)
	model := mustModel(t, g, 0.01)
	if _, err := Freeze(g, PolicyCP, 0, model); err == nil {
		t.Error("procs=0 accepted")
	}
	if _, err := Freeze(g, Policy("bogus"), 2, model); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := New(g, PolicyCP, 2, model, Config{Trials: -1}); err == nil {
		t.Error("negative trials accepted")
	}
	if _, err := New(g, PolicyCP, 2, model, Config{Workers: -2}); err == nil {
		t.Error("negative workers accepted")
	}
}

func TestParsePolicies(t *testing.T) {
	for _, sel := range []string{"", "both", "all"} {
		ps, err := ParsePolicies(sel)
		if err != nil || len(ps) != 2 {
			t.Fatalf("ParsePolicies(%q) = %v, %v", sel, ps, err)
		}
	}
	ps, err := ParsePolicies("fo")
	if err != nil || len(ps) != 1 || ps[0] != PolicyFirstOrder {
		t.Fatalf("ParsePolicies(fo) = %v, %v", ps, err)
	}
	ps, err = ParsePolicies("cp, fo")
	if err != nil || len(ps) != 2 {
		t.Fatalf("ParsePolicies(cp, fo) = %v, %v", ps, err)
	}
	if _, err := ParsePolicies("heft"); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := ParsePolicies(","); err == nil {
		t.Error("empty list accepted")
	}
}

// With a zero failure rate every trial evaluates to the committed
// schedule's makespan, exactly.
func TestZeroLambdaDegenerate(t *testing.T) {
	g := mustLU(t, 5)
	e, err := New(g, PolicyCP, 4, failure.Model{}, Config{Trials: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean != e.Schedule().Makespan || res.StdDev != 0 || res.Min != res.Max {
		t.Fatalf("zero-λ run not degenerate: %+v (schedule %v)", res, e.Schedule().Makespan)
	}
}

// WithConfig must be indistinguishable from a cold build with the same
// configuration, and must reject what montecarlo rejects.
func TestWithConfigMatchesCold(t *testing.T) {
	g := mustLU(t, 6)
	model := mustModel(t, g, 0.02)
	warm, err := New(g, PolicyFirstOrder, 4, model, Config{Trials: 1, Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	re, err := warm.WithConfig(Config{Trials: 5000, Seed: 77, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New(g, PolicyFirstOrder, 4, model, Config{Trials: 5000, Seed: 77, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := re.Run()
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cold.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rw != rc {
		t.Fatalf("warm %+v != cold %+v", rw, rc)
	}
	if re.Schedule() != warm.Schedule() {
		t.Error("WithConfig must share the frozen schedule")
	}
	if _, err := warm.WithConfig(Config{Trials: -3}); err == nil {
		t.Error("negative trials accepted by WithConfig")
	}
}

func TestSizeBytesPositive(t *testing.T) {
	g := mustLU(t, 6)
	model := mustModel(t, g, 0.01)
	e, err := New(g, PolicyCP, 4, model, Config{Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.SizeBytes() <= e.Schedule().SizeBytes() || e.Schedule().SizeBytes() <= 0 {
		t.Fatalf("implausible sizes: estimator %d, schedule %d", e.SizeBytes(), e.Schedule().SizeBytes())
	}
}

// Processors past the task count are never used, so a schedule on more
// processors than tasks is the schedule on n, built without allocating
// per-processor state for the idle ones; only Procs and Efficiency keep
// the requested count.
func TestFreezeProcsBeyondTasks(t *testing.T) {
	g := mustLU(t, 5)
	n := g.NumTasks()
	model := mustModel(t, g, 0.01)
	for _, pol := range AllPolicies() {
		atN, err := Freeze(g, pol, n, model)
		if err != nil {
			t.Fatal(err)
		}
		many, err := Freeze(g, pol, 1000000, model)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(many.Base, atN.Base) || many.ChainEdges != atN.ChainEdges || many.Makespan != atN.Makespan {
			t.Fatalf("%s: schedule on 1e6 processors differs from the one on n=%d", pol, n)
		}
		if many.Procs != 1000000 || many.Efficiency() != atN.EfficiencyOn(1000000) {
			t.Fatalf("%s: procs %d efficiency %v, want 1e6 and %v", pol, many.Procs, many.Efficiency(), atN.EfficiencyOn(1000000))
		}
	}
}
