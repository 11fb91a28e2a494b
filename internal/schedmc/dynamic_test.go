package schedmc

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/sched"
)

// expectedResult aggregates Monte Carlo executions of a schedule policy.
type expectedResult struct {
	Mean, StdDev, StdErr, CI95 float64
	Min, Max                   float64
	Trials                     int
}

// expectedMakespan is the dynamic engine the frozen-schedule estimator
// replaced, kept as its equivalence oracle: every trial re-runs the
// event-driven list-scheduling dispatcher (sched.Run) under sampled
// failures, so each trial is a full simulation.
func expectedMakespan(g *dag.Graph, prio []float64, nprocs int, model failure.Model, trials int, seed uint64) (expectedResult, error) {
	var mean, m2 float64
	lo, hi := math.Inf(1), math.Inf(-1)
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	for t := 0; t < trials; t++ {
		s, err := sched.Run(g, prio, nprocs, model, rng)
		if err != nil {
			return expectedResult{}, err
		}
		lo, hi = min(lo, s.Makespan), max(hi, s.Makespan)
		d := s.Makespan - mean
		mean += d / float64(t+1)
		m2 += d * (s.Makespan - mean)
	}
	variance := 0.0
	if trials > 1 {
		variance = m2 / float64(trials-1)
	}
	sd := math.Sqrt(variance)
	se := sd / math.Sqrt(float64(trials))
	return expectedResult{Mean: mean, StdDev: sd, StdErr: se, CI95: 1.959963984540054 * se,
		Min: lo, Max: hi, Trials: trials}, nil
}

func TestExpectedMakespanChainClosedForm(t *testing.T) {
	// On one processor a chain's expected makespan is Σ a_i e^{λ a_i}.
	g := dag.Chain(5, 1, 2)
	m := failure.Model{Lambda: 0.1}
	p, _ := sched.Priorities(g)
	res, err := expectedMakespan(g, p, 1, m, 60000, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 0; i < g.NumTasks(); i++ {
		want += m.ExpectedTime(g.Weight(i))
	}
	if math.Abs(res.Mean-want) > 5*res.CI95 {
		t.Fatalf("expected makespan %v want %v (CI %v)", res.Mean, want, res.CI95)
	}
}

func TestFailureAwarePrioritiesHelpOrMatch(t *testing.T) {
	// On a graph engineered so the failure-aware ranking differs (a branch
	// of many small tasks vs one slightly-longer big task: re-executions
	// hurt the big task more), the failure-aware policy must not lose.
	g := dag.New(0)
	src := g.MustAddTask("src", 0.01)
	big := g.MustAddTask("big", 3.0)
	var prev = src
	for i := 0; i < 3; i++ {
		id := g.MustAddTask("small", 1.01)
		g.MustAddEdge(prev, id)
		prev = id
	}
	g.MustAddEdge(src, big)
	snk := g.MustAddTask("snk", 0.01)
	g.MustAddEdge(prev, snk)
	g.MustAddEdge(big, snk)
	m := failure.Model{Lambda: 0.25}
	det, _ := sched.Priorities(g)
	fa, _ := sched.FailureAwarePriorities(g, m)
	detRes, err := expectedMakespan(g, det, 2, m, 40000, 11)
	if err != nil {
		t.Fatal(err)
	}
	faRes, err := expectedMakespan(g, fa, 2, m, 40000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if faRes.Mean > detRes.Mean+detRes.CI95+faRes.CI95 {
		t.Fatalf("failure-aware %v significantly worse than deterministic %v", faRes.Mean, detRes.Mean)
	}
}
