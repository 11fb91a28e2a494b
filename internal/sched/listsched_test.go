package sched

import (
	"math"
	mrand "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/linalg"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPrioritiesAreCPLengths(t *testing.T) {
	g := dag.Diamond(1, 5, 3, 2)
	p, err := Priorities(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{8, 7, 5, 2} // a_i + bl(i)
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("prio[%d] = %v want %v", i, p[i], want[i])
		}
	}
}

func TestFailureAwarePrioritiesDominate(t *testing.T) {
	g := dag.Diamond(1, 5, 3, 2)
	m := failure.Model{Lambda: 0.05}
	det, _ := Priorities(g)
	fa, err := FailureAwarePriorities(g, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range det {
		if fa[i] < det[i]-1e-12 {
			t.Fatalf("failure-aware prio[%d]=%v below deterministic %v", i, fa[i], det[i])
		}
	}
}

func TestListScheduleSingleProcessorIsSerialization(t *testing.T) {
	g := dag.Diamond(1, 5, 3, 2)
	p, _ := Priorities(g)
	s, err := ListSchedule(g, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(s.Makespan, g.TotalWeight(), 1e-12) {
		t.Fatalf("1-proc makespan = %v want total %v", s.Makespan, g.TotalWeight())
	}
}

func TestListScheduleUnlimitedProcsIsCriticalPath(t *testing.T) {
	g := dag.Diamond(1, 5, 3, 2)
	p, _ := Priorities(g)
	s, err := ListSchedule(g, p, g.NumTasks())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := dag.Makespan(g)
	if !almostEq(s.Makespan, d, 1e-12) {
		t.Fatalf("unlimited makespan = %v want d(G) = %v", s.Makespan, d)
	}
}

func TestListScheduleRespectsPrecedence(t *testing.T) {
	g, _ := linalg.Cholesky(5, linalg.KernelTimes{})
	p, _ := Priorities(g)
	s, err := ListSchedule(g, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.NumTasks(); u++ {
		for _, v := range g.Succ(u) {
			if s.Start[v] < s.Finish[u]-1e-12 {
				t.Fatalf("task %d starts %v before pred %d finishes %v", v, s.Start[v], u, s.Finish[u])
			}
		}
	}
}

func TestListScheduleNoProcessorOverlap(t *testing.T) {
	g, _ := linalg.LU(4, linalg.KernelTimes{})
	p, _ := Priorities(g)
	s, err := ListSchedule(g, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	type iv struct{ s, f float64 }
	byProc := map[int][]iv{}
	for i := 0; i < g.NumTasks(); i++ {
		byProc[s.Proc[i]] = append(byProc[s.Proc[i]], iv{s.Start[i], s.Finish[i]})
	}
	for proc, ivs := range byProc {
		for i := range ivs {
			for j := i + 1; j < len(ivs); j++ {
				a, b := ivs[i], ivs[j]
				if a.s < b.f-1e-12 && b.s < a.f-1e-12 {
					t.Fatalf("proc %d: overlapping tasks [%v,%v] and [%v,%v]", proc, a.s, a.f, b.s, b.f)
				}
			}
		}
	}
}

func TestListScheduleErrors(t *testing.T) {
	g := dag.Chain(3)
	p, _ := Priorities(g)
	if _, err := ListSchedule(g, p, 0); err == nil {
		t.Error("nprocs=0 accepted")
	}
	if _, err := ListSchedule(g, p[:1], 2); err == nil {
		t.Error("short priority vector accepted")
	}
	cyc := dag.New(2)
	a := cyc.MustAddTask("a", 1)
	b := cyc.MustAddTask("b", 1)
	cyc.MustAddEdge(a, b)
	cyc.MustAddEdge(b, a)
	if _, err := ListSchedule(cyc, []float64{1, 1}, 1); err == nil {
		t.Error("cycle accepted")
	}
}

func TestRunWithFailuresAddsAttempts(t *testing.T) {
	g := dag.Chain(10, 1)
	p, _ := Priorities(g)
	m := failure.Model{Lambda: 0.5} // pfail ≈ 0.39 per task: failures all but certain
	rng := rand.New(rand.NewPCG(7, 7))
	s, err := Run(g, p, 1, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	totalAttempts := 0
	for _, a := range s.Attempts {
		if a < 1 {
			t.Fatalf("attempts < 1: %v", s.Attempts)
		}
		totalAttempts += a
	}
	if totalAttempts == g.NumTasks() {
		t.Fatal("no failures sampled at λ=0.5 over 10 tasks (astronomically unlikely)")
	}
	if !almostEq(s.Makespan, float64(totalAttempts), 1e-12) {
		t.Fatalf("makespan %v != total executed work %v on 1 proc", s.Makespan, float64(totalAttempts))
	}
}

func TestRunFailureFreeAttemptsAreOne(t *testing.T) {
	g := dag.Diamond(1, 2, 3, 4)
	p, _ := Priorities(g)
	s, _ := ListSchedule(g, p, 2)
	for i, a := range s.Attempts {
		if a != 1 {
			t.Fatalf("attempts[%d] = %d", i, a)
		}
	}
}

// Property: makespan decreases (weakly) with more processors and is always
// between d(G) and total work.
func TestQuickMakespanMonotoneInProcs(t *testing.T) {
	f := func(seed int64) bool {
		rng := mrand.New(mrand.NewSource(seed))
		g, err := dag.LayeredRandom(dag.RandomConfig{Tasks: 25, EdgeProb: 0.3, MaxLayerWidth: 5}, rng)
		if err != nil {
			return false
		}
		p, err := Priorities(g)
		if err != nil {
			return false
		}
		d, _ := dag.Makespan(g)
		prev := math.Inf(1)
		for _, np := range []int{1, 2, 4, 25} {
			s, err := ListSchedule(g, p, np)
			if err != nil {
				return false
			}
			if s.Makespan > prev+1e-9 {
				return false
			}
			if s.Makespan < d-1e-9 || s.Makespan > g.TotalWeight()+1e-9 {
				return false
			}
			prev = s.Makespan
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDeterministicGivenSeed(t *testing.T) {
	g, _ := linalg.QR(4, linalg.KernelTimes{})
	p, _ := Priorities(g)
	m := failure.Model{Lambda: 0.1}
	s1, err := Run(g, p, 3, m, rand.New(rand.NewPCG(5, 5)))
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := Run(g, p, 3, m, rand.New(rand.NewPCG(5, 5)))
	if s1.Makespan != s2.Makespan {
		t.Fatalf("same seed, different makespans: %v %v", s1.Makespan, s2.Makespan)
	}
}
