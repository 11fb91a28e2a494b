package schedmc

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/linalg"
)

// The headline configuration of the PR 5 acceptance criterion: LU k=16
// (1,496 tasks) on 8 processors, pfail 0.01, 2,000 trials — the exact
// workload the pre-PR5 schedsim ran. scripts/bench.sh turns these into
// BENCH_sched.json and scripts/benchcheck gates the ≥10× legacy/new
// ratio plus absolute regressions.
const (
	benchK      = 16
	benchProcs  = 8
	benchPFail  = 0.01
	benchTrials = 2000
)

func benchSetup(b *testing.B) (*dag.Graph, failure.Model) {
	b.Helper()
	g, err := linalg.Generate(linalg.FactLU, benchK, linalg.KernelTimes{})
	if err != nil {
		b.Fatal(err)
	}
	model, err := failure.FromPfail(benchPFail, g.MeanWeight())
	if err != nil {
		b.Fatal(err)
	}
	return g, model
}

// BenchmarkSchedsimLegacyLU16 is the pre-PR5 engine: the dynamic
// per-trial re-scheduling loop (event heaps, per-task rejection
// sampling) at 2,000 trials per op.
func BenchmarkSchedsimLegacyLU16(b *testing.B) {
	g, model := benchSetup(b)
	prio, err := PolicyCP.Priorities(g, model)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expectedMakespan(g, prio, benchProcs, model, benchTrials, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedMCLU16 is the full cold path of the rebuilt schedsim:
// priorities, list schedule, schedule-DAG freeze, estimator build
// (threshold tables) and 2,000 fused trials per op.
func BenchmarkSchedMCLU16(b *testing.B) {
	g, model := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(g, PolicyCP, benchProcs, model, Config{Trials: benchTrials, Seed: 42, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedMCWarmLU16 is the makespand warm path: the frozen
// schedule and compiled estimator are cached, each op pays only the O(1)
// reconfig plus the 2,000 trials.
func BenchmarkSchedMCWarmLU16(b *testing.B) {
	g, model := benchSetup(b)
	fs, err := Freeze(g, PolicyCP, benchProcs, model)
	if err != nil {
		b.Fatal(err)
	}
	warm, err := NewEstimator(fs, model, Config{Trials: 1, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := warm.WithConfig(Config{Trials: benchTrials, Seed: 42, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedFreezeLU16 isolates schedule compilation: priorities,
// list scheduling and the schedule-DAG freeze.
func BenchmarkSchedFreezeLU16(b *testing.B) {
	g, model := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Freeze(g, PolicyCP, benchProcs, model); err != nil {
			b.Fatal(err)
		}
	}
}
