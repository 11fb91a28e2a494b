package artifact

import (
	"testing"

	"repro/internal/failure"
	"repro/internal/linalg"
	"repro/internal/montecarlo"
	"repro/internal/schedmc"
)

// The resolver micro-benchmarks: for each artifact kind, the cold build
// (fresh store, full construction) against the warm hit (same store,
// key lookup plus LRU touch). scripts/bench.sh packages them into
// BENCH_artifact.json; scripts/benchcheck gates the cold/warm estimator
// ratio so a regression that turns warm hits back into rebuilds (or
// makes the hit path accidentally expensive) fails CI.

const benchK = 10 // LU k=10: 1,155 tasks, the sweep benchmarks' graph

func benchGraphModel(b *testing.B) (*Store, *Graph, failure.Model) {
	b.Helper()
	g, err := linalg.Generate(linalg.FactLU, benchK, linalg.KernelTimes{})
	if err != nil {
		b.Fatal(err)
	}
	st := NewStore(0)
	ga, _, err := st.Graph(g)
	if err != nil {
		b.Fatal(err)
	}
	model, err := failure.FromPfail(0.001, ga.G.MeanWeight())
	if err != nil {
		b.Fatal(err)
	}
	return st, ga, model
}

func BenchmarkArtifactGraphCold(b *testing.B) {
	g, err := linalg.Generate(linalg.FactLU, benchK, linalg.KernelTimes{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := NewStore(0).Graph(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArtifactGraphWarm(b *testing.B) {
	st, ga, _ := benchGraphModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A warm hit still pays the canonical encoding (dag.AppendJSON)
		// and its SHA-256 — the price of addressing by content rather
		// than by reference.
		got, built, err := st.Graph(ga.G)
		if err != nil || built || got != ga {
			b.Fatalf("warm graph: built=%v err=%v", built, err)
		}
	}
}

func BenchmarkArtifactPlanCold(b *testing.B) {
	_, ga, _ := benchGraphModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := NewStore(0)
		cold, _, err := st.Graph(ga.G)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Plan(cold, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArtifactPlanWarm(b *testing.B) {
	st, ga, _ := benchGraphModel(b)
	if _, err := st.Plan(ga, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Plan(ga, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArtifactEstimatorCold(b *testing.B) {
	_, ga, model := benchGraphModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := NewStore(0)
		cold, _, err := st.Graph(ga.G)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Estimator(cold, model, montecarlo.FullReexecution); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArtifactEstimatorWarm(b *testing.B) {
	st, ga, model := benchGraphModel(b)
	if _, err := st.Estimator(ga, model, montecarlo.FullReexecution); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Estimator(ga, model, montecarlo.FullReexecution); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArtifactScheduleCold(b *testing.B) {
	_, ga, model := benchGraphModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := NewStore(0)
		cold, _, err := st.Graph(ga.G)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.ScheduleEstimator(cold, schedmc.PolicyCP, 8, model); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArtifactScheduleWarm(b *testing.B) {
	st, ga, model := benchGraphModel(b)
	if _, err := st.ScheduleEstimator(ga, schedmc.PolicyCP, 8, model); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.ScheduleEstimator(ga, schedmc.PolicyCP, 8, model); err != nil {
			b.Fatal(err)
		}
	}
}
