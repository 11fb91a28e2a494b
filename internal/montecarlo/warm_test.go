package montecarlo

import (
	"testing"

	"repro/internal/failure"
	"repro/internal/linalg"
)

// WithConfig must reproduce a fresh estimator's result bit for bit while
// sharing the compiled snapshot, for several (trials, seed) pairs and
// worker counts.
func TestWithConfigMatchesFreshEstimator(t *testing.T) {
	g, err := linalg.Generate(linalg.FactLU, 8, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	model, err := failure.FromPfail(0.01, g.MeanWeight())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewEstimator(g, model, Config{Trials: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Config{
		{Trials: 3000, Seed: 7},
		{Trials: 5000, Seed: 7, Workers: 3},
		{Trials: 3000, Seed: 11, Workers: 2},
	} {
		fresh, err := NewEstimator(g, model, c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}
		re, err := warm.WithConfig(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := re.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("cfg %+v: warm %+v != fresh %+v", c, got, want)
		}
	}
	// The original stays runnable after derivations.
	if _, err := warm.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWithConfigValidation(t *testing.T) {
	g, _ := linalg.Generate(linalg.FactCholesky, 4, linalg.KernelTimes{})
	model, _ := failure.FromPfail(0.01, g.MeanWeight())
	e, err := NewEstimator(g, model, Config{Trials: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.WithConfig(Config{Trials: -1}); err == nil {
		t.Fatal("negative trials accepted")
	}
	if _, err := e.WithConfig(Config{Workers: -2}); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := e.WithConfig(Config{Mode: SingleRetry}); err == nil {
		t.Fatal("mode change accepted")
	}
	re, err := e.WithConfig(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if re.cfg.Trials != DefaultTrials {
		t.Fatalf("default trials = %d", re.cfg.Trials)
	}
}

func TestEstimatorSizeBytes(t *testing.T) {
	g, _ := linalg.Generate(linalg.FactLU, 10, linalg.KernelTimes{})
	// High pfail so the threshold tables are built (n·pfMax ≥ 8).
	model, _ := failure.FromPfail(0.05, g.MeanWeight())
	e, err := NewEstimator(g, model, Config{Trials: 100})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(g.NumTasks())
	if s := e.SizeBytes(); s < 3*8*n {
		t.Fatalf("SizeBytes = %d, below the bare per-task arrays (%d tasks)", s, n)
	}
	if e.tables == nil {
		t.Fatal("expected threshold tables at pfail 0.05")
	}
	lo, _ := failure.FromPfail(1e-6, g.MeanWeight())
	small, err := NewEstimator(g, lo, Config{Trials: 100})
	if err != nil {
		t.Fatal(err)
	}
	if small.tables != nil && small.SizeBytes() >= e.SizeBytes() {
		t.Fatalf("low-pfail estimator not smaller: %d vs %d", small.SizeBytes(), e.SizeBytes())
	}
}
