package montecarlo

import (
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/linalg"
)

// Negative Trials/Workers used to be silently clamped to the defaults, so
// Config{Trials: -5} ran 300,000 trials for seconds; they must be
// configuration errors.
func TestNegativeConfigRejected(t *testing.T) {
	g, err := linalg.LU(4, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := failure.FromPfail(0.001, g.MeanWeight())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEstimator(g, m, Config{Trials: -5}); err == nil || !strings.Contains(err.Error(), "Trials") {
		t.Fatalf("Trials:-5 not rejected (err = %v)", err)
	}
	if _, err := Estimate(g, m, Config{Trials: -1}); err == nil {
		t.Fatal("Estimate accepted negative Trials")
	}
	if _, err := NewEstimator(g, m, Config{Workers: -2}); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Fatalf("Workers:-2 not rejected (err = %v)", err)
	}
	// Zero still selects the defaults.
	e, err := NewEstimator(g, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.Trials != DefaultTrials {
		t.Fatalf("zero Trials resolved to %d", e.cfg.Trials)
	}
}
