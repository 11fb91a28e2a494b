package montecarlo

import (
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/distribution"
	"repro/internal/failure"
	"repro/internal/spgraph"
)

func TestSamplesBasics(t *testing.T) {
	s := NewSamples([]float64{3, 1, 2, 5, 4})
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Quantile(0) != 1 || s.Quantile(1) != 5 {
		t.Fatalf("extreme quantiles wrong")
	}
	if s.Quantile(0.5) != 3 {
		t.Fatalf("median = %v", s.Quantile(0.5))
	}
	if s.Quantile(0.2) != 1 || s.Quantile(0.21) != 2 {
		t.Fatalf("nearest-rank quantiles wrong: %v %v", s.Quantile(0.2), s.Quantile(0.21))
	}
}

func TestSamplesEmpty(t *testing.T) {
	s := NewSamples(nil)
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("empty samples should be NaN")
	}
	if s.Histogram(4) != nil {
		t.Fatal("empty histogram should be nil")
	}
	var d distribution.Discrete
	if !math.IsNaN(s.KolmogorovSmirnov(d)) {
		t.Fatal("empty KS should be NaN")
	}
}

func TestSamplesCDF(t *testing.T) {
	s := NewSamples([]float64{1, 2, 2, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 0.75}, {4, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := s.CDF(c.x); got != c.want {
			t.Errorf("CDF(%v) = %v want %v", c.x, got, c.want)
		}
	}
}

func TestHistogram(t *testing.T) {
	s := NewSamples([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	bins := s.Histogram(4)
	if len(bins) != 4 {
		t.Fatalf("bins = %d", len(bins))
	}
	total := 0
	for _, b := range bins {
		total += b.Count
		if b.Hi <= b.Lo {
			t.Fatalf("degenerate bin %+v", b)
		}
	}
	if total != s.N() {
		t.Fatalf("histogram total %d != %d", total, s.N())
	}
	// Constant samples collapse to one bin.
	c := NewSamples([]float64{2, 2, 2})
	bins = c.Histogram(5)
	if len(bins) != 1 || bins[0].Count != 3 {
		t.Fatalf("constant histogram = %+v", bins)
	}
}

func TestKolmogorovSmirnovAgainstItself(t *testing.T) {
	// Sampling directly from a discrete distribution must give a small KS.
	d, _ := distribution.NewDiscrete([]float64{1, 2, 4}, []float64{0.2, 0.3, 0.5})
	rng := testRNG(9)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = d.Sample(rng.Float64())
	}
	s := NewSamples(xs)
	if ks := s.KolmogorovSmirnov(d); ks > 0.01 {
		t.Fatalf("KS against own distribution = %v", ks)
	}
	// Against a shifted distribution the KS must be large.
	wrong, _ := distribution.NewDiscrete([]float64{10, 20}, []float64{0.5, 0.5})
	if ks := s.KolmogorovSmirnov(wrong); ks < 0.9 {
		t.Fatalf("KS against wrong distribution = %v", ks)
	}
}

func TestRunSamplesMatchesRun(t *testing.T) {
	g := dag.Diamond(1, 5, 3, 2)
	m := failure.Model{Lambda: 0.1}
	e, err := NewEstimator(g, m, Config{Trials: 30000, Seed: 5, Mode: SingleRetry})
	if err != nil {
		t.Fatal(err)
	}
	res, samples, err := e.RunSamples()
	if err != nil {
		t.Fatal(err)
	}
	if samples.N() != 30000 || res.Trials != 30000 {
		t.Fatalf("counts: %d %d", samples.N(), res.Trials)
	}
	pe, err := e.WithConfig(Config{Trials: 30000, Seed: 5, Mode: SingleRetry, Sketch: true})
	if err != nil {
		t.Fatal(err)
	}
	if run, err := pe.Run(); err != nil || run != res {
		t.Fatalf("RunSamples %+v != plain-stream Run %+v (%v)", res, run, err)
	}
	// Mean is the control-variate estimate; the samples' own mean agrees
	// with it within their joint standard error.
	joint := math.Hypot(res.StdErr, res.StdDev/math.Sqrt(30000))
	if math.Abs(res.Mean-samples.Mean()) > 4*joint {
		t.Fatalf("means differ: %v vs %v (joint SE %v)", res.Mean, samples.Mean(), joint)
	}
	if samples.Quantile(0) != res.Min || samples.Quantile(1) != res.Max {
		t.Fatalf("extremes differ")
	}
}

// End-to-end distribution validation: the Monte Carlo makespan
// distribution of a series-parallel graph must match the exact SP
// evaluation in Kolmogorov–Smirnov distance.
func TestMonteCarloDistributionMatchesExactSP(t *testing.T) {
	g := dag.Diamond(1, 5, 3, 2)
	m := failure.Model{Lambda: 0.2}
	exact, stats, err := spgraph.Dodin(g, m, -1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Duplications != 0 {
		t.Fatalf("diamond needed %d duplications", stats.Duplications)
	}
	e, err := NewEstimator(g, m, Config{Trials: 200000, Seed: 8, Mode: SingleRetry})
	if err != nil {
		t.Fatal(err)
	}
	_, samples, err := e.RunSamples()
	if err != nil {
		t.Fatal(err)
	}
	if ks := samples.KolmogorovSmirnov(exact.Distribution); ks > 0.01 {
		t.Fatalf("KS between MC and exact SP distribution = %v", ks)
	}
	// Quantiles line up too.
	for _, q := range []float64{0.5, 0.9, 0.99} {
		mcq := samples.Quantile(q)
		exq := exact.Distribution.Quantile(q)
		if mcq != exq {
			t.Fatalf("q=%v: MC %v vs exact %v", q, mcq, exq)
		}
	}
}
