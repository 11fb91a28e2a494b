package montecarlo

import (
	"context"
	"math"
	"sort"

	"repro/internal/distribution"
)

// Samples holds the raw makespans of a Monte Carlo run, sorted ascending,
// for distribution-level questions the mean alone cannot answer: tail
// quantiles (a scheduler deadline is a quantile question), histograms, and
// goodness-of-fit against analytic distributions.
type Samples struct {
	sorted []float64
}

// NewSamples sorts and wraps a sample set; the slice is taken over.
func NewSamples(xs []float64) *Samples {
	sort.Float64s(xs)
	return &Samples{sorted: xs}
}

// N returns the sample count.
func (s *Samples) N() int { return len(s.sorted) }

// Quantile returns the empirical q-quantile (nearest-rank), q in [0,1].
func (s *Samples) Quantile(q float64) float64 {
	if len(s.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.sorted[0]
	}
	if q >= 1 {
		return s.sorted[len(s.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(s.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s.sorted[idx]
}

// Mean returns the sample mean.
func (s *Samples) Mean() float64 {
	if len(s.sorted) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range s.sorted {
		sum += x
	}
	return sum / float64(len(s.sorted))
}

// CDF returns the empirical CDF at x.
func (s *Samples) CDF(x float64) float64 {
	// First index with value > x.
	i := sort.SearchFloat64s(s.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(s.sorted))
}

// HistogramBin is one bin of a histogram.
type HistogramBin struct {
	Lo, Hi float64
	Count  int
}

// Histogram bins the samples into n equal-width bins over [min, max].
func (s *Samples) Histogram(n int) []HistogramBin {
	if n < 1 || len(s.sorted) == 0 {
		return nil
	}
	lo, hi := s.sorted[0], s.sorted[len(s.sorted)-1]
	if lo == hi {
		return []HistogramBin{{Lo: lo, Hi: hi, Count: len(s.sorted)}}
	}
	width := (hi - lo) / float64(n)
	bins := make([]HistogramBin, n)
	for i := range bins {
		bins[i].Lo = lo + float64(i)*width
		bins[i].Hi = bins[i].Lo + width
	}
	for _, x := range s.sorted {
		idx := int((x - lo) / width)
		if idx >= n {
			idx = n - 1
		}
		bins[idx].Count++
	}
	return bins
}

// KolmogorovSmirnov returns the KS statistic sup_x |F_emp(x) − F(x)|
// between the samples and a discrete reference distribution — used to
// validate the Monte Carlo engine against exact series-parallel
// evaluations and to quantify how far an approximated distribution is from
// the truth. The supremum over a discrete reference is attained at the
// reference's atoms or immediately before them.
func (s *Samples) KolmogorovSmirnov(ref distribution.Discrete) float64 {
	if len(s.sorted) == 0 || ref.IsZero() {
		return math.NaN()
	}
	var worst float64
	var cum float64
	for i := 0; i < ref.Len(); i++ {
		v, p := ref.Atom(i)
		// Just below the atom.
		below := s.CDF(math.Nextafter(v, math.Inf(-1)))
		if d := math.Abs(below - cum); d > worst {
			worst = d
		}
		cum += p
		// At the atom.
		if d := math.Abs(s.CDF(v) - cum); d > worst {
			worst = d
		}
	}
	return worst
}

// RunSamples runs the estimator's plain trial stream and returns every
// sampled makespan with the Result. Memory is 8 bytes per trial. The
// sample vector is written in trial order and is bit-identical for any
// worker count; Result matches Run exactly on the plain stream (with
// Config.Sketch, or for an estimator that does not stratify). Its Mean
// is the control-variate estimate, not the samples' mean.
func (e *Estimator) RunSamples() (Result, *Samples, error) {
	if err := e.fresh(); err != nil {
		return Result{}, nil, err
	}
	// cfg.Trials is normalized to >= 1 at construction, so the run always
	// produces samples.
	all := make([]float64, e.cfg.Trials)
	res, err := e.withSketch().runFixed(context.Background(), func(c int, xs []float64) { copy(all[c*chunkSize:], xs) })
	if err != nil {
		return Result{}, nil, err
	}
	return res, NewSamples(all), nil
}
