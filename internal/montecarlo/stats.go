// Package montecarlo implements the brute-force ground truth of the
// paper's evaluation (§II-A1, §V-C): repeated sampling of per-task
// execution times followed by a longest-path computation, with streaming
// statistics. It also provides exact expectation by subset enumeration for
// tiny graphs, used to validate both the sampler and the analytical
// estimators.
package montecarlo

import "math"

// Welford accumulates a running mean and variance in one pass
// (Welford's algorithm). The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Merge folds another accumulator into w (Chan et al. parallel variant),
// enabling per-worker accumulation with a final reduction.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n1, n2 := float64(w.n), float64(o.n)
	d := o.mean - w.mean
	tot := n1 + n2
	w.mean += d * n2 / tot
	w.m2 += o.m2 + d*d*n1*n2/tot
	w.n += o.n
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// Min returns the smallest observation (0 if empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 if empty).
func (w *Welford) Max() float64 { return w.max }

// CI95 returns the half-width of the 95% normal confidence interval of the
// mean.
func (w *Welford) CI95() float64 { return z95 * w.StdErr() }
