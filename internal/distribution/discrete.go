// Package distribution implements the probability machinery the makespan
// estimators rely on: finite discrete random variables with exact sum
// (convolution) and independent-max operators, mean-preserving
// re-discretization to keep supports tractable (Dodin's method needs it),
// and normal distributions with Clark's moment formulas for the maximum of
// correlated Gaussians (Sculli's method needs them).
package distribution

import (
	"fmt"
	"math"
	"sort"
)

// Discrete is a finite discrete probability distribution over float64
// values. The invariant maintained by all constructors and operators:
// values strictly increasing, probabilities positive and summing to 1
// (within floating-point tolerance). The zero value is invalid; use the
// constructors.
type Discrete struct {
	values []float64
	probs  []float64
}

// probEps is the tolerance for probability normalization checks and the
// threshold below which atoms are dropped (then renormalized).
const probEps = 1e-12

// Point returns the deterministic distribution concentrated on v.
func Point(v float64) Discrete {
	return Discrete{values: []float64{v}, probs: []float64{1}}
}

// NewDiscrete builds a distribution from parallel value/probability slices.
// Values need not be sorted or unique; probabilities must be non-negative
// and sum to 1 within 1e-9.
func NewDiscrete(values, probs []float64) (Discrete, error) {
	if len(values) != len(probs) {
		return Discrete{}, fmt.Errorf("distribution: %d values vs %d probs", len(values), len(probs))
	}
	if len(values) == 0 {
		return Discrete{}, fmt.Errorf("distribution: empty support")
	}
	type atom struct{ v, p float64 }
	atoms := make([]atom, 0, len(values))
	total := 0.0
	for i := range values {
		if math.IsNaN(values[i]) || math.IsInf(values[i], 0) {
			return Discrete{}, fmt.Errorf("distribution: non-finite value %v", values[i])
		}
		if probs[i] < 0 || math.IsNaN(probs[i]) {
			return Discrete{}, fmt.Errorf("distribution: bad probability %v", probs[i])
		}
		total += probs[i]
		if probs[i] > 0 {
			atoms = append(atoms, atom{values[i], probs[i]})
		}
	}
	if math.Abs(total-1) > 1e-9 {
		return Discrete{}, fmt.Errorf("distribution: probabilities sum to %v, not 1", total)
	}
	if len(atoms) == 0 {
		return Discrete{}, fmt.Errorf("distribution: all probabilities zero")
	}
	sort.Slice(atoms, func(i, j int) bool { return atoms[i].v < atoms[j].v })
	d := Discrete{
		values: make([]float64, 0, len(atoms)),
		probs:  make([]float64, 0, len(atoms)),
	}
	for _, a := range atoms {
		if n := len(d.values); n > 0 && d.values[n-1] == a.v {
			d.probs[n-1] += a.p
		} else {
			d.values = append(d.values, a.v)
			d.probs = append(d.probs, a.p)
		}
	}
	d.renormalize()
	return d, nil
}

// TwoState returns the paper's per-task distribution: value a with
// probability p (first execution succeeds) and 2a with probability 1-p
// (one re-execution). p must be in [0,1].
func TwoState(a, p float64) (Discrete, error) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return Discrete{}, fmt.Errorf("distribution: success probability %v outside [0,1]", p)
	}
	switch {
	case p == 1 || a == 0:
		return Point(a), nil
	case p == 0:
		return Point(2 * a), nil
	}
	return Discrete{values: []float64{a, 2 * a}, probs: []float64{p, 1 - p}}, nil
}

// Len returns the number of support atoms.
func (d Discrete) Len() int { return len(d.values) }

// IsZero reports whether d is the invalid zero value.
func (d Discrete) IsZero() bool { return len(d.values) == 0 }

// Atom returns the i-th support point and its probability (ascending order).
func (d Discrete) Atom(i int) (value, prob float64) { return d.values[i], d.probs[i] }

// Mean returns the expectation.
func (d Discrete) Mean() float64 {
	var m float64
	for i, v := range d.values {
		m += v * d.probs[i]
	}
	return m
}

// Variance returns the variance, computed against the mean for stability.
func (d Discrete) Variance() float64 {
	m := d.Mean()
	var s float64
	for i, v := range d.values {
		dv := v - m
		s += dv * dv * d.probs[i]
	}
	return s
}

// Min and Max return the support bounds.
func (d Discrete) Min() float64 { return d.values[0] }

// Max returns the largest support point.
func (d Discrete) Max() float64 { return d.values[len(d.values)-1] }

// CDF returns P(X <= x).
func (d Discrete) CDF(x float64) float64 {
	var c float64
	for i, v := range d.values {
		if v > x {
			break
		}
		c += d.probs[i]
	}
	return c
}

// Quantile returns the smallest support value v with CDF(v) >= q, for
// q in (0, 1]. Quantile(0) returns the minimum.
func (d Discrete) Quantile(q float64) float64 {
	if q <= 0 {
		return d.values[0]
	}
	var c float64
	for i, v := range d.values {
		c += d.probs[i]
		if c >= q-probEps {
			return v
		}
	}
	return d.values[len(d.values)-1]
}

// Shift returns the distribution of X + c.
func (d Discrete) Shift(c float64) Discrete {
	vals := make([]float64, len(d.values))
	for i, v := range d.values {
		vals[i] = v + c
	}
	return Discrete{values: vals, probs: append([]float64(nil), d.probs...)}
}

// Scale returns the distribution of c*X for c >= 0.
func (d Discrete) Scale(c float64) Discrete {
	if c < 0 {
		panic("distribution: negative scale")
	}
	if c == 0 {
		return Point(0)
	}
	vals := make([]float64, len(d.values))
	for i, v := range d.values {
		vals[i] = c * v
	}
	return Discrete{values: vals, probs: append([]float64(nil), d.probs...)}
}

// Rediscretize returns a distribution with at most maxAtoms support points.
// Adjacent atoms are merged into probability-balanced bins; each bin is
// replaced by a single atom at the bin's conditional mean, so the overall
// mean is preserved exactly (variance shrinks, as with any coarsening).
// If d already fits, it is returned unchanged.
func (d Discrete) Rediscretize(maxAtoms int) Discrete {
	if maxAtoms < 1 {
		maxAtoms = 1
	}
	if len(d.values) <= maxAtoms {
		return d
	}
	return rediscretizeSlices(d.values, d.probs, maxAtoms)
}

// Sample draws one value using the uniform variate u in [0,1).
func (d Discrete) Sample(u float64) float64 {
	var c float64
	for i, p := range d.probs {
		c += p
		if u < c {
			return d.values[i]
		}
	}
	return d.values[len(d.values)-1]
}

// String renders the distribution compactly for debugging.
func (d Discrete) String() string {
	if d.IsZero() {
		return "Discrete{}"
	}
	if len(d.values) <= 4 {
		s := "Discrete{"
		for i, v := range d.values {
			if i > 0 {
				s += ", "
			}
			s += fmt.Sprintf("%g:%.4g", v, d.probs[i])
		}
		return s + "}"
	}
	return fmt.Sprintf("Discrete{%d atoms in [%g,%g], mean %.6g}",
		len(d.values), d.Min(), d.Max(), d.Mean())
}

func (d *Discrete) renormalize() {
	var total float64
	for _, p := range d.probs {
		total += p
	}
	if total <= 0 {
		panic("distribution: zero total probability")
	}
	if math.Abs(total-1) > probEps {
		for i := range d.probs {
			d.probs[i] /= total
		}
	}
}
