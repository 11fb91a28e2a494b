package montecarlo

import (
	"context"
	"fmt"
	"math"
)

// QuantileSketch is a mergeable streaming histogram for quantile and CDF
// questions over a Monte Carlo run without O(trials) storage: a fixed
// number of equal-width cells whose width is a power of two and whose
// boundaries are multiples of that width. When a sample lands outside the
// covered range, the window shifts (same width) or the cell width doubles
// (pairwise-merging counts), so any data range is absorbed while memory
// stays constant.
//
// The power-of-two alignment is what makes merging exact: two grids'
// boundaries always nest, so rebinning moves every count to exactly one
// destination cell and a merged sketch holds the same per-cell counts as
// one sketch fed both streams at the final resolution. Quantile answers
// are within one cell width of the exact nearest-rank sample quantile,
// and the engine's per-chunk sketches reduce in chunk order to a
// worker-count-independent result.
//
// Samples must be finite (the engine only produces finite makespans);
// negative values are supported.
type QuantileSketch struct {
	cells   []uint64
	baseIdx int64 // global index of cells[0]: grid covers [baseIdx·w, (baseIdx+len)·w)
	wLog    int   // cell width = 2^wLog
	n       int64
	min     float64
	max     float64
	init    bool
}

// DefaultSketchCells is the grid size used by the engine: at any moment
// the covered range spans at most 1024 cells, so quantiles resolve to
// ~0.1% of the sample range.
const DefaultSketchCells = 1024

// NewQuantileSketch returns an empty sketch with the given cell count
// (minimum 16; DefaultSketchCells if cells <= 0).
func NewQuantileSketch(cells int) *QuantileSketch {
	if cells <= 0 {
		cells = DefaultSketchCells
	}
	if cells < 16 {
		cells = 16
	}
	return &QuantileSketch{cells: make([]uint64, cells)}
}

// N returns the number of samples added.
func (s *QuantileSketch) N() int64 { return s.n }

// Min returns the smallest sample (NaN if empty).
func (s *QuantileSketch) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest sample (NaN if empty).
func (s *QuantileSketch) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// CellWidth returns the current cell width, the resolution bound of
// Quantile and CDF answers. Zero for an empty sketch.
func (s *QuantileSketch) CellWidth() float64 {
	if !s.init {
		return 0
	}
	return math.Ldexp(1, s.wLog)
}

// idx returns the global cell index of x at the current width, clamped to
// ±2⁶² when the scaled value overflows int64 (a sample far outside the
// current range); cover/Add iterate until the width is coarse enough for
// the true index. The in-range scaling is exact (power-of-two multiply),
// so the floor is the true cell.
func (s *QuantileSketch) idx(x float64) int64 {
	v := math.Floor(math.Ldexp(x, -s.wLog))
	const lim = float64(int64(1) << 62)
	if v >= lim {
		return int64(1) << 62
	}
	if v <= -lim {
		return -(int64(1) << 62)
	}
	return int64(v)
}

// Add folds one sample into the sketch. x must be finite.
func (s *QuantileSketch) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic("montecarlo: non-finite sample in QuantileSketch")
	}
	if !s.init {
		s.init = true
		// Initial width: the whole grid spans ~4·|x| so nearby mass lands
		// in fine cells, with the first sample placed an eighth in to
		// leave headroom below (makespans cluster just above d0).
		e := math.Ilogb(math.Abs(x)) // Ilogb(0) is very negative; clamp below
		s.wLog = e + 2 - ilog2(len(s.cells))
		if s.wLog < -1000 {
			s.wLog = -1000
		}
		s.baseIdx = s.idx(x) - int64(len(s.cells)/8)
		s.min, s.max = x, x
	}
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	i := s.idx(x)
	for i < s.baseIdx || i >= s.baseIdx+int64(len(s.cells)) {
		s.cover(i, i)
		i = s.idx(x)
	}
	s.cells[i-s.baseIdx]++
	s.n++
}

// cover reshapes the grid (shifting the window and/or doubling the cell
// width) until the occupied cells and the global index range [lo, hi]
// (given at the current width) all fit. lo/hi are rescaled as the width
// coarsens.
func (s *QuantileSketch) cover(lo, hi int64) {
	size := int64(len(s.cells))
	for {
		l, h := lo, hi
		if sLo, sHi, ok := s.occupied(); ok {
			l = min64(l, sLo)
			h = max64(h, sHi)
		}
		if h-l < size {
			// The span fits: shift the window (width unchanged) so it
			// covers [l, h].
			if l < s.baseIdx {
				s.shiftBase(l)
			} else if h >= s.baseIdx+size {
				s.shiftBase(h - size + 1)
			}
			return
		}
		s.grow()
		lo = floorDiv2(lo)
		hi = floorDiv2(hi)
	}
}

// grow doubles the cell width, pairwise-merging counts in place.
func (s *QuantileSketch) grow() {
	newBase := floorDiv2(s.baseIdx)
	for i, c := range s.cells {
		if c == 0 {
			continue
		}
		s.cells[i] = 0
		s.cells[floorDiv2(s.baseIdx+int64(i))-newBase] += c
	}
	s.baseIdx = newBase
	s.wLog++
}

// shiftBase moves the grid window to newBase, keeping the width. The
// occupied cells must fit the new window.
func (s *QuantileSketch) shiftBase(newBase int64) {
	d := s.baseIdx - newBase // counts move right by d (may be negative)
	if d > 0 {
		for i := len(s.cells) - 1; i >= 0; i-- {
			if c := s.cells[i]; c != 0 {
				s.cells[i] = 0
				s.cells[int64(i)+d] += c
			}
		}
	} else if d < 0 {
		for i := 0; i < len(s.cells); i++ {
			if c := s.cells[i]; c != 0 {
				s.cells[i] = 0
				s.cells[int64(i)+d] += c
			}
		}
	}
	s.baseIdx = newBase
}

// floorDiv2 is floor(x/2) for signed x (arithmetic shift).
func floorDiv2(x int64) int64 { return x >> 1 }

// ilog2 returns floor(log2(n)) for n >= 1.
func ilog2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// occupied returns the global index range [lo, hi] of the non-empty cells.
func (s *QuantileSketch) occupied() (lo, hi int64, ok bool) {
	first, last := -1, -1
	for i, c := range s.cells {
		if c != 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return 0, 0, false
	}
	return s.baseIdx + int64(first), s.baseIdx + int64(last), true
}

// Merge folds o into s; o is unchanged. Counts are exact: the merged
// sketch holds, at its final resolution, the cell counts of both input
// streams combined.
func (s *QuantileSketch) Merge(o *QuantileSketch) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		// Adopt o's state, reusing s's cell array when it is big enough
		// (a larger grid just covers extra empty cells past o's range).
		cells := s.cells
		*s = *o
		if len(cells) < len(o.cells) {
			cells = make([]uint64, len(o.cells))
		} else {
			for i := range cells {
				cells[i] = 0
			}
		}
		copy(cells, o.cells)
		s.cells = cells
		return
	}
	oLo, oHi, ok := o.occupied()
	if !ok {
		return // inconsistent (n>0 with no counts); nothing to fold
	}
	if x := o.min; x < s.min {
		s.min = x
	}
	if x := o.max; x > s.max {
		s.max = x
	}
	for s.wLog < o.wLog {
		s.grow()
	}
	d := s.wLog - o.wLog
	s.cover(shiftIdx(oLo, d), shiftIdx(oHi, d))
	d = s.wLog - o.wLog
	for i, c := range o.cells {
		if c == 0 {
			continue
		}
		s.cells[shiftIdx(o.baseIdx+int64(i), d)-s.baseIdx] += c
	}
	s.n += o.n
}

// shiftIdx coarsens a global cell index by d doublings (floor semantics).
func shiftIdx(g int64, d int) int64 { return g >> uint(d) }

// Quantile returns an estimate of the empirical q-quantile (nearest-rank,
// like Samples.Quantile) within one cell width of the exact value:
// the midpoint of the cell holding the rank-⌈q·n⌉ sample, clamped to the
// observed [Min, Max]. NaN for an empty sketch.
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := int64(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.cells {
		cum += int64(c)
		if cum >= rank {
			w := math.Ldexp(1, s.wLog)
			v := (float64(s.baseIdx+int64(i)) + 0.5) * w
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.max // unreachable: counts sum to n
}

// Clone returns an independent deep copy of the sketch.
func (s *QuantileSketch) Clone() *QuantileSketch {
	c := *s
	c.cells = append([]uint64(nil), s.cells...)
	return &c
}

// rankCell returns the global index of the cell holding the rank-th
// smallest sample (1-based rank in [1, n]).
func (s *QuantileSketch) rankCell(rank int64) int64 {
	var cum int64
	for i, c := range s.cells {
		cum += int64(c)
		if cum >= rank {
			return s.baseIdx + int64(i)
		}
	}
	return s.baseIdx + int64(len(s.cells)) - 1 // unreachable: counts sum to n
}

// QuantileCI returns a confidence interval [lo, hi] for the distribution's
// q-quantile from binomial order statistics: with n samples the number
// below the true quantile is Binomial(n, q), so the sample ranks
// l = ⌊nq − z·√(nq(1−q))⌋ and u = ⌈nq + z·√(nq(1−q))⌉ + 1 bracket it with
// probability ≈ confidence (normal approximation to the binomial). The
// bounds are widened to the outer edges of the cells holding ranks l and u
// (clamped to the observed [Min, Max]), so the sketch's resolution makes
// the interval conservative, never optimistic: hi−lo floors at one cell
// width even as n grows. An error is returned when q or confidence is
// outside (0,1), when the sketch is empty, or when n is too small for the
// requested ranks to exist (l < 1 or u > n) — callers driving a stopping
// rule treat that as "not converged yet".
func (s *QuantileSketch) QuantileCI(q, confidence float64) (lo, hi float64, err error) {
	if !(q > 0 && q < 1) {
		return 0, 0, fmt.Errorf("montecarlo: quantile %v outside (0,1)", q)
	}
	if !(confidence > 0 && confidence < 1) {
		return 0, 0, fmt.Errorf("montecarlo: confidence %v outside (0,1)", confidence)
	}
	if s.n == 0 {
		return 0, 0, fmt.Errorf("montecarlo: QuantileCI on an empty sketch")
	}
	n := float64(s.n)
	z := normalQuantile(0.5 + confidence/2)
	half := z * math.Sqrt(n*q*(1-q))
	lRank := int64(math.Floor(n*q - half))
	uRank := int64(math.Ceil(n*q+half)) + 1
	if lRank < 1 || uRank > s.n {
		return 0, 0, fmt.Errorf("montecarlo: %d samples are too few for a %v-confidence CI of the %v-quantile", s.n, confidence, q)
	}
	w := math.Ldexp(1, s.wLog)
	lo = float64(s.rankCell(lRank)) * w   // left edge of the rank-l cell
	hi = float64(s.rankCell(uRank)+1) * w // right edge of the rank-u cell
	if lo < s.min {
		lo = s.min
	}
	if hi > s.max {
		hi = s.max
	}
	return lo, hi, nil
}

// CDF returns the fraction of samples in cells at or below the cell of x —
// within one cell's mass of the exact empirical CDF. NaN for an empty
// sketch.
func (s *QuantileSketch) CDF(x float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	i := s.idx(x)
	if i < s.baseIdx {
		return 0
	}
	if i >= s.baseIdx+int64(len(s.cells)) {
		return 1
	}
	var cum int64
	for j := int64(0); j <= i-s.baseIdx; j++ {
		cum += int64(s.cells[j])
	}
	return float64(cum) / float64(s.n)
}

// RunQuantiles runs the estimator's plain trial stream, like Run with
// Config.Sketch, and additionally returns a quantile sketch of the
// makespan distribution built from per-chunk sketches merged in chunk
// order — O(cells) memory per chunk instead of
// RunSamples' 8 bytes per trial plus a full sort, with the same
// worker-count independence: Result and sketch are identical for any
// Workers.
func (e *Estimator) RunQuantiles() (Result, *QuantileSketch, error) {
	return e.RunQuantilesContext(context.Background())
}

// RunQuantilesContext is RunQuantiles with cancellation, honored at
// chunk boundaries exactly like RunContext: a cancelled run returns
// ctx.Err() and neither a Result nor a sketch.
func (e *Estimator) RunQuantilesContext(ctx context.Context) (Result, *QuantileSketch, error) {
	if err := e.fresh(); err != nil {
		return Result{}, nil, err
	}
	e = e.withSketch()
	if e.cfg.Adaptive() {
		// An adaptive run with a sketch maintains the merged sketch (it
		// may be the stopping statistic, and snapshots must be able to
		// answer later quantile queries), so this is just Run plus the
		// sketch.
		res, snap, err := e.ResumeAdaptiveContext(ctx, nil, nil)
		if err != nil {
			return Result{}, nil, err
		}
		return res, snap.Sketch(), nil
	}
	sketches := make([]*QuantileSketch, e.numChunks())
	res, err := e.runFixed(ctx, func(c int, xs []float64) {
		sk := NewQuantileSketch(DefaultSketchCells)
		for _, x := range xs {
			sk.Add(x)
		}
		sketches[c] = sk
	})
	if err != nil {
		return Result{}, nil, err
	}
	total := NewQuantileSketch(DefaultSketchCells)
	for _, sk := range sketches {
		total.Merge(sk)
	}
	return res, total, nil
}
