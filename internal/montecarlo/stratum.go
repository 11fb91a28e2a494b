package montecarlo

import (
	"context"
	"math"
)

// The control variate and the stratified estimator. Let N_k be task k's
// attempt count and K = Σ_k (N_k − 1) the trial's extra executions.
// Trials with K ≤ 1 have a closed form — K = 0 is the failure-free
// makespan d0, K = 1 on task k is d0 + Δ_k with
// Δ_k = max(0, head(k) + tail(k) − d0), the paper's First Order identity
// (§IV). The First Order sum C = Σ_k (N_k − 1)·Δ_k is a control variate
// whose mean E[C] = Σ_k Δ_k·E[N_k − 1] is exact, and R = M − d0 − C is
// zero on every K ≤ 1 trial, so
//
//	E[M] = d0 + E[C] + E[R] = d0 + E[C] + P(K ≥ 2)·E[R | K ≥ 2]
//
// and only the mean of R is estimated (Glasserman 2003, §4.1 and §4.3).
// Every run takes one of two streams. Both estimate E[R | K ≥ 2] from
// draws of the law conditioned on K ≥ 2, with the same interval (see
// controlled); they differ in where the draws come from:
//
//   - The stratified stream samples only the stratum, when
//     P(K ≥ 2) ≤ stratumMaxQ and the run keeps no quantile sketch: a
//     nominal budget of N trials becomes draws(N) ≈ N·P(K ≥ 2)
//     conditional draws (proportional allocation), never fewer than
//     min(N, stratumFloorDraws).
//   - The plain stream samples every trial, and its K ≥ 2 trials are the
//     draws (post-stratification). Its makespans stay a sample of the
//     distribution, for RunSamples, quantile sketches, Min, Max and
//     StdDev. Where P(K ≥ 2) is not computed (a task that fails for
//     certain under SingleRetry) q is 1 and every trial is a draw, which
//     estimates E[R] directly.
//
// Each conditional draw d has its own SplitMix64 stream, derived from
// (Seed, d), so which worker draws it and how draws are grouped for the
// lane kernel cannot change it. Nominal chunk c stands for trials
// [c·ChunkTrials, (c+1)·ChunkTrials) of the plain stream, or for draws
// [draws(c·ChunkTrials), draws((c+1)·ChunkTrials)) of the stratified
// one; each chunk folds into its own accumulators, merged in chunk
// order, which keeps adaptive prefixes and resumed snapshots
// bit-identical to fixed runs.

const (
	// stratumMaxQ is the largest P(K ≥ 2) the estimator stratifies. Past
	// it most trials need the full longest-path evaluation anyway, the
	// conditional sampler would save less than half of the draws, and
	// the plain stream is kept.
	stratumMaxQ = 0.5
	// stratumFloorDraws is the fewest conditional draws a run of N ≥ 32
	// nominal trials makes, so that a small stratum still yields an
	// interval: one full lane block, which costs the lane kernel what a
	// partial one does.
	stratumFloorDraws = evalLanes
	// stratumUnitDraws is the size a fixed run's work units aim for: a
	// unit is a run of whole nominal chunks holding about this many
	// draws, so the lane kernel works on full blocks.
	stratumUnitDraws = 1024
	// z95 is the two-sided 95% standard normal quantile.
	z95 = 1.959963984540054
)

// stratum is the exact part and the conditional sampler's tables of an
// estimator that stratifies (Estimator.strat; nil when it does not);
// P(K ≥ 2) itself is Estimator.q. All arrays are in topological order.
type stratum struct {
	m2K1  float64 // Σ_k P(K = 1 on k)·Δ_k², the K = 1 trials' second moment about d0
	maxK1 float64 // the largest makespan a K ≤ 1 trial reaches with positive probability
	// first[k] = P(K ≥ 2 and the first extra execution is at a
	// position ≤ k), so first[n−1] == q.
	first []float64
	// logS[k] = Σ_{j<k} log(1 − pf_j): the log probability that the
	// first k positions all succeed at once; n+1 entries.
	logS []float64
}

// buildControl computes Δ_k = d(G_k) − d0 for every position — what a
// lone second attempt of the task adds to the makespan, computed like
// the plain stream's single-failure trial — E[C] and the largest failing
// weight, for every estimator, in O(V) after d0 and hpt are known. q is
// 1 until buildStratum computes it.
func (e *Estimator) buildControl() {
	e.q = 1
	e.delta = make([]float64, len(e.base))
	full := e.cfg.Mode != SingleRetry
	for k, p := range e.pfTopo {
		e.delta[k] = max(e.hpt[k]+2*e.base[k], e.d0) - e.d0
		if p == 0 {
			continue
		}
		extra := p // E[N_k − 1]
		if full {
			extra = p / (1 - p)
		}
		e.eC += e.delta[k] * extra
		e.aMax = max(e.aMax, e.base[k])
	}
}

// buildStratum computes e.q = P(K ≥ 2) when some task can fail and none
// fails for certain (SingleRetry with pf = 1 has K ≥ 1 on every trial),
// and fills e.strat when the estimator stratifies: 0 < q ≤ stratumMaxQ.
// It runs in O(V) after d0 and hpt are known.
func (e *Estimator) buildStratum() {
	n := len(e.base)
	if e.pfMax == 0 {
		return
	}
	logS := make([]float64, n+1)
	for k, p := range e.pfTopo {
		if p >= 1 {
			return
		}
		logS[k+1] = logS[k] + math.Log1p(-p)
	}
	full := e.cfg.Mode != SingleRetry
	st := &stratum{first: make([]float64, n), logS: logS, maxK1: e.d0}
	p0 := math.Exp(logS[n]) // P(K = 0)
	var q float64
	for k, p := range e.pfTopo {
		// P(first extra execution at k, K ≥ 2): every earlier position
		// succeeds, and k runs at least three times or exactly twice
		// with a later failure.
		q += math.Exp(logS[k]) * st.firstWeight(k, p, full)
		st.first[k] = q
		if p == 0 {
			continue
		}
		delta := e.delta[k]
		p1 := p / (1 - p) * p0 // P(K = 1 on k)
		if full {
			p1 = p * p0
		}
		st.m2K1 += p1 * delta * delta
		if p1 > 0 {
			st.maxK1 = max(st.maxK1, e.d0+delta)
		}
	}
	e.q = q
	if q > 0 && q <= stratumMaxQ {
		e.strat = st
	}
}

// firstWeight returns P(N_k ≥ 2 and K ≥ 2 | the positions before k
// succeed) for position k with failure probability p: under full
// re-execution N_k ≥ 3, or N_k = 2 with a later failure; under
// SingleRetry only the latter.
func (st *stratum) firstWeight(k int, p float64, full bool) float64 {
	w := p * st.later(k)
	if full {
		w = p*p + p*(1-p)*st.later(k)
	}
	return w
}

// later returns the probability that some position after k fails.
func (st *stratum) later(k int) float64 {
	n := len(st.logS) - 1
	return -math.Expm1(st.logS[n] - st.logS[k+1])
}

// control returns the control variate C = Σ (N_k − 1)·Δ_k of the
// failure set in wk.failPos/failW[:nfail], with N_k read back from the
// inflated weight. The common N_k = 2 skips the division: its quotient
// is exactly 2.
func (wk *mcWorker) control(nfail int) (c float64) {
	e := wk.e
	for i, k := range wk.failPos[:nfail] {
		if w := wk.failW[i]; w == 2*e.base[k] {
			c += e.delta[k]
		} else {
			c += (w/e.base[k] - 1) * e.delta[k]
		}
	}
	return c
}

// draws returns the conditional draws standing for the first t nominal
// trials: ⌈t·q⌉, but at least min(t, stratumFloorDraws). It is
// non-decreasing in t, which is what lets chunk c own the draws
// [draws(c·ChunkTrials), draws((c+1)·ChunkTrials)).
func (e *Estimator) draws(t int) int {
	m := int(math.Ceil(float64(t) * e.q))
	return max(m, min(t, stratumFloorDraws))
}

// sketch reports whether e's runs keep a quantile sketch: Config.Sketch,
// which a TargetQuantile implies.
func (e *Estimator) sketch() bool { return e.cfg.Sketch || e.cfg.TargetQuantile != 0 }

// stratified reports whether e's runs use the stratified estimator: it
// stratifies, and the run keeps no quantile sketch (a sketch describes
// the plain stream's trials, see Config.Sketch).
func (e *Estimator) stratified() bool { return e.strat != nil && !e.sketch() }

// withSketch returns e, or a copy of e that keeps a quantile sketch and
// so runs the plain stream.
func (e *Estimator) withSketch() *Estimator {
	if e.sketch() {
		return e
	}
	se := *e
	se.cfg.Sketch = true
	return &se
}

// newDrawRNG returns the stream of conditional draw d.
func newDrawRNG(seed uint64, d int) splitMix64 {
	return newChunkRNG(seed^0x243f6a8885a308d3, int64(d))
}

// sampleStratum draws one trial from the law conditioned on K ≥ 2,
// filling wk.failPos/failW, and returns the failure count and the draw's
// control variate C. The first extra execution's position f is found by
// binary search over the cumulative first-failure weights; under full
// re-execution the draw then decides between N_f ≥ 3 and N_f = 2 with a
// later failure. In the second case the next failing position s > f is
// drawn from its law truncated to (f, n) by inverting the prefix
// survival logS. The positions after the last one fixed are sampled
// unconditionally by the envelope skip-sampler.
func (wk *mcWorker) sampleStratum(rng *splitMix64) (nfail int, c float64) {
	e := wk.e
	st := e.strat
	n := len(e.base)
	full := e.cfg.Mode != SingleRetry
	u := rng.Float64() * e.q
	if u >= e.q {
		u = math.Nextafter(e.q, 0)
	}
	// The smallest f with first[f] > u; its weight is positive.
	lo, hi := 0, n-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if st.first[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	f := lo
	pf := e.pfTopo[f]
	mult := 2.0
	if full && rng.Float64()*st.firstWeight(f, pf, true) < pf*pf {
		// N_f ≥ 3: the attempts past the third are geometric again.
		mult = 3 + math.Floor(math.Log(rng.unitOpen())*e.invLnPf[f])
	} else {
		// N_f = 2 and a later position fails: the first such s solves
		// logS[s+1] ≤ t < logS[s], where t is the inverted truncated law,
		// clamped so rounding cannot leave (f, n) or land on a position
		// that cannot fail.
		wk.failPos[0], wk.failW[0] = int32(f), 2*e.base[f]
		nfail = 1
		top := st.logS[f+1]
		t := top + math.Log1p(rng.unitOpen()*math.Expm1(st.logS[n]-top))
		t = max(min(t, math.Nextafter(top, math.Inf(-1))), st.logS[n])
		lo, hi := f+1, n-1
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if st.logS[mid+1] <= t {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		f = lo
		if full {
			mult += math.Floor(math.Log(rng.unitOpen()) * e.invLnPf[f])
		}
	}
	wk.failPos[nfail], wk.failW[nfail] = int32(f), mult*e.base[f]
	nfail++
	if f+1 < n {
		nfail = wk.sampleFrom(rng, f+1, nfail)
	}
	return nfail, wk.control(nfail)
}

// runDraws samples and evaluates conditional draws [d0, d1), leaving
// each draw's makespan in wk.res and its control variate in wk.cv, both
// indexed from d0. A draw whose only extra executions are on one task
// resolves in O(1); the others go through the lane kernel in full
// blocks.
func (wk *mcWorker) runDraws(d0, d1 int) {
	e := wk.e
	k := d1 - d0
	if len(wk.res) < k {
		wk.res = make([]float64, k)
	}
	if len(wk.cv) < k {
		wk.cv = make([]float64, max(k, stratumUnitDraws))
	}
	res, cv := wk.res[:k], wk.cv[:k]
	wk.blk.reset()
	for i := range res {
		rng := newDrawRNG(e.cfg.Seed, d0+i)
		nfail, c := wk.sampleStratum(&rng)
		cv[i] = c
		switch {
		case nfail == 1:
			res[i] = max(e.hpt[wk.failPos[0]]+wk.failW[0], e.d0)
		case e.scalarEval:
			res[i] = wk.evalScalar(nfail)
		default:
			if wk.blk.full() {
				wk.evalBlock(&wk.blk)
				wk.blk.reset()
			}
			wk.blk.add(i, wk.failPos[:nfail], wk.failW[:nfail])
		}
	}
	if wk.blk.n > 0 {
		wk.evalBlock(&wk.blk)
		wk.blk.reset()
	}
}

// span returns where nominal chunk c starts in e's stream: its first
// trial on the plain stream, its first conditional draw on the
// stratified one. Chunk c covers [span(c), span(c+1)).
func (e *Estimator) span(c int) int {
	t := min(c*chunkSize, e.cfg.Trials)
	if e.stratified() {
		return e.draws(t)
	}
	return t
}

// run runs nominal chunks [c0, c1) of e's stream, leaving the makespans
// in wk.res and their control variates in wk.cv, both indexed from
// span(c0). The plain stream runs one chunk at a time (c1 = c0+1), on
// the chunk's own RNG stream.
func (wk *mcWorker) run(c0, c1 int) {
	e := wk.e
	if e.stratified() {
		wk.runDraws(e.span(c0), e.span(c1))
		return
	}
	wk.runChunk(newChunkRNG(e.cfg.Seed, int64(c0)), e.span(c0), e.span(c1))
}

// fold folds results [a, b) of wk's last run into one chunk's
// accumulators: acc[0] takes R = M − d0 − C and acc[1] takes M − d0 of
// the draws; on the plain stream acc[2] takes every trial's makespan M.
func (wk *mcWorker) fold(acc *[3]Welford, a, b int) {
	e := wk.e
	plain := !e.stratified()
	every := e.q == 1
	for i := a; i < b; i++ {
		x := wk.res[i]
		if plain {
			acc[2].Add(x)
			if !wk.many[i] && !every {
				continue // a K ≤ 1 trial: R = 0, and it is not a draw
			}
		}
		dy := x - e.d0
		acc[0].Add(dy - wk.cv[i])
		acc[1].Add(dy)
	}
}

// runFixed is a fixed-budget run of e's stream. Workers take units of
// whole nominal chunks — one chunk on the plain stream, about
// stratumUnitDraws draws on the stratified one; each chunk folds into
// its own accumulators, merged in chunk order. sink, when non-nil, sees
// each chunk's makespans (wk.res, valid only during the call; trials
// only on the plain stream); it may be called concurrently for distinct
// chunks.
func (e *Estimator) runFixed(ctx context.Context, sink func(c int, xs []float64)) (Result, error) {
	nChunks := e.numChunks()
	per := 1
	if e.stratified() {
		per = max(int(min(math.Ceil(stratumUnitDraws/(chunkSize*e.q)), float64(nChunks))), 1)
	}
	nUnits := (nChunks + per - 1) / per
	accs := make([][3]Welford, nChunks)
	err := e.forEach(ctx, int64(nUnits), func(wk *mcWorker, u int64) {
		c0 := int(u) * per
		c1 := min(c0+per, nChunks)
		wk.run(c0, c1)
		base := e.span(c0)
		for c := c0; c < c1; c++ {
			a, b := e.span(c)-base, e.span(c+1)-base
			wk.fold(&accs[c], a, b)
			if sink != nil {
				sink(c, wk.res[a:b])
			}
		}
	})
	if err != nil {
		return Result{}, err
	}
	var total [3]Welford
	for i := range accs {
		merge(&total, accs[i])
	}
	return e.result(total, e.cfg.Trials), nil
}

// merge folds accumulators o into acc.
func merge(acc *[3]Welford, o [3]Welford) {
	for i := range acc {
		acc[i].Merge(o[i])
	}
}

// result assembles the Result of a run of e's stream from its merged
// accumulators (see fold); trials is the nominal budget they stand for.
func (e *Estimator) result(acc [3]Welford, trials int) Result {
	if e.stratified() {
		return e.stratResult(acc[0], acc[1], trials)
	}
	all := acc[2]
	if all.N() == 0 {
		return Result{}
	}
	mean, se := e.controlled(acc[0], acc[1])
	return Result{
		Mean:      mean,
		StdDev:    all.StdDev(),
		StdErr:    se,
		CI95:      z95 * se,
		Min:       all.Min(),
		Max:       all.Max(),
		Trials:    int(all.N()),
		TrialsRun: int(all.N()),
	}
}

// controlled returns the control-variate mean d0 + E[C] + q·R̄ and its
// standard error, from the draws' accumulators of R (r) and of M − d0
// (y).
//
// The interval is the stratum's normal interval, q·z·s_R/√m over m
// draws, with a floor on s_R²: draws in which R never varies (a chain,
// or a stratum whose failures were only seen not to interact) carry no
// evidence about the interactions they missed. By the rule of three, an
// outcome not seen in m draws has probability up to 3/m at 95%; the
// floor 3·Y²/m charges one such outcome the size of the draws' mean
// excess Y (or of the largest failing weight when every draw sat at d0,
// or when the plain stream saw no draw at all, counted as m = 1). So
// the interval is zero only without failures, or where q = 0 and the
// control variate is exact.
func (e *Estimator) controlled(r, y Welford) (mean, se float64) {
	m := max(float64(r.N()), 1)
	// Mean ≥ d0 holds for the true value; a draw set whose R̄ overshoots
	// below it is projected back.
	mean = max(e.d0+e.eC+e.q*r.Mean(), e.d0)
	scale := y.Mean()
	if scale == 0 {
		scale = e.aMax
	}
	v := max(r.Variance(), 3*scale*scale/m)
	return mean, e.q * math.Sqrt(v/m)
}

// stratResult assembles a stratified run's Result from its draws' R and
// M − d0 accumulators; trials is the nominal budget they stand for.
func (e *Estimator) stratResult(r, y Welford, trials int) Result {
	st := e.strat
	if r.N() == 0 {
		return Result{Trials: trials, TrialsRun: trials}
	}
	m := float64(r.N())
	mean, se := e.controlled(r, y)
	ey := mean - e.d0
	ey2 := st.m2K1 + e.q*(y.m2/m+y.mean*y.mean)
	return Result{
		Mean:      mean,
		StdDev:    math.Sqrt(max(ey2-ey*ey, 0)),
		StdErr:    se,
		CI95:      z95 * se,
		Min:       e.d0,
		Max:       max(st.maxK1, e.d0+y.Max()),
		Trials:    trials,
		TrialsRun: trials,
	}
}
