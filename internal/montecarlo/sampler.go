package montecarlo

import "math"

// This file implements phase 1 of the split trial pipeline: sequential
// per-chunk failure sampling. Two interchangeable samplers produce the
// exact same failure sets from the exact same RNG stream:
//
//   - sampleRef is the reference implementation, byte-for-byte the
//     arithmetic of the original fused trial loop (math.Log-based skip
//     sampling, thinning, inverted-geometric attempt counts).
//   - sampleFast resolves every decision with integer comparisons against
//     precomputed bit-level threshold tables, touching math.Log only on
//     the (rare) draws that fall outside a table. The tables are built by
//     binary search over raw draw bit patterns against the reference
//     float pipeline, so the fast path is bit-identical to sampleRef by
//     construction, not by approximation.
//
// Both consume the chunk's SplitMix64 stream in the original per-trial
// draw order, so the sampled failure sets — and therefore every Result
// and sample vector — are bit-identical to the fused v2 engine.

// b2i converts a comparison to 0/1 without a branch (SETcc on amd64),
// letting the gap scan count table hits branch-free.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sampleRef draws one trial's failure set with the reference arithmetic,
// filling wk.failPos/wk.failW and returning the failure count. This is the
// original fused-sampler loop verbatim.
func (wk *mcWorker) sampleRef(rng *splitMix64) int { return wk.sampleRefFrom(rng, 0, 0) }

// sampleRefFrom is sampleRef over positions [k0, n) only, appending to the
// nfail failures already recorded (the stratum sampler's unconditional
// tail, see stratum.go).
func (wk *mcWorker) sampleRefFrom(rng *splitMix64, k0, nfail int) int {
	e := wk.e
	n := len(e.base)
	single := e.cfg.Mode == SingleRetry
	for k := k0; ; k++ {
		// Skip directly to the next candidate failure under the envelope:
		// the gap is geometric with parameter pfMax.
		g := math.Log(rng.unitOpen()) * e.invLnQ
		if g >= float64(n-k) {
			break
		}
		k += int(g)
		pf := e.pfTopo[k]
		// Thinning: the candidate is a real first-attempt failure w.p.
		// pf/pfMax (zero-pfail tasks are never accepted).
		if rng.Float64()*e.pfMax >= pf {
			continue
		}
		mult := 2.0
		if !single {
			// Extra re-executions beyond the retry: inverted geometric,
			// 1 + floor(ln U / ln pf) attempts total beyond the first.
			mult += math.Floor(math.Log(rng.unitOpen()) * e.invLnPf[k])
		}
		wk.failPos[nfail] = int32(k)
		wk.failW[nfail] = mult * e.base[k]
		nfail++
	}
	return nfail
}

// sampleFast is sampleRef with every log/multiply decision replaced by an
// integer comparison on the raw draw payloads. Must only run when
// e.tables != nil.
//
// All three candidate draws (gap, thinning, attempts) are computed
// speculatively up front — SplitMix64 states form an arithmetic sequence,
// so the three mix64 pipelines overlap instead of each draw waiting on
// the branch that decides whether it is consumed. The stream position
// advances by exactly the number of draws the reference sampler would
// have consumed, so the draw order is untouched.
func (wk *mcWorker) sampleFast(rng *splitMix64, k0, nfail int) int {
	e := wk.e
	tb := e.tables
	n := len(e.base)
	single := e.cfg.Mode == SingleRetry
	gap := tb.gapBits
	last := tb.gapLast
	thin := tb.thinBits
	attFirst := tb.attFirst
	// The trial is a serial chain of candidates, each needing its gap draw
	// before anything else can happen, so the loop is software-pipelined:
	// while the current candidate resolves, the NEXT candidate's gap draw
	// is computed speculatively for both possible stream positions (reject
	// consumes two draws, accept three) and the right one is selected once
	// the thinning branch settles. On the predicted path the next iteration
	// starts with its gap payload already in hand instead of waiting out
	// the mix64 latency.
	s1 := rng.s + gamma // state of the pending gap draw
	w := mix64(s1)>>11 + 1
	for k := k0; ; k++ {
		s2 := s1 + gamma
		s3 := s2 + gamma
		w2 := mix64(s2) >> 11
		// w3 doubles as the attempt payload (accept) and the next gap
		// payload (reject): both read (mix64(s3)>>11)+1.
		w3 := mix64(s3)>>11 + 1
		wA := mix64(s3+gamma)>>11 + 1 // next gap payload if accepted (s3 consumed)
		rem := n - k
		// The envelope gap g satisfies g >= j  <=>  w <= gapBits[j], so the
		// loop-exit test and the integer gap both reduce to table lookups.
		if rem <= last && w <= gap[rem] {
			break
		}
		var j int
		if w <= gap[last] {
			// Beyond the table: resolve this draw with the reference math.
			g := math.Log(float64(w)*0x1p-53) * e.invLnQ
			if g >= float64(rem) {
				break
			}
			j = int(g)
		} else {
			// Branch-free count of the (monotone) prefix of satisfied
			// thresholds, balanced so the adds tree-reduce; the tail past 8
			// is geometrically rare.
			j = (b2i(w <= gap[1]) + b2i(w <= gap[2])) + (b2i(w <= gap[3]) + b2i(w <= gap[4])) +
				((b2i(w <= gap[5]) + b2i(w <= gap[6])) + (b2i(w <= gap[7]) + b2i(w <= gap[8])))
			if j == 8 {
				for w <= gap[j+1] {
					j++
				}
			}
		}
		k += j
		// Thinning: accept iff Float64()*pfMax < pfTopo[k], precomputed as a
		// strict bound on the 53 payload bits.
		if w2 >= thin[k] {
			s1 = s3
			w = w3
			continue
		}
		mult := 2.0
		if single {
			s1 = s3
			w = w3
		} else {
			s1 = s3 + gamma
			w = wA
			if w3 <= attFirst[k] {
				// At least one extra re-execution (probability ~pf): count
				// table entries.
				t := tb.attBits[k]
				x := 1
				for x < len(t) && w3 <= t[x] {
					x++
				}
				if x == len(t) && tb.attTrunc[k] {
					// Truncated table (pf close to 1): reference math.
					mult = 2 + math.Floor(math.Log(float64(w3)*0x1p-53)*e.invLnPf[k])
				} else {
					mult += float64(x)
				}
			}
		}
		wk.failPos[nfail] = int32(k)
		wk.failW[nfail] = mult * e.base[k]
		nfail++
	}
	rng.s = s1
	return nfail
}

// sample dispatches to the table-driven sampler when tables were built.
func (wk *mcWorker) sample(rng *splitMix64) int { return wk.sampleFrom(rng, 0, 0) }

// sampleFrom is sample over positions [k0, n), appending to nfail
// failures already recorded.
func (wk *mcWorker) sampleFrom(rng *splitMix64, k0, nfail int) int {
	if wk.e.tables != nil && !wk.e.refSampler {
		return wk.sampleFast(rng, k0, nfail)
	}
	return wk.sampleRefFrom(rng, k0, nfail)
}

// samplerTables hold the bit-level threshold tables of the fast sampler.
// All entries compare against (draw >> 11) or (draw >> 11) + 1, the exact
// integer payloads behind Float64/unitOpen, so every decision is exact.
type samplerTables struct {
	// gapBits[j] (1 <= j <= gapLast) is the largest w = (draw>>11)+1 for
	// which the computed envelope gap Log(w·2⁻⁵³)·invLnQ is >= float64(j).
	// gapBits[0] = 2⁵³ is a sentinel (the gap is always >= 0) and the table
	// is zero-padded past gapLast so the branch-free prefix count can
	// always read eight entries.
	gapBits []uint64
	gapLast int
	// thinBits[k] is the smallest w = draw>>11 for which the candidate at
	// position k is REJECTED (Float64()*pfMax >= pfTopo[k]); accept iff
	// the payload is strictly below it. Zero for zero-pfail positions.
	thinBits []uint64
	// attBits[k][x-1] is the largest w = (draw>>11)+1 for which the extra
	// re-execution count floor(Log(w·2⁻⁵³)·invLnPf[k]) is >= x. Tables are
	// shared between positions with equal failure probability. attTrunc[k]
	// marks tables cut at attTableCap entries (pf near 1); a draw below the
	// last entry then falls back to the reference math.
	attBits  [][]uint64
	attTrunc []bool
	// attFirst[k] == attBits[k][0] (0 when the table is empty): a flat
	// array for the extra-re-execution fast test, which is false with
	// probability ~1-pf.
	attFirst []uint64
}

const (
	// tableMinWork gates table construction: below this expected candidate
	// count per trial (n·pfMax) the reference sampler is already cheap and
	// the one-time bit searches would not amortize.
	tableMinWork = 8.0
	// gapTableCap bounds the gap table length; draws beyond it (huge gaps,
	// only reachable at small pfMax) fall back to one math.Log.
	gapTableCap = 1024
	// attTableCap bounds per-class attempt tables; only pf > ~0.56 needs
	// more entries than this.
	attTableCap = 64
	// maxPayload is the largest unitOpen payload (draw>>11)+1, i.e. u = 1.
	maxPayload = uint64(1) << 53
)

// maxSat returns the largest w in [lo, hi] satisfying pred, which must be
// monotone (true on a prefix). ok is false when pred(lo) is false.
func maxSat(lo, hi uint64, pred func(uint64) bool) (uint64, bool) {
	if !pred(lo) {
		return 0, false
	}
	if pred(hi) {
		return hi, true
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if pred(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}

// maxGap returns the largest payload w = (draw>>11)+1 whose envelope gap
// Log(w·2⁻⁵³)·invLnQ — sampleRef's arithmetic — is at least j.
func (e *Estimator) maxGap(j int) (uint64, bool) {
	fj := float64(j)
	return maxSat(1, maxPayload, func(w uint64) bool {
		return math.Log(float64(w)*0x1p-53)*e.invLnQ >= fj
	})
}

// exitPayload returns the largest first-draw payload that ends a trial on
// the spot: its gap is at least n, so sampleRef's loop exits at k = 0
// with no failure. 0 when even the smallest payload's gap is short of n
// (pfMax near 1), so the peek in runChunk never fires.
func (e *Estimator) exitPayload() uint64 {
	w, _ := e.maxGap(len(e.base)) // 0 when no payload qualifies
	return w
}

// buildTables precomputes the sampler threshold tables when the workload
// warrants it (or unconditionally when force is set, for tests). Safe to
// call once during construction; results are read-only afterwards.
func (e *Estimator) buildTables(force bool) {
	if e.pfMax == 0 {
		return
	}
	n := len(e.base)
	if !force && float64(n)*e.pfMax < tableMinWork {
		return
	}
	tb := &samplerTables{}

	// Gap table. The computed gap at the smallest payload (u = 2⁻⁵³) bounds
	// every reachable j; gaps of n or more always exit the trial loop, so
	// the table never needs more than n entries.
	jAll := int(math.Log(0x1p-53) * e.invLnQ)
	last := jAll
	if last > n {
		last = n
	}
	if last > gapTableCap {
		last = gapTableCap
	}
	tb.gapBits = make([]uint64, last+1+8) // zero padding for the prefix count
	tb.gapBits[0] = maxPayload
	tb.gapLast = last
	for j := 1; j <= last; j++ {
		w, ok := e.maxGap(j)
		if !ok {
			// Unreachable for j <= jAll, but degrade safely: shrink the
			// table so the fallback handles everything past j-1.
			tb.gapLast = j - 1
			break
		}
		tb.gapBits[j] = w
	}

	// Thinning cutoffs and attempt tables, shared across positions with
	// equal failure probability.
	type class struct {
		thin  uint64
		att   []uint64
		trunc bool
	}
	classes := make(map[float64]*class)
	tb.thinBits = make([]uint64, n)
	tb.attBits = make([][]uint64, n)
	tb.attTrunc = make([]bool, n)
	tb.attFirst = make([]uint64, n)
	for k := 0; k < n; k++ {
		pf := e.pfTopo[k]
		if pf == 0 {
			continue // thinBits 0: never accepted
		}
		c := classes[pf]
		if c == nil {
			c = &class{}
			// Smallest payload that is rejected: one past the largest
			// accepted payload (payload 0 always accepts: 0*pfMax < pf).
			wAcc, _ := maxSat(0, maxPayload-1, func(w uint64) bool {
				return float64(w)*0x1p-53*e.pfMax < pf
			})
			c.thin = wAcc + 1
			if e.cfg.Mode != SingleRetry {
				// Attempt table: entries until the floor can no longer
				// reach x even at the smallest payload.
				inv := e.invLnPf[k]
				xAll := int(math.Floor(math.Log(0x1p-53) * inv))
				xLast := xAll
				if xLast > attTableCap {
					xLast = attTableCap
					c.trunc = true
				}
				c.att = make([]uint64, xLast)
				for x := 1; x <= xLast; x++ {
					fx := float64(x)
					w, ok := maxSat(1, maxPayload, func(w uint64) bool {
						return math.Floor(math.Log(float64(w)*0x1p-53)*inv) >= fx
					})
					if !ok {
						c.att = c.att[:x-1]
						c.trunc = false
						break
					}
					c.att[x-1] = w
				}
			}
			classes[pf] = c
		}
		tb.thinBits[k] = c.thin
		tb.attBits[k] = c.att
		tb.attTrunc[k] = c.trunc
		if len(c.att) > 0 {
			tb.attFirst[k] = c.att[0]
		}
	}
	e.tables = tb
}
