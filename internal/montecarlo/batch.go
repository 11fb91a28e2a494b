package montecarlo

import (
	"math"
	"unsafe"
)

// Phase 2 of the split trial pipeline: multi-failure trials deferred by
// phase 1 are evaluated in lane blocks — a structure-of-arrays longest-path
// sweep over the frozen CSR graph computing evalLanes trials per pass.
// Node-major order loads each node's predecessor indices once per block
// instead of once per trial, and each node's row is written by one fused
// pass over its predecessor rows: row[i] = max(predecessor lane i) + w.
//
// Bit-exactness with the scalar kernel: for every (node, lane) the value
// written is start + weight with the same two operands the scalar path
// uses. The start is the maximum of the same set of non-negative values
// (the scalar kernel's max starts from 0, and so does an empty max here),
// and a maximum does not depend on the comparison order. Failed lanes are
// then overwritten with start + failW, the start recomputed from the
// lane's own predecessor column (never by adding a correction to an
// already-summed base). The makespan is the maximum over the sink rows.

// evalLanes is the lane block width B: trials evaluated per CSR pass.
// 32 lanes = one 256-byte row per node, large enough to amortize the
// predecessor index loads and small enough that the whole comp matrix of a
// few-thousand-task graph stays cache-resident.
const evalLanes = 32

// laneBlock gathers the failure sets of up to evalLanes deferred trials.
type laneBlock struct {
	n      int              // lanes filled
	trial  [evalLanes]int32 // chunk-relative trial index per lane
	counts [evalLanes]int32 // failures per lane
	pos    []int32          // lane-grouped failure positions
	w      []float64        // their inflated weights
}

func (b *laneBlock) reset() {
	b.n = 0
	b.pos = b.pos[:0]
	b.w = b.w[:0]
}

func (b *laneBlock) full() bool { return b.n == evalLanes }

// add appends one trial's failure set (wk.failPos/failW prefixes).
func (b *laneBlock) add(trial int, pos []int32, w []float64) {
	b.trial[b.n] = int32(trial)
	b.counts[b.n] = int32(len(pos))
	b.pos = append(b.pos, pos...)
	b.w = append(b.w, w...)
	b.n++
}

// batchScratch is the per-worker SoA scratch of the lane kernel, allocated
// lazily on the first multi-failure block.
type batchScratch struct {
	comp  []float64 // n × evalLanes completion rows
	cnt   []int32   // per-node failure counts → CSR offsets (n+1)
	fLane []int32   // node-major failure lanes
	fW    []float64 // node-major inflated weights
}

func (wk *mcWorker) batch() *batchScratch {
	if wk.bs == nil {
		n := len(wk.e.base)
		wk.bs = &batchScratch{
			comp: make([]float64, n*evalLanes),
			cnt:  make([]int32, n+1),
		}
	}
	return wk.bs
}

// evalBlock computes the makespan of every lane in blk and stores each
// result at wk.res[blk.trial[lane]].
func (wk *mcWorker) evalBlock(blk *laneBlock) {
	e := wk.e
	bs := wk.batch()
	n := len(e.base)
	B := blk.n

	// Counting-sort the lane-grouped failures into node-major CSR order:
	// fLane/fW list the (lane, weight) pairs per position, ascending.
	cnt := bs.cnt[: n+1 : n+1]
	for i := range cnt {
		cnt[i] = 0
	}
	for _, p := range blk.pos {
		cnt[p+1]++
	}
	for k := 0; k < n; k++ {
		cnt[k+1] += cnt[k]
	}
	nf := len(blk.pos)
	if cap(bs.fLane) < nf {
		// Sized like the block's own buffers, so these grow only when
		// they do.
		bs.fLane = make([]int32, nf, cap(blk.pos))
		bs.fW = make([]float64, nf, cap(blk.pos))
	}
	fLane := bs.fLane[:nf]
	fW := bs.fW[:nf]
	i := 0
	for lane := 0; lane < B; lane++ {
		for c := int32(0); c < blk.counts[lane]; c++ {
			p := blk.pos[i]
			slot := cnt[p]
			cnt[p]++
			fLane[slot] = int32(lane)
			fW[slot] = blk.w[i]
			i++
		}
	}
	// cnt[k] now holds the end offset of position k's failures.

	off, adj := e.frozen.PredCSR()
	base := e.base
	comp := bs.comp
	// The max sweeps compare completion times through a uint64 view of the
	// same memory: completions are non-negative and NaN-free, so IEEE
	// ordering coincides with unsigned integer ordering of the bit
	// patterns, and integer conditional assignment compiles branch-free
	// (CMOV) where the float comparison would branch per lane.
	compU := u64view(comp)
	// Every node writes all evalLanes lanes through fixed-size array views
	// (no bounds checks, fully unrollable); lanes past B of a partial block
	// compute on stale rows and are never read.
	lanes := func(k int32) *[evalLanes]uint64 {
		return (*[evalLanes]uint64)(compU[int(k)*evalLanes:])
	}
	o := 0
	fo := 0
	for k := 0; k < n; k++ {
		row := (*[evalLanes]float64)(comp[k*evalLanes:])
		end := int(off[k+1])
		w := base[k]
		// One fused pass per node: row = max(predecessor bits) + w. The
		// common in-degrees (every LU/QR/Cholesky node has 0 to 3) are
		// specialised; the start of an empty max is 0, as in the scalar
		// kernel.
		switch end - o {
		case 0:
			fill0(row, w)
		case 1:
			fill1(row, lanes(adj[o]), w)
		case 2:
			fill2(row, lanes(adj[o]), lanes(adj[o+1]), w)
		case 3:
			fill3(row, lanes(adj[o]), lanes(adj[o+1]), lanes(adj[o+2]), w)
		default:
			ru := lanes(int32(k))
			*ru = *lanes(adj[o])
			for q := o + 1; q < end; q++ {
				maxInto(ru, lanes(adj[q]))
			}
			fill1(row, ru, w)
		}
		// Failed lanes: recompute the start from the lane's own predecessor
		// column and add the inflated weight — the scalar kernel's operand
		// pair, bit for bit (never a correction to the base sum above).
		fe := int(cnt[k])
		for f := fo; f < fe; f++ {
			lane := int(fLane[f])
			var s uint64
			for q := o; q < end; q++ {
				if v := compU[int(adj[q])*evalLanes+lane]; v > s {
					s = v
				}
			}
			row[lane] = math.Float64frombits(s) + fW[f]
		}
		fo = fe
		o = end
	}
	// The makespan is attained at a sink (weights are non-negative, so a
	// successor's completion is never below its predecessor's): fold only
	// the sink rows — identical to the scalar kernel's max over all nodes.
	var best [evalLanes]uint64
	for _, s := range e.sinks {
		maxInto(&best, lanes(s))
	}
	for lane := 0; lane < B; lane++ {
		wk.res[blk.trial[lane]] = math.Float64frombits(best[lane])
	}
}

// The fill kernels write one node's lane row: row[i] = max of the
// predecessor rows' bits at lane i, as a float64, plus w. They stay out of
// line so each loop runs with the whole register file to itself; the two-
// and three-predecessor loops (the bulk of every factorization DAG) are
// unrolled by four lanes.

//go:noinline
func fill0(row *[evalLanes]float64, w float64) {
	for i := range row {
		row[i] = 0 + w
	}
}

//go:noinline
func fill1(row *[evalLanes]float64, a *[evalLanes]uint64, w float64) {
	for i, v := range a {
		row[i] = math.Float64frombits(v) + w
	}
}

//go:noinline
func fill2(row *[evalLanes]float64, a, b *[evalLanes]uint64, w float64) {
	for i := 0; i < evalLanes; i += 4 {
		m0, m1, m2, m3 := a[i], a[i+1], a[i+2], a[i+3]
		if v := b[i]; v > m0 {
			m0 = v
		}
		if v := b[i+1]; v > m1 {
			m1 = v
		}
		if v := b[i+2]; v > m2 {
			m2 = v
		}
		if v := b[i+3]; v > m3 {
			m3 = v
		}
		row[i] = math.Float64frombits(m0) + w
		row[i+1] = math.Float64frombits(m1) + w
		row[i+2] = math.Float64frombits(m2) + w
		row[i+3] = math.Float64frombits(m3) + w
	}
}

//go:noinline
func fill3(row *[evalLanes]float64, a, b, c *[evalLanes]uint64, w float64) {
	for i := 0; i < evalLanes; i += 4 {
		m0, m1, m2, m3 := a[i], a[i+1], a[i+2], a[i+3]
		if v := b[i]; v > m0 {
			m0 = v
		}
		if v := b[i+1]; v > m1 {
			m1 = v
		}
		if v := b[i+2]; v > m2 {
			m2 = v
		}
		if v := b[i+3]; v > m3 {
			m3 = v
		}
		if v := c[i]; v > m0 {
			m0 = v
		}
		if v := c[i+1]; v > m1 {
			m1 = v
		}
		if v := c[i+2]; v > m2 {
			m2 = v
		}
		if v := c[i+3]; v > m3 {
			m3 = v
		}
		row[i] = math.Float64frombits(m0) + w
		row[i+1] = math.Float64frombits(m1) + w
		row[i+2] = math.Float64frombits(m2) + w
		row[i+3] = math.Float64frombits(m3) + w
	}
}

// maxInto folds row p into the running lane maxima r.
func maxInto(r, p *[evalLanes]uint64) {
	for i, v := range p {
		m := r[i]
		if v > m {
			m = v
		}
		r[i] = m
	}
}

// u64view reinterprets a float64 slice as its IEEE bit patterns in place.
func u64view(x []float64) []uint64 {
	if len(x) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(x))), len(x))
}

// evalScalar is the per-trial reference evaluation: scatter the failure
// set into the weight vector, run the scalar CSR kernel, restore.
func (wk *mcWorker) evalScalar(nfail int) float64 {
	e := wk.e
	if wk.w == nil {
		wk.w = append([]float64(nil), e.base...)
		wk.comp = make([]float64, len(e.base))
	}
	for i := 0; i < nfail; i++ {
		wk.w[wk.failPos[i]] = wk.failW[i]
	}
	ms := e.frozen.MakespanTopo(wk.w, wk.comp)
	for i := 0; i < nfail; i++ {
		wk.w[wk.failPos[i]] = e.base[wk.failPos[i]]
	}
	return ms
}
