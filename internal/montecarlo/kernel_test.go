package montecarlo

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/linalg"
)

// kernelGraphs are the shapes the kernel tests cover: the three
// factorizations (every node has in-degree 0 to 3, the specialised
// passes) and an Erdős–Rényi DAG whose later nodes have in-degree > 3
// (the general pass).
func kernelGraphs(tb testing.TB) map[string]*dag.Graph {
	tb.Helper()
	gs := make(map[string]*dag.Graph)
	for _, f := range linalg.All() {
		g, err := linalg.Generate(f, 5, linalg.KernelTimes{})
		if err != nil {
			tb.Fatal(err)
		}
		gs[string(f)] = g
	}
	er, err := dag.ErdosRenyiDAG(dag.RandomConfig{Tasks: 60, MinWeight: 1, MaxWeight: 5, EdgeProb: 0.15}, newRand(3))
	if err != nil {
		tb.Fatal(err)
	}
	maxIn := 0
	for i := 0; i < er.NumTasks(); i++ {
		maxIn = max(maxIn, er.InDegree(i))
	}
	if maxIn <= 3 {
		tb.Fatalf("erdos fixture has max in-degree %d, want > 3", maxIn)
	}
	gs["erdos"] = er
	return gs
}

// The kernel's contract: the exit-payload peek, the fused lane pass and
// the per-chunk fold reproduce the reference per-trial paths (math.Log
// sampler + scalar CSR kernel) bit for bit — Result and the whole sample
// vector — across graph shapes, pfail decades, both modes, worker counts,
// multi-chunk budgets with a partial last chunk and block, and with the
// sampler tables forced or left to the size heuristic.
func TestKernelPathsMatchReference(t *testing.T) {
	for name, g := range kernelGraphs(t) {
		for _, pfail := range []float64{1e-1, 1e-3, 1e-4} {
			m, err := failure.FromPfail(pfail, g.MeanWeight())
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []Mode{FullReexecution, SingleRetry} {
				run := func(workers int, ref, forceTables bool) (Result, *Samples) {
					e, err := NewEstimator(g, m, Config{Trials: 2*chunkSize + 777, Seed: 31, Workers: workers, Mode: mode})
					if err != nil {
						t.Fatal(err)
					}
					if forceTables {
						e.buildTables(true)
					}
					e.refSampler, e.scalarEval = ref, ref
					res, s, err := e.RunSamples()
					if err != nil {
						t.Fatal(err)
					}
					return res, s
				}
				wantRes, wantS := run(1, true, false)
				for _, workers := range []int{1, 3} {
					for _, forced := range []bool{false, true} {
						res, s := run(workers, false, forced)
						where := fmt.Sprintf("%s pfail=%g %v workers=%d forced=%v", name, pfail, mode, workers, forced)
						if res != wantRes {
							t.Fatalf("%s: Result %+v != reference %+v", where, res, wantRes)
						}
						for i := range s.sorted {
							if s.sorted[i] != wantS.sorted[i] {
								t.Fatalf("%s: sample %d differs", where, i)
							}
						}
					}
				}
			}
		}
	}
}

// evalBlock against evalScalar on hand-built blocks: several lanes failing
// at one node (including a source and a sink), failures on high in-degree
// nodes, and partial blocks of every awkward size. Each block runs on a
// worker whose scratch already holds the previous block's rows, so stale
// lanes past a partial block's end must not leak into results.
func TestEvalBlockMatchesScalar(t *testing.T) {
	for name, g := range kernelGraphs(t) {
		m, err := failure.FromPfail(0.05, g.MeanWeight())
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEstimator(g, m, Config{Trials: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		n := len(e.base)
		sink := int32(e.sinks[0])
		rng := newChunkRNG(7, 0)
		wk := e.newWorker()
		for _, lanes := range []int{evalLanes, 1, 7, evalLanes - 1, evalLanes} {
			var blk laneBlock
			var sets [][]int32
			var ws [][]float64
			for lane := 0; lane < lanes; lane++ {
				// Lanes 0–5 share failures at the source and the sink; the
				// rest fail 2–4 distinct random positions.
				var pos []int32
				if lane < 6 {
					pos = []int32{0, int32(n / 2), sink}
					if int32(n/2) == sink {
						pos = pos[:2]
					}
				} else {
					seen := make(map[int32]bool)
					for len(pos) < 2+int(rng.Uint64()%3) {
						p := int32(rng.Uint64() % uint64(n))
						if !seen[p] {
							seen[p] = true
							pos = append(pos, p)
						}
					}
					slices.Sort(pos)
				}
				w := make([]float64, len(pos))
				for i, p := range pos {
					w[i] = float64(2+lane%3) * e.base[p]
				}
				blk.add(lane, pos, w)
				sets, ws = append(sets, pos), append(ws, w)
			}
			wk.evalBlock(&blk)
			got := append([]float64(nil), wk.res[:lanes]...)
			for lane := 0; lane < lanes; lane++ {
				copy(wk.failPos, sets[lane])
				copy(wk.failW, ws[lane])
				if want := wk.evalScalar(len(sets[lane])); got[lane] != want {
					t.Fatalf("%s lanes=%d lane %d: block %v != scalar %v", name, lanes, lane, got[lane], want)
				}
			}
		}
	}
}

// stateForPayload returns the generator state whose next unitOpen draw has
// payload (draw>>11)+1 == w, by inverting the SplitMix64 finalizer.
func stateForPayload(w uint64) uint64 {
	inv := func(c uint64) uint64 { // multiplicative inverse mod 2⁶⁴ (c odd)
		x := c
		for i := 0; i < 6; i++ {
			x *= 2 - c*x
		}
		return x
	}
	unshift := func(z uint64, s uint) uint64 {
		x := z
		for i := s; i < 64; i += s {
			x = z ^ x>>s
		}
		return x
	}
	z := (w - 1) << 11
	z = unshift(z, 31)
	z *= inv(0x94d049bb133111eb)
	z = unshift(z, 27)
	z *= inv(0xbf58476d1ce4e5b9)
	z = unshift(z, 30)
	return z - gamma
}

// The exit payload is the largest first draw that ends a trial with no
// failure: at payload exitW the reference sampler exits after one draw,
// at exitW+1 it does not. runChunk's peek must resolve both trials, and
// the one after them, exactly like the reference paths.
func TestExitPayloadBoundary(t *testing.T) {
	if rng := (splitMix64{stateForPayload(12345)}); rng.Uint64()>>11+1 != 12345 {
		t.Fatal("stateForPayload does not invert the generator")
	}
	for name, g := range kernelGraphs(t) {
		for _, pfail := range []float64{1e-1, 1e-3, 1e-4} {
			m, err := failure.FromPfail(pfail, g.MeanWeight())
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEstimator(g, m, Config{Trials: 1, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []uint64{e.exitW, e.exitW + 1} {
				if w == 0 {
					continue // no first draw exits (pfMax too large)
				}
				s := stateForPayload(w)
				ref := e.newWorker()
				rng := splitMix64{s}
				nfail := ref.sampleRef(&rng)
				exited := nfail == 0 && rng.s == s+gamma
				if exited != (w <= e.exitW) {
					t.Fatalf("%s pfail=%g: payload %d (exitW %d): reference exit = %v", name, pfail, w, e.exitW, exited)
				}
				ref.e = refCopy(e)
				ref.runChunk(splitMix64{s}, 0, 3)
				fast := e.newWorker()
				fast.runChunk(splitMix64{s}, 0, 3)
				for i := 0; i < 3; i++ {
					if fast.res[i] != ref.res[i] {
						t.Fatalf("%s pfail=%g payload %d: trial %d = %v, reference %v", name, pfail, w, i, fast.res[i], ref.res[i])
					}
				}
			}
		}
	}
}

// refCopy returns e switched to the reference sampler and scalar eval.
func refCopy(e *Estimator) *Estimator {
	r := *e
	r.refSampler, r.scalarEval = true, true
	return &r
}

// evalFixture collects one chunk's deferred multi-failure trials of LU
// k=14 at pfail 1e-3: the lane blocks evalBlock consumes and the same
// failure sets one trial at a time for the scalar twin.
func evalFixture(b *testing.B) (wk *mcWorker, blocks []*laneBlock, sets [][]int32, ws [][]float64) {
	b.Helper()
	g, err := linalg.LU(14, linalg.KernelTimes{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := failure.FromPfail(1e-3, g.MeanWeight())
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEstimator(g, m, Config{Trials: chunkSize, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	wk = e.newWorker()
	rng := newChunkRNG(1, 0)
	blk := &laneBlock{}
	for t := 0; t < chunkSize; t++ {
		nfail := wk.sample(&rng)
		if nfail < 2 {
			continue
		}
		if blk.full() {
			blocks = append(blocks, blk)
			blk = &laneBlock{}
		}
		blk.add(t, wk.failPos[:nfail], wk.failW[:nfail])
		sets = append(sets, append([]int32(nil), wk.failPos[:nfail]...))
		ws = append(ws, append([]float64(nil), wk.failW[:nfail]...))
	}
	if blk.n > 0 {
		blocks = append(blocks, blk)
	}
	return wk, blocks, sets, ws
}

// BenchmarkMCEvalBlock times the lane kernel on one chunk's deferred
// trials (LU k=14, pfail 1e-3); ns/op is per chunk.
func BenchmarkMCEvalBlock(b *testing.B) {
	wk, blocks, sets, _ := evalFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blk := range blocks {
			wk.evalBlock(blk)
		}
	}
	b.ReportMetric(float64(len(sets)), "trials/op")
}

// BenchmarkMCEvalScalar is BenchmarkMCEvalBlock's twin: the same failure
// sets through the per-trial scalar kernel.
func BenchmarkMCEvalScalar(b *testing.B) {
	wk, _, sets, ws := evalFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, s := range sets {
			copy(wk.failPos, s)
			copy(wk.failW, ws[j])
			wk.res[0] = wk.evalScalar(len(s))
		}
	}
	b.ReportMetric(float64(len(sets)), "trials/op")
}

// BenchmarkMCRunCholesky16 is one mc-sampling request's kernel: Cholesky
// k=16 at pfail 1e-4 with the workload's trial budget, one worker.
func BenchmarkMCRunCholesky16(b *testing.B) {
	g, err := linalg.Cholesky(16, linalg.KernelTimes{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := failure.FromPfail(1e-4, g.MeanWeight())
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEstimator(g, m, Config{Trials: 195100, Workers: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
