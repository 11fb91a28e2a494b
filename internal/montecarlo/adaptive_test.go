package montecarlo

import (
	"math"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/linalg"
)

// adaptiveFixture builds the LU workload the adaptive tests share. The
// returned tolerance is tuned from a one-chunk probe so the mean-target
// stopping rule lands a handful of chunks in — big enough to exercise the
// out-of-order reducer, small enough to stay fast.
func adaptiveFixture(t *testing.T) (e *Estimator, tol float64) {
	t.Helper()
	g, err := linalg.LU(6, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := failure.FromPfail(0.05, g.MeanWeight())
	if err != nil {
		t.Fatal(err)
	}
	probe, err := Estimate(g, m, Config{Trials: ChunkTrials, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	e, err = NewEstimator(g, m, Config{Seed: 42, Tolerance: probe.CI95 / 2})
	if err != nil {
		t.Fatal(err)
	}
	return e, probe.CI95 / 2
}

// The tentpole's determinism pin: an adaptive run that stops after k
// chunks must be bit-identical to a fixed-budget run of k·ChunkTrials
// trials — same Mean/StdDev/Min/Max, same sketch — for any worker count,
// because the stopping point is decided on the in-order chunk prefix.
func TestAdaptiveMatchesFixedPrefix(t *testing.T) {
	e, _ := adaptiveFixture(t)
	var want Result
	var wantSketch *QuantileSketch
	for i, workers := range []int{1, 2, 3, 8} {
		we, err := e.WithConfig(Config{Seed: 42, Tolerance: e.cfg.Tolerance, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, sk, err := we.RunQuantiles()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("workers=%d: run did not converge (trials %d)", workers, res.TrialsRun)
		}
		if res.TrialsRun%ChunkTrials != 0 || res.TrialsRun == 0 {
			t.Fatalf("workers=%d: TrialsRun %d not a positive whole chunk count", workers, res.TrialsRun)
		}
		if res.TrialsRun >= we.cfg.MaxTrials {
			t.Fatalf("workers=%d: adaptive run burned the whole cap (%d)", workers, res.TrialsRun)
		}
		if i == 0 {
			want, wantSketch = res, sk
		} else if res != want {
			t.Fatalf("workers=%d: adaptive result differs:\n%+v\n%+v", workers, res, want)
		} else if sk.N() != wantSketch.N() || sk.Quantile(0.5) != wantSketch.Quantile(0.5) || sk.Quantile(0.99) != wantSketch.Quantile(0.99) {
			t.Fatalf("workers=%d: adaptive sketch differs", workers)
		}
	}

	// Fixed-budget run of exactly the stopping chunk count: every shared
	// field must match bit-for-bit (the fixed run reports no adaptive
	// diagnostics, so compare after clearing them).
	fe, err := e.WithConfig(Config{Seed: 42, Trials: want.TrialsRun})
	if err != nil {
		t.Fatal(err)
	}
	fixed, fsk, err := fe.RunQuantiles()
	if err != nil {
		t.Fatal(err)
	}
	cmp := want
	cmp.Converged, cmp.AchievedCI = false, 0
	if cmp != fixed {
		t.Fatalf("adaptive prefix != fixed run of %d trials:\n%+v\n%+v", want.TrialsRun, cmp, fixed)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if wantSketch.Quantile(q) != fsk.Quantile(q) {
			t.Fatalf("sketch q=%v: adaptive %v != fixed %v", q, wantSketch.Quantile(q), fsk.Quantile(q))
		}
	}
}

// The resumable-snapshot pin: extending a loose-tolerance snapshot to a
// tighter tolerance must be bit-identical to a cold run at the tighter
// tolerance — the warm path re-runs nothing and diverges nowhere — on
// the plain stream with and without a sketch. Only the sketch stream's
// snapshots carry a sketch.
func TestWarmExtendMatchesCold(t *testing.T) {
	e, tol := adaptiveFixture(t)
	for _, sketch := range []bool{false, true} {
		loose, err := e.WithConfig(Config{Seed: 42, Tolerance: 2 * tol, Sketch: sketch})
		if err != nil {
			t.Fatal(err)
		}
		_, snap1, err := loose.ResumeAdaptive(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		tight, err := e.WithConfig(Config{Seed: 42, Tolerance: tol / 2, Workers: 3, Sketch: sketch})
		if err != nil {
			t.Fatal(err)
		}
		warmRes, warmSnap, err := tight.ResumeAdaptive(snap1, nil)
		if err != nil {
			t.Fatal(err)
		}
		coldRes, coldSnap, err := tight.ResumeAdaptive(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if warmSnap.Chunks() <= snap1.Chunks() {
			t.Fatalf("sketch %v: tighter tolerance did not extend the snapshot (%d -> %d chunks)", sketch, snap1.Chunks(), warmSnap.Chunks())
		}
		if warmRes != coldRes {
			t.Fatalf("sketch %v: warm extend != cold run:\n%+v\n%+v", sketch, warmRes, coldRes)
		}
		if warmSnap.Chunks() != coldSnap.Chunks() || warmSnap.Trials() != coldSnap.Trials() {
			t.Fatalf("sketch %v: warm snapshot at %d chunks, cold at %d", sketch, warmSnap.Chunks(), coldSnap.Chunks())
		}
		ws, cs := warmSnap.Sketch(), coldSnap.Sketch()
		if !sketch {
			if ws != nil || cs != nil || warmSnap.SizeBytes() >= 1024 {
				t.Fatalf("a run without a sketch kept one (%d bytes)", warmSnap.SizeBytes())
			}
		} else {
			if ws.N() != cs.N() || ws.CellWidth() != cs.CellWidth() {
				t.Fatal("warm and cold sketches differ in shape")
			}
			for _, q := range []float64{0.05, 0.5, 0.95} {
				if ws.Quantile(q) != cs.Quantile(q) {
					t.Fatalf("q=%v: warm %v != cold %v", q, ws.Quantile(q), cs.Quantile(q))
				}
			}
		}
		// A snapshot that already satisfies the tolerance is a pure cache
		// hit: no new chunks, result identical to SnapshotResult.
		hitRes, hitSnap, err := tight.ResumeAdaptive(warmSnap, nil)
		if err != nil {
			t.Fatal(err)
		}
		if hitSnap.Chunks() != warmSnap.Chunks() {
			t.Fatalf("sketch %v: satisfied snapshot grew: %d -> %d chunks", sketch, warmSnap.Chunks(), hitSnap.Chunks())
		}
		want, err := tight.SnapshotResult(warmSnap)
		if err != nil {
			t.Fatal(err)
		}
		if hitRes != want {
			t.Fatalf("sketch %v: cache-hit result %+v != SnapshotResult %+v", sketch, hitRes, want)
		}
		if !tight.SnapshotConverged(warmSnap) {
			t.Fatalf("sketch %v: SnapshotConverged false for a snapshot the same config just produced", sketch)
		}
		// snap1 was never mutated by the extension runs.
		if snap1.Chunks() >= warmSnap.Chunks() {
			t.Fatalf("sketch %v: input snapshot mutated by ResumeAdaptive", sketch)
		}
		// A snapshot of the other plain stream never stands in.
		other, err := e.WithConfig(Config{Seed: 42, Tolerance: tol / 2, Sketch: !sketch})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := other.ResumeAdaptive(snap1, nil); err == nil || !strings.Contains(err.Error(), "stream") {
			t.Fatalf("sketch %v: the other plain stream extended the snapshot (%v)", sketch, err)
		}
	}
}

// A quantile-target run must converge, stay chunk-aligned, and reproduce a
// fixed run of the same length; its AchievedCI comes from the sketch's
// order-statistic interval.
func TestAdaptiveQuantileTarget(t *testing.T) {
	e, _ := adaptiveFixture(t)
	d0 := e.D0()
	qe, err := e.WithConfig(Config{Seed: 42, Tolerance: d0 * 0.01, TargetQuantile: 0.9, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, sk, err := qe.RunQuantiles()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.TrialsRun%ChunkTrials != 0 {
		t.Fatalf("quantile-target run: %+v", res)
	}
	lo, hi, err := sk.QuantileCI(0.9, DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	if got := (hi - lo) / 2; got != res.AchievedCI {
		t.Fatalf("AchievedCI %v != sketch interval half-width %v", res.AchievedCI, got)
	}
	if res.AchievedCI > d0*0.01 {
		t.Fatalf("converged but AchievedCI %v > tolerance %v", res.AchievedCI, d0*0.01)
	}
	fe, err := e.WithConfig(Config{Seed: 42, Trials: res.TrialsRun})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := fe.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean != fixed.Mean || res.StdDev != fixed.StdDev || res.Min != fixed.Min || res.Max != fixed.Max {
		t.Fatalf("quantile-target prefix != fixed run:\n%+v\n%+v", res, fixed)
	}
}

// The MaxTrials cap always binds (rounded up to whole chunks) and an
// unconverged capped run says so.
func TestAdaptiveCapBinds(t *testing.T) {
	e, _ := adaptiveFixture(t)
	capped, err := e.WithConfig(Config{Seed: 42, Tolerance: 1e-12, MaxTrials: 2*ChunkTrials + 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := capped.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TrialsRun != 3*ChunkTrials {
		t.Fatalf("MaxTrials %d should round up to %d trials, ran %d", 2*ChunkTrials+1, 3*ChunkTrials, res.TrialsRun)
	}
	if res.Converged {
		t.Fatal("capped run claims convergence at tolerance 1e-12")
	}
	if res.AchievedCI <= 0 {
		t.Fatal("capped run reports no achieved CI")
	}
}

// Adaptive knobs are validated like the rest of the config: half-configured
// or contradictory requests are errors, not silent reinterpretations.
func TestAdaptiveConfigValidation(t *testing.T) {
	g, err := linalg.LU(4, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := failure.FromPfail(0.001, g.MeanWeight())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" means the config is valid
	}{
		{"negative tolerance", Config{Tolerance: -1}, "Tolerance"},
		{"nan tolerance", Config{Tolerance: math.NaN()}, "Tolerance"},
		{"inf tolerance", Config{Tolerance: math.Inf(1)}, "Tolerance"},
		{"trials and tolerance", Config{Tolerance: 0.1, Trials: 1000}, "mutually exclusive"},
		{"negative maxtrials", Config{Tolerance: 0.1, MaxTrials: -1}, "MaxTrials"},
		{"maxtrials without tolerance", Config{MaxTrials: 100}, "MaxTrials"},
		{"quantile without tolerance", Config{TargetQuantile: 0.5}, "TargetQuantile"},
		{"confidence without tolerance", Config{Confidence: 0.9}, "Confidence"},
		{"quantile at 1", Config{Tolerance: 0.1, TargetQuantile: 1}, "TargetQuantile"},
		{"quantile above 1", Config{Tolerance: 0.1, TargetQuantile: 1.5}, "TargetQuantile"},
		{"negative quantile", Config{Tolerance: 0.1, TargetQuantile: -0.5}, "TargetQuantile"},
		{"confidence at 1", Config{Tolerance: 0.1, Confidence: 1}, "Confidence"},
		{"valid adaptive", Config{Tolerance: 0.1}, ""},
		{"valid quantile target", Config{Tolerance: 0.1, TargetQuantile: 0.99, Confidence: 0.9, MaxTrials: 50000}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEstimator(g, m, tc.cfg)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				if e.cfg.MaxTrials%ChunkTrials != 0 {
					t.Fatalf("MaxTrials %d not chunk-aligned", e.cfg.MaxTrials)
				}
				if e.cfg.Confidence <= 0 || e.cfg.Confidence >= 1 {
					t.Fatalf("Confidence not defaulted: %v", e.cfg.Confidence)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// Snapshots carry their provenance; resuming one under a different seed,
// mode or compiled graph is an error, and ResumeAdaptive itself requires
// an adaptive config.
func TestResumeAdaptiveRejectsMismatch(t *testing.T) {
	e, tol := adaptiveFixture(t)
	_, snap, err := e.ResumeAdaptive(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	otherSeed, err := e.WithConfig(Config{Seed: 43, Tolerance: tol})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := otherSeed.ResumeAdaptive(snap, nil); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("seed mismatch not rejected: %v", err)
	}
	if e.SnapshotConverged(snap) != true {
		t.Fatal("fresh snapshot not converged under its own config")
	}
	if otherSeed.SnapshotConverged(snap) {
		t.Fatal("SnapshotConverged true across a seed mismatch")
	}
	if _, err := otherSeed.SnapshotResult(snap); err == nil {
		t.Fatal("SnapshotResult accepted a seed mismatch")
	}

	g2, err := linalg.LU(4, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := failure.FromPfail(0.05, g2.MeanWeight())
	if err != nil {
		t.Fatal(err)
	}
	otherGraph, err := NewEstimator(g2, m2, Config{Seed: 42, Tolerance: tol})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := otherGraph.ResumeAdaptive(snap, nil); err == nil || !strings.Contains(err.Error(), "graph") {
		t.Fatalf("graph mismatch not rejected: %v", err)
	}

	fixed, err := e.WithConfig(Config{Seed: 42, Trials: ChunkTrials})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fixed.ResumeAdaptive(nil, nil); err == nil || !strings.Contains(err.Error(), "Tolerance") {
		t.Fatalf("fixed-budget ResumeAdaptive not rejected: %v", err)
	}
	if _, err := fixed.SnapshotResult(snap); err == nil {
		t.Fatal("fixed-budget SnapshotResult not rejected")
	}
}

// The progress hook replaces the engine's own stopping rule: it sees every
// in-order prefix exactly once (plus the pre-run call) and its verdict
// alone stops the run, with the cap still binding.
func TestResumeAdaptiveProgressHook(t *testing.T) {
	e, _ := adaptiveFixture(t)
	we, err := e.WithConfig(Config{Seed: 42, Tolerance: 1e-12, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var seen []int64
	res, snap, err := we.ResumeAdaptive(nil, func(s *Snapshot) bool {
		seen = append(seen, s.Chunks())
		return s.Chunks() >= 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Chunks() != 3 || res.TrialsRun != 3*ChunkTrials {
		t.Fatalf("progress-stopped run at %d chunks, %d trials", snap.Chunks(), res.TrialsRun)
	}
	for i, c := range seen {
		if c != int64(i) {
			t.Fatalf("progress saw prefixes %v; want 0,1,2,3 in order", seen)
		}
	}
	// The tolerance was unreachable, so the result honestly reports that
	// even though progress stopped the run.
	if res.Converged {
		t.Fatal("progress-stopped run claims tolerance convergence")
	}
}

// With one worker the adaptive runner must not speculate: every chunk it
// executes is folded, cold and when extending a snapshot. The "mc.chunk"
// failpoint, armed as a zero delay, counts the chunks started.
func TestAdaptiveSingleWorkerRunsOnlyFoldedChunks(t *testing.T) {
	e, tol := adaptiveFixture(t)
	t.Cleanup(faultinject.Disarm)
	var prev *Snapshot
	for _, tolerance := range []float64{tol, tol / 2} {
		we, err := e.WithConfig(Config{Seed: 42, Tolerance: tolerance, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := faultinject.Arm("mc.chunk=delay:0s"); err != nil {
			t.Fatal(err)
		}
		res, snap, err := we.ResumeAdaptive(prev, nil)
		if err != nil {
			t.Fatal(err)
		}
		var before int64
		if prev != nil {
			before = prev.Chunks()
		}
		folded := snap.Chunks() - before
		if !res.Converged || folded < 2 {
			t.Fatalf("tolerance %g: want a converged run of several chunks, got %d (%+v)", tolerance, folded, res)
		}
		if ran := faultinject.Fired("mc.chunk"); ran != folded {
			t.Fatalf("tolerance %g: executed %d chunks, folded %d", tolerance, ran, folded)
		}
		prev = snap
	}
}

// normalQuantile anchors the CI math; pin it against known values of the
// standard normal inverse CDF.
func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.95, 1.6448536269514722},
		{0.999, 3.090232306167813},
		{0.001, -3.090232306167813},
	}
	for _, tc := range cases {
		if got := normalQuantile(tc.p); math.Abs(got-tc.want) > 1e-6 {
			t.Fatalf("normalQuantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(normalQuantile(0)) || !math.IsNaN(normalQuantile(1)) || !math.IsNaN(normalQuantile(-0.5)) {
		t.Fatal("normalQuantile outside (0,1) must be NaN")
	}
}
