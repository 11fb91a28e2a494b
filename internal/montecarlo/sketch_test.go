package montecarlo

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"testing"

	"repro/internal/dag"
	"repro/internal/failure"
)

// testRNG is a deterministic PCG stream for drawing test samples.
func testRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
}

// The sketch's accuracy contract: for any sample set and any q, the
// sketch quantile is within one cell width of the exact nearest-rank
// sample quantile.
func TestSketchQuantileWithinOneCell(t *testing.T) {
	rng := testRNG(7)
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	for trial := 0; trial < 40; trial++ {
		n := 1 + int(rng.Uint64()%5000)
		scale := math.Ldexp(1, int(rng.Uint64()%40)-20)
		offset := (rng.Float64() - 0.3) * 100 * scale
		xs := make([]float64, n)
		sk := NewQuantileSketch(64)
		for i := range xs {
			x := offset + rng.Float64()*scale
			if rng.Uint64()%7 == 0 {
				x += rng.Float64() * 50 * scale // heavy tail
			}
			xs[i] = x
			sk.Add(x)
		}
		samples := NewSamples(xs)
		if sk.N() != int64(n) {
			t.Fatalf("N = %d want %d", sk.N(), n)
		}
		if sk.Min() != samples.Quantile(0) || sk.Max() != samples.Quantile(1) {
			t.Fatalf("min/max mismatch")
		}
		w := sk.CellWidth()
		for _, q := range qs {
			got, want := sk.Quantile(q), samples.Quantile(q)
			if math.Abs(got-want) > w {
				t.Fatalf("trial %d: q=%g: sketch %v vs exact %v beyond cell width %v", trial, q, got, want, w)
			}
		}
	}
}

// Merging split streams must equal one sketch fed the whole stream:
// same grid, same counts, same answers.
func TestSketchMergeExact(t *testing.T) {
	rng := testRNG(11)
	for trial := 0; trial < 30; trial++ {
		n := 2 + int(rng.Uint64()%3000)
		parts := 1 + int(rng.Uint64()%5)
		whole := NewQuantileSketch(128)
		split := make([]*QuantileSketch, parts)
		for i := range split {
			split[i] = NewQuantileSketch(128)
		}
		for i := 0; i < n; i++ {
			x := (rng.Float64() - 0.5) * math.Ldexp(1, int(rng.Uint64()%30)-10)
			whole.Add(x)
			split[i%parts].Add(x)
		}
		merged := NewQuantileSketch(128)
		for _, p := range split {
			merged.Merge(p)
		}
		if merged.N() != whole.N() || merged.Min() != whole.Min() || merged.Max() != whole.Max() {
			t.Fatalf("trial %d: merged summary differs", trial)
		}
		// The merged grid may be at most as fine as the whole-stream grid;
		// bring both to a common resolution and compare counts.
		for whole.wLog < merged.wLog {
			whole.grow()
		}
		for merged.wLog < whole.wLog {
			merged.grow()
		}
		wl, wh, _ := whole.occupied()
		ml, mh, _ := merged.occupied()
		if wl != ml || wh != mh {
			t.Fatalf("trial %d: occupied ranges differ: [%d,%d] vs [%d,%d]", trial, wl, wh, ml, mh)
		}
		for g := wl; g <= wh; g++ {
			if whole.cells[g-whole.baseIdx] != merged.cells[g-merged.baseIdx] {
				t.Fatalf("trial %d: counts differ at cell %d", trial, g)
			}
		}
	}
}

func TestSketchEmptyAndEdge(t *testing.T) {
	sk := NewQuantileSketch(0)
	if !math.IsNaN(sk.Quantile(0.5)) || !math.IsNaN(sk.CDF(1)) || !math.IsNaN(sk.Min()) {
		t.Fatal("empty sketch should answer NaN")
	}
	sk.Add(0)
	if sk.Quantile(0.5) != 0 || sk.N() != 1 {
		t.Fatalf("single zero sample: q50=%v", sk.Quantile(0.5))
	}
	// Wildly spread values force many growth steps in both directions.
	sk.Add(1e18)
	sk.Add(-1e18)
	sk.Add(3.5e-9)
	if sk.N() != 4 || sk.Min() != -1e18 || sk.Max() != 1e18 {
		t.Fatalf("after spread: n=%d min=%v max=%v", sk.N(), sk.Min(), sk.Max())
	}
	if q := sk.Quantile(1); q != 1e18 {
		t.Fatalf("q1 = %v", q)
	}
	if c := sk.CDF(0); c < 0.5 || c > 1 {
		t.Fatalf("CDF(0) = %v", c)
	}
}

// RunQuantiles must agree with Run exactly and be worker-count invariant.
func TestRunQuantilesDeterministicAcrossWorkers(t *testing.T) {
	g := dag.Wavefront(5, 1.5)
	m, _ := failure.FromPfail(0.08, g.MeanWeight())
	var ref Result
	var refSk *QuantileSketch
	for i, workers := range []int{1, 4} {
		e, err := NewEstimator(g, m, Config{Trials: 2*chunkSize + 77, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, sk, err := e.RunQuantiles()
		if err != nil {
			t.Fatal(err)
		}
		run, err := NewMustEstimator(t, g, m, Config{Trials: 2*chunkSize + 77, Seed: 3, Workers: workers}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res != run {
			t.Fatalf("RunQuantiles Result %+v != Run %+v", res, run)
		}
		if i == 0 {
			ref, refSk = res, sk
			continue
		}
		if res != ref {
			t.Fatalf("workers=%d: Result differs", workers)
		}
		if sk.N() != refSk.N() || sk.wLog != refSk.wLog || sk.baseIdx != refSk.baseIdx {
			t.Fatalf("workers=%d: sketch grid differs", workers)
		}
		for j := range sk.cells {
			if sk.cells[j] != refSk.cells[j] {
				t.Fatalf("workers=%d: sketch counts differ at %d", workers, j)
			}
		}
	}
}

func NewMustEstimator(t *testing.T, g *dag.Graph, m failure.Model, cfg Config) *Estimator {
	t.Helper()
	e, err := NewEstimator(g, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// golden is the committed regression vector: the sketch and nearest-rank
// quantiles of a fixed sample set must reproduce the committed values
// bit for bit (testdata/golden_samples.json, regenerated only
// deliberately via TestGoldenSamplesRegenerate).
type goldenSamples struct {
	Cells           int                `json:"cells"`
	Samples         []float64          `json:"samples"`
	SketchQuantiles map[string]float64 `json:"sketch_quantiles"`
	ExactQuantiles  map[string]float64 `json:"exact_quantiles"`
}

var goldenQs = []string{"0", "0.1", "0.25", "0.5", "0.75", "0.9", "0.99", "1"}

func qVal(s string) float64 {
	var v float64
	if err := json.Unmarshal([]byte(s), &v); err != nil {
		panic(err)
	}
	return v
}

func TestSketchGoldenSamples(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_samples.json")
	if err != nil {
		t.Fatal(err)
	}
	var gold goldenSamples
	if err := json.Unmarshal(raw, &gold); err != nil {
		t.Fatal(err)
	}
	sk := NewQuantileSketch(gold.Cells)
	for _, x := range gold.Samples {
		sk.Add(x)
	}
	samples := NewSamples(append([]float64(nil), gold.Samples...))
	for _, qs := range goldenQs {
		q := qVal(qs)
		if got, want := sk.Quantile(q), gold.SketchQuantiles[qs]; got != want {
			t.Errorf("sketch q=%s: %v want committed %v", qs, got, want)
		}
		if got, want := samples.Quantile(q), gold.ExactQuantiles[qs]; got != want {
			t.Errorf("exact q=%s: %v want committed %v", qs, got, want)
		}
	}
}

// TestGoldenSamplesRegenerate rewrites the golden file when run with
// GOLDEN_REGEN=1; committed output must only change deliberately.
func TestGoldenSamplesRegenerate(t *testing.T) {
	if os.Getenv("GOLDEN_REGEN") == "" {
		t.Skip("set GOLDEN_REGEN=1 to regenerate")
	}
	rng := testRNG(20260729)
	gold := goldenSamples{Cells: 64, SketchQuantiles: map[string]float64{}, ExactQuantiles: map[string]float64{}}
	sk := NewQuantileSketch(gold.Cells)
	for i := 0; i < 500; i++ {
		x := 40 + 12*rng.NormFloat64()
		if i%11 == 0 {
			x += rng.Float64() * 200
		}
		gold.Samples = append(gold.Samples, x)
		sk.Add(x)
	}
	samples := NewSamples(append([]float64(nil), gold.Samples...))
	for _, qs := range goldenQs {
		q := qVal(qs)
		gold.SketchQuantiles[qs] = sk.Quantile(q)
		gold.ExactQuantiles[qs] = samples.Quantile(q)
	}
	out, err := json.MarshalIndent(gold, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden_samples.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
