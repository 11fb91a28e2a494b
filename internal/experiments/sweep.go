package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/failure"
	"repro/internal/linalg"
)

// SweepSpec is an extension experiment not in the paper: fix one graph and
// sweep the failure probability across decades, exposing the error-vs-λ
// scaling law of each estimator directly (First Order's error is O(λ²), so
// its relative-error curve must drop two decades per pfail decade until it
// hits the Monte Carlo noise floor).
type SweepSpec struct {
	Fact   linalg.Factorization
	K      int
	PFails []float64
}

// DefaultSweep sweeps LU k=10 across five decades of pfail.
func DefaultSweep() SweepSpec {
	return SweepSpec{
		Fact:   linalg.FactLU,
		K:      10,
		PFails: []float64{0.1, 0.01, 0.001, 0.0001, 0.00001},
	}
}

// SweepPoint is one pfail value of a sweep.
type SweepPoint struct {
	PFail  float64
	MCMean float64
	MCCI95 float64
	// MCTrials is the Monte Carlo budget the point actually spent (the
	// stopping point under Options.Tolerance, the fixed count otherwise).
	MCTrials int
	RelErr   map[Method]float64
	Time     map[Method]time.Duration
}

// SweepResult is a fully evaluated sweep.
type SweepResult struct {
	Spec   SweepSpec
	Tasks  int
	Trials int
	Points []SweepPoint
}

// RunSweep evaluates the sweep. All (pfail × method) cells and Monte
// Carlo runs share one generated graph and its frozen CSR form, and when
// Dodin is among the methods its reduction schedule is recorded once and
// replayed (bit-identically, see spgraph.Plan) at every other pfail —
// the schedule depends only on topology. Output is byte-identical for
// any Options.Workers. Shared state resolves through Options.Artifacts
// (a private throwaway store when nil).
func RunSweep(spec SweepSpec, opts Options) (SweepResult, error) {
	if opts.Artifacts == nil {
		opts.Artifacts = artifact.NewStore(0)
	}
	g, err := linalg.Generate(spec.Fact, spec.K, linalg.KernelTimes{})
	if err != nil {
		return SweepResult{}, err
	}
	ga, _, err := opts.Artifacts.GraphContext(opts.ctx(), g)
	if err != nil {
		return SweepResult{}, err
	}
	return RunSweepGraph(ga, spec, opts)
}

// RunSweepGraph evaluates the sweep on an explicit graph artifact
// instead of generating one from spec.Fact/spec.K (which then only
// label the result). This is the entry point of the makespand service:
// the registry hands in its store plus the request's graph artifact,
// and every shared object — the frozen CSR form, the Dodin reduction
// plan (one recording per (graph, atom cap), replayed bit-identically
// at every pfail) and the per-λ Monte Carlo estimators — is a resolver
// lookup, warm whenever any earlier request (sweep or not) built it.
// Results are bit-identical to RunSweep on an identical graph for any
// Options.Workers.
func RunSweepGraph(ga *artifact.Graph, spec SweepSpec, opts Options) (SweepResult, error) {
	if err := opts.normalize(); err != nil {
		return SweepResult{}, err
	}
	if opts.Artifacts == nil {
		return SweepResult{}, fmt.Errorf("experiments: RunSweepGraph needs Options.Artifacts (the store ga resolves through)")
	}
	if !ga.Frozen.UpToDate() {
		return SweepResult{}, fmt.Errorf("experiments: sweep graph mutated after freeze")
	}
	g := ga.G
	ctxs := make([]*pointCtx, len(spec.PFails))
	for i, pf := range spec.PFails {
		model, err := failure.FromPfail(pf, g.MeanWeight())
		if err != nil {
			return SweepResult{}, err
		}
		// Each pfail point gets its own derived seed: reusing opts.Seed
		// verbatim correlates the Monte Carlo noise across the sweep, so
		// every point of the error-vs-λ plot would share one noise floor.
		ctxs[i] = &pointCtx{g: g, frozen: ga.Frozen, st: opts.Artifacts, ga: ga, model: model, k: spec.K, pfail: pf, seed: pointSeed(opts.Seed, i)}
	}
	wantsDodin := false
	for _, m := range opts.Methods {
		if m == MethodDodin {
			wantsDodin = true
		}
	}
	if wantsDodin && len(ctxs) > 0 {
		// Resolve the compiled plan once, as untimed sweep setup —
		// warm when any earlier sweep or estimate compiled it — and
		// replay it at every point, including the first, so the
		// per-point Dodin timings all measure the same (replay) work and
		// stay comparable across pfail.
		plan, err := opts.Artifacts.PlanContext(opts.ctx(), ga, opts.DodinMaxAtoms)
		if err != nil {
			return SweepResult{}, fmt.Errorf("sweep %s pfail=%g: %w", MethodDodin, ctxs[0].pfail, err)
		}
		for _, ctx := range ctxs {
			ctx.plan = plan
		}
	}
	var progress func(int, Point)
	if opts.Progress != nil {
		progress = func(i int, p Point) {
			opts.Progress(fmt.Sprintf("sweep: %s k=%d pfail=%g done", spec.Fact, spec.K, spec.PFails[i]))
		}
	}
	points, err := runPoints(ctxs, opts, progress)
	if err != nil {
		return SweepResult{}, fmt.Errorf("sweep: %w", err)
	}
	res := SweepResult{Spec: spec, Tasks: g.NumTasks(), Trials: opts.Trials}
	for i, p := range points {
		res.Points = append(res.Points, SweepPoint{
			PFail:    spec.PFails[i],
			MCMean:   p.MCMean,
			MCCI95:   p.MCCI95,
			MCTrials: p.MCTrials,
			RelErr:   p.RelErr,
			Time:     p.Time,
		})
	}
	return res, nil
}

// pointSeed derives an independent per-point seed from the user's seed
// and the sweep-point index via the SplitMix64 finalizer, so distinct
// points draw decorrelated Monte Carlo streams while a fixed opts.Seed
// still reproduces the whole sweep.
func pointSeed(seed uint64, point int) uint64 {
	z := seed + 0x9e3779b97f4a7c15*uint64(point+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// WriteSweep renders a sweep as an aligned text table.
func WriteSweep(w io.Writer, r SweepResult, methods []Method) error {
	if len(methods) == 0 {
		methods = sortedSweepMethods(r.Points)
	}
	adaptive := r.Trials == 0 // per-point counts differ; show a column
	var b strings.Builder
	if adaptive {
		fmt.Fprintf(&b, "Extension sweep: %s k=%d (%d tasks), relative error vs pfail (MC trials: adaptive)\n",
			FactLabel(r.Spec.Fact), r.Spec.K, r.Tasks)
	} else {
		fmt.Fprintf(&b, "Extension sweep: %s k=%d (%d tasks), relative error vs pfail (MC trials: %d)\n",
			FactLabel(r.Spec.Fact), r.Spec.K, r.Tasks, r.Trials)
	}
	fmt.Fprintf(&b, "%-10s %-14s %-10s", "pfail", "MC mean", "MC ±95%")
	if adaptive {
		fmt.Fprintf(&b, " %-9s", "trials")
	}
	for _, m := range methods {
		fmt.Fprintf(&b, " %14s", string(m))
	}
	b.WriteByte('\n')
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10g %-14.6g %-10.3g", p.PFail, p.MCMean, p.MCCI95)
		if adaptive {
			fmt.Fprintf(&b, " %-9d", p.MCTrials)
		}
		for _, m := range methods {
			fmt.Fprintf(&b, " %14s", formatRelErr(p.RelErr[m]))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedSweepMethods(points []SweepPoint) []Method {
	if len(points) == 0 {
		return nil
	}
	var out []Method
	for _, m := range AllMethods() {
		if _, ok := points[0].RelErr[m]; ok {
			out = append(out, m)
		}
	}
	return out
}
