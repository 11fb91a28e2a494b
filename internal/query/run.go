package query

import (
	"context"
	"fmt"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/montecarlo"
	"repro/internal/report"
	"repro/internal/schedmc"
	"repro/internal/spgraph"
)

// Graph is a resolved graph: the artifact holding the frozen graph and
// its pooled scratch, plus the derived artifacts a query reads. The
// makespand registry entry is one; Local is the CLIs'.
type Graph interface {
	Artifact() *artifact.Graph
	// PlanContext's model is unused (plans are topology-only); it stays
	// because benchmark/trace.go calls Entry.PlanContext with it.
	PlanContext(ctx context.Context, atoms int, model failure.Model) (*spgraph.Plan, error)
	EstimatorContext(ctx context.Context, model failure.Model, mode montecarlo.Mode) (*montecarlo.Estimator, error)
	ScheduleEstimatorContext(ctx context.Context, policy schedmc.Policy, procs int, model failure.Model) (*schedmc.Estimator, error)
}

// Kernel is a configured Monte Carlo run: a *montecarlo.Estimator or a
// *schedmc.Estimator after WithConfig.
type Kernel interface {
	RunContext(ctx context.Context) (montecarlo.Result, error)
	RunQuantilesContext(ctx context.Context) (montecarlo.Result, *montecarlo.QuantileSketch, error)
	ResumeAdaptiveContext(ctx context.Context, prev *montecarlo.Snapshot, progress func(*montecarlo.Snapshot) bool) (montecarlo.Result, *montecarlo.Snapshot, error)
	SnapshotConverged(snap *montecarlo.Snapshot) bool
	SnapshotResult(snap *montecarlo.Snapshot) (montecarlo.Result, error)
}

// FixedKey identifies a fixed-budget Monte Carlo run of one graph: its
// trial stream, keyed like an adaptive run's snapshot — including
// whether the run keeps a quantile sketch, so a mean-only run never
// waits on a sketch it did not ask for — and the trial count.
type FixedKey struct {
	Stream artifact.SnapshotKey // the trial stream
	Trials int                  // the fixed budget
}

// Runner runs a query's heavy work. Acquire and Release bracket each
// CPU-bound phase that is not a Monte Carlo run (bounds, analytic
// methods, schedule freezing), always through Gated; Fixed and Adaptive
// run a kernel for the given stream of g. Every Runner must return what
// a direct run returns, bit for bit.
type Runner interface {
	Workers() int
	Acquire(ctx context.Context) error
	Release()
	Fixed(ctx context.Context, g Graph, key FixedKey, k Kernel) (montecarlo.Result, *montecarlo.QuantileSketch, error)
	Adaptive(ctx context.Context, g Graph, key artifact.SnapshotKey, k Kernel) (montecarlo.Result, *montecarlo.Snapshot, error)
}

// Gated runs fn between r.Acquire and r.Release, releasing in a defer
// so a phase that panics (and a server that recovers it) cannot keep
// the gate. Being a plain function rather than a Runner method, it
// lets fn and what fn captures stay on the caller's stack.
func Gated(ctx context.Context, r Runner, fn func() error) error {
	if err := r.Acquire(ctx); err != nil {
		return err
	}
	defer r.Release()
	return fn()
}

// RunFixed runs a fixed-budget kernel, with a quantile sketch when
// sketch is set.
func RunFixed(ctx context.Context, k Kernel, sketch bool) (montecarlo.Result, *montecarlo.QuantileSketch, error) {
	if sketch {
		return k.RunQuantilesContext(ctx)
	}
	res, err := k.RunContext(ctx)
	return res, nil, err
}

// Direct is the CLIs' Runner: every kernel runs at once in the calling
// goroutine with Direct(n) Monte Carlo workers (0 = GOMAXPROCS).
type Direct int

// Workers reports the Monte Carlo worker count.
func (d Direct) Workers() int { return int(d) }

// Acquire never waits.
func (Direct) Acquire(context.Context) error { return nil }

// Release does nothing.
func (Direct) Release() {}

// Fixed runs k.
func (Direct) Fixed(ctx context.Context, _ Graph, key FixedKey, k Kernel) (montecarlo.Result, *montecarlo.QuantileSketch, error) {
	return RunFixed(ctx, k, key.Stream.Sketch)
}

// Adaptive runs k from scratch.
func (Direct) Adaptive(ctx context.Context, _ Graph, _ artifact.SnapshotKey, k Kernel) (montecarlo.Result, *montecarlo.Snapshot, error) {
	return k.ResumeAdaptiveContext(ctx, nil, nil)
}

// Local is a graph resolved through a process-local artifact store —
// the same rules the makespand registry resolves, so a CLI run builds
// every artifact the way a cold service request does.
type Local struct {
	store *artifact.Store
	ga    *artifact.Graph
}

// NewLocal freezes g into a fresh unbounded store.
func NewLocal(ctx context.Context, g *dag.Graph) (*Local, error) {
	st := artifact.NewStore(0)
	ga, _, err := st.GraphContext(ctx, g)
	if err != nil {
		return nil, err
	}
	return &Local{store: st, ga: ga}, nil
}

// Artifact returns the graph artifact.
func (l *Local) Artifact() *artifact.Graph { return l.ga }

// PlanContext resolves the compiled Dodin plan; model is unused (see Graph).
func (l *Local) PlanContext(ctx context.Context, atoms int, model failure.Model) (*spgraph.Plan, error) {
	return l.store.PlanContext(ctx, l.ga, atoms)
}

// EstimatorContext resolves the compiled Monte Carlo estimator.
func (l *Local) EstimatorContext(ctx context.Context, model failure.Model, mode montecarlo.Mode) (*montecarlo.Estimator, error) {
	return l.store.EstimatorContext(ctx, l.ga, model, mode)
}

// ScheduleEstimatorContext resolves the frozen schedule's estimator.
func (l *Local) ScheduleEstimatorContext(ctx context.Context, policy schedmc.Policy, procs int, model failure.Model) (*schedmc.Estimator, error) {
	return l.store.ScheduleEstimatorContext(ctx, l.ga, policy, procs, model)
}

// header is the graph and model summary both documents open with.
func header(g *dag.Graph, model failure.Model) (report.GraphInfo, report.ModelInfo) {
	return report.GraphInfo{Tasks: g.NumTasks(), Edges: g.NumEdges(), MeanWeight: g.MeanWeight()},
		report.ModelInfo{Lambda: model.Lambda, PFailMeanTask: model.PFail(g.MeanWeight()), MTBF: model.MTBF()}
}

// Run answers a validated estimate query on g under model: the
// document `makespan -format json` prints and POST /v1/estimate
// returns. Artifacts come from g — the Dodin plan is replayed, First
// Order runs on a pooled evaluator, the Monte Carlo estimator is
// reconfigured — and every substitution is bit-identical to a cold
// build.
func (p *Estimate) Run(ctx context.Context, g Graph, model failure.Model, r Runner) (report.Estimate, error) {
	ga := g.Artifact()
	est := report.Estimate{FailureFree: ga.D0}
	est.Graph, est.Model = header(ga.G, model)
	if p.methods == nil {
		if err := p.Validate(); err != nil {
			return est, err
		}
	}
	err := Gated(ctx, r, func() error { return p.analytic(ctx, g, model, &est) })
	mc := p.mc()
	if err != nil || !mc.enabled() {
		return est, err
	}
	t0 := time.Now()
	warm, err := g.EstimatorContext(ctx, model, montecarlo.FullReexecution)
	if err != nil {
		return est, fmt.Errorf("monte carlo: %w", err)
	}
	k, err := warm.WithConfig(mc.config(r.Workers()))
	if err != nil {
		return est, fmt.Errorf("monte carlo: %w", err)
	}
	key := artifact.SnapshotKey{Lambda: model.Lambda, Mode: montecarlo.FullReexecution, Seed: mc.seed(), Sketch: mc.sketch()}
	if est.MonteCarlo, err = mc.run(ctx, g, r, key, k); err != nil {
		return est, fmt.Errorf("monte carlo: %w", err)
	}
	est.MonteCarlo.Time = time.Since(t0)
	return est, nil
}

// analytic fills the bounds bracket and the per-method estimates.
func (p *Estimate) analytic(ctx context.Context, g Graph, model failure.Model, est *report.Estimate) error {
	ga := g.Artifact()
	if p.Bounds {
		sw := ga.Sweeper()
		lo, hi, err := sw.Bracket(model, p.DodinAtoms)
		ga.PutSweeper(sw)
		if err != nil {
			return fmt.Errorf("bounds: %w", err)
		}
		est.Bracket = &report.BracketInfo{Lower: lo, Upper: hi}
	}
	for _, m := range p.methods {
		var v float64
		var dt time.Duration
		switch m {
		case experiments.MethodDodin:
			// Replay the compiled plan instead of re-reducing.
			plan, err := g.PlanContext(ctx, p.DodinAtoms, model)
			if err != nil {
				return fmt.Errorf("%s: %w", m, err)
			}
			t0 := time.Now()
			res, err := plan.Run(model)
			if err != nil {
				return fmt.Errorf("%s: %w", m, err)
			}
			v, dt = res.Estimate, time.Since(t0)
		case experiments.MethodFirstOrder:
			pe := ga.PathEvaluator()
			t0 := time.Now()
			v, dt = core.FirstOrderEstimate(pe, model), time.Since(t0)
			ga.PutPathEvaluator(pe)
		default:
			var err error
			if v, dt, err = experiments.Estimate(m, ga.G, model, p.DodinAtoms); err != nil {
				return fmt.Errorf("%s: %w", m, err)
			}
		}
		est.Methods = append(est.Methods, report.MethodEstimate{Method: string(m), Estimate: v, Time: dt})
	}
	return nil
}

// Run answers a validated schedule query on g under model: the
// document `schedsim -format json` prints and POST /v1/schedule
// returns. List scheduling never uses more processors than tasks, so
// every count past the task count shares the schedule, its artifacts
// and its Monte Carlo runs with procs = tasks; only the echoed procs
// and the efficiency use the requested count.
func (p *Schedule) Run(ctx context.Context, g Graph, model failure.Model, r Runner) (report.Schedule, error) {
	ga := g.Artifact()
	doc := report.Schedule{Procs: p.Procs, CriticalPath: ga.D0}
	doc.Graph, doc.Model = header(ga.G, model)
	procs := p.ListProcs(ga.G.NumTasks())
	if p.policies == nil {
		if err := p.Validate(); err != nil {
			return doc, err
		}
	}
	mc := p.mc()
	for _, pol := range p.policies {
		var warm *schedmc.Estimator
		if err := Gated(ctx, r, func() (err error) {
			if warm, err = g.ScheduleEstimatorContext(ctx, pol, procs, model); err != nil {
				err = fmt.Errorf("%s: %w", pol, err)
			}
			return err
		}); err != nil {
			return doc, err
		}
		fs := warm.Schedule()
		entry := report.SchedulePolicy{
			Policy:      string(pol),
			Label:       pol.Label(),
			FailureFree: fs.Makespan,
			Efficiency:  fs.EfficiencyOn(p.Procs),
			ChainEdges:  fs.ChainEdges,
		}
		if mc.enabled() {
			t0 := time.Now()
			k, err := warm.WithConfig(schedmc.Config(mc.config(r.Workers())))
			if err != nil {
				return doc, fmt.Errorf("%s: %w", pol, err)
			}
			key := artifact.SnapshotKey{Sched: true, Policy: pol, Procs: procs,
				Lambda: model.Lambda, Mode: montecarlo.FullReexecution, Seed: mc.seed(), Sketch: mc.sketch()}
			if entry.MonteCarlo, err = mc.run(ctx, g, r, key, k); err != nil {
				return doc, fmt.Errorf("%s: %w", pol, err)
			}
			entry.MonteCarlo.Time = time.Since(t0)
		}
		doc.Policies = append(doc.Policies, entry)
	}
	return doc, nil
}

// ListProcs is the processor count p's schedules are built on for a
// graph of the given task count: p.Procs, capped at the task count.
func (p *Schedule) ListProcs(tasks int) int { return min(p.Procs, max(tasks, 1)) }

// config is the engine configuration of m's run.
func (m *monteCarlo) config(workers int) montecarlo.Config {
	return montecarlo.Config{
		Trials:         m.Trials,
		Seed:           m.seed(),
		Workers:        workers,
		Tolerance:      m.Tolerance,
		TargetQuantile: m.TargetQuantile,
		Confidence:     m.Confidence,
		MaxTrials:      m.MaxTrials,
		Sketch:         m.sketch(),
	}
}

// sketch reports whether m's run keeps a quantile sketch, and so
// samples the plain trial stream: it reports quantiles, or stops on one.
func (m *monteCarlo) sketch() bool { return len(m.Quantiles) > 0 || m.TargetQuantile != 0 }

// run is the one Monte Carlo dispatch: adaptive when a tolerance is
// set, fixed (with a sketch when quantiles are asked for) otherwise,
// both through r on stream key of g.
func (m *monteCarlo) run(ctx context.Context, g Graph, r Runner, key artifact.SnapshotKey, k Kernel) (*report.MonteCarloInfo, error) {
	if m.Tolerance != 0 {
		res, snap, err := r.Adaptive(ctx, g, key, k)
		if err != nil {
			return nil, err
		}
		mc := report.MonteCarloInfoFrom(res, key.Seed)
		mc.Adaptive = report.AdaptiveInfoFrom(res, m.Tolerance, m.TargetQuantile, m.Confidence)
		if len(m.Quantiles) > 0 {
			m.quantiles(mc, snap.Sketch())
		}
		return mc, nil
	}
	res, sketch, err := r.Fixed(ctx, g, FixedKey{Stream: key, Trials: m.Trials}, k)
	if err != nil {
		return nil, err
	}
	mc := report.MonteCarloInfoFrom(res, key.Seed)
	m.quantiles(mc, sketch)
	return mc, nil
}

func (m *monteCarlo) quantiles(mc *report.MonteCarloInfo, sketch *montecarlo.QuantileSketch) {
	for _, q := range m.Quantiles {
		mc.Quantiles = append(mc.Quantiles, report.QuantileValue{Q: q, Value: sketch.Quantile(q)})
	}
}
