package schedmc

import (
	"context"
	"fmt"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/montecarlo"
)

// Config parameterizes a scheduled-makespan Monte Carlo run. It mirrors
// montecarlo.Config (and is validated by it): zero Trials selects the
// engine default, zero Workers selects GOMAXPROCS, negative values are
// configuration errors, and results are bit-identical for any Workers.
type Config struct {
	// Trials is the number of sampled schedule executions
	// (0 = montecarlo.DefaultTrials; negative is a configuration error).
	Trials int
	// Workers is the number of evaluation goroutines (0 = GOMAXPROCS;
	// negative is a configuration error). The result does not depend on it.
	Workers int
	// Seed makes runs reproducible.
	Seed uint64
	// Mode selects the re-execution model (default FullReexecution).
	Mode montecarlo.Mode

	// Tolerance > 0 selects adaptive sequential stopping, with exactly
	// montecarlo.Config's semantics: run whole chunks until the target
	// statistic's CI half-width is within tolerance (Trials must then
	// be 0).
	Tolerance float64
	// TargetQuantile, when nonzero, watches that quantile's CI instead of
	// the mean's (adaptive mode only; must lie in (0,1)).
	TargetQuantile float64
	// Confidence is the stopping rule's confidence level
	// (0 = montecarlo.DefaultConfidence; adaptive mode only).
	Confidence float64
	// MaxTrials caps an adaptive run, rounded up to whole chunks
	// (0 = montecarlo.DefaultTrials; adaptive mode only).
	MaxTrials int
	// Sketch keeps the run on the plain trial stream with a quantile
	// sketch (montecarlo.Config.Sketch).
	Sketch bool
}

// mcConfig translates the schedule-level config to the engine's (the two
// structs have the same fields).
func (c Config) mcConfig() montecarlo.Config { return montecarlo.Config(c) }

// Estimator runs fused Monte Carlo trials over a frozen schedule: per
// task, the first-attempt failure probability 1 − e^{−λa} and an
// inverted-geometric re-execution count are sampled exactly as in the
// unbounded-processor engine, and the longest path through the schedule
// DAG — the scheduled makespan — is evaluated by the same scalar and
// lane-blocked CSR kernels. An Estimator is an immutable snapshot safe
// for concurrent runs; derive per-request variants with WithConfig.
type Estimator struct {
	fs *FrozenSchedule
	mc *montecarlo.Estimator
}

// NewEstimator compiles the Monte Carlo engine (per-task probabilities,
// sampler threshold tables) for the frozen schedule under the failure
// model. The heavy artifacts are shared with nothing and cached by the
// makespand registry per (graph, policy, procs, λ).
func NewEstimator(fs *FrozenSchedule, model failure.Model, cfg Config) (*Estimator, error) {
	mc, err := montecarlo.NewEstimatorFrozen(fs.Frozen, model, cfg.mcConfig())
	if err != nil {
		return nil, err
	}
	// Cross-layer sanity: the engine's failure-free makespan (every
	// zero-failure trial's value) must be the committed schedule's
	// makespan — a mismatch means the snapshot layers disagree.
	if d0 := mc.D0(); d0 != fs.Makespan {
		return nil, fmt.Errorf("schedmc: internal error: engine d0 %v != schedule makespan %v", d0, fs.Makespan)
	}
	return &Estimator{fs: fs, mc: mc}, nil
}

// New freezes a schedule for g under the policy and builds its estimator
// in one step — the cold path of schedsim and of a service cache miss.
func New(g *dag.Graph, policy Policy, procs int, model failure.Model, cfg Config) (*Estimator, error) {
	fs, err := Freeze(g, policy, procs, model)
	if err != nil {
		return nil, err
	}
	return NewEstimator(fs, model, cfg)
}

// Schedule returns the frozen schedule the estimator runs on.
func (e *Estimator) Schedule() *FrozenSchedule { return e.fs }

// Run executes the configured trials and returns the expected-makespan
// estimate. The result depends only on (Seed, Trials, Mode) — never on
// Workers (see montecarlo's chunked streams).
func (e *Estimator) Run() (montecarlo.Result, error) { return e.mc.Run() }

// RunContext is Run with cancellation at chunk boundaries
// (montecarlo.Estimator.RunContext semantics verbatim: a cancelled run
// returns ctx.Err() and never a partial estimate).
func (e *Estimator) RunContext(ctx context.Context) (montecarlo.Result, error) {
	return e.mc.RunContext(ctx)
}

// RunQuantiles is Run plus a mergeable quantile sketch of the scheduled
// makespan distribution, also worker-count invariant.
func (e *Estimator) RunQuantiles() (montecarlo.Result, *montecarlo.QuantileSketch, error) {
	return e.mc.RunQuantiles()
}

// RunQuantilesContext is RunQuantiles with cancellation at chunk
// boundaries.
func (e *Estimator) RunQuantilesContext(ctx context.Context) (montecarlo.Result, *montecarlo.QuantileSketch, error) {
	return e.mc.RunQuantilesContext(ctx)
}

// WithConfig returns an estimator sharing this one's compiled snapshot —
// frozen schedule, probability arrays and threshold tables — under a
// different (Trials, Seed, Workers). Construction is O(1); Mode cannot
// change (montecarlo.Estimator.WithConfig enforces it). This is what
// lets a warm POST /v1/schedule skip schedule freezing and table builds.
func (e *Estimator) WithConfig(cfg Config) (*Estimator, error) {
	mc, err := e.mc.WithConfig(cfg.mcConfig())
	if err != nil {
		return nil, err
	}
	return &Estimator{fs: e.fs, mc: mc}, nil
}

// ResumeAdaptive runs the adaptive stopping loop over the schedule DAG,
// optionally extending a previous snapshot — montecarlo.Estimator's
// ResumeAdaptive semantics verbatim (prefix-deterministic, chunk-aligned,
// cap always binds). The snapshot can later answer quantile queries and be
// extended to a tighter tolerance bit-identically to a cold run.
func (e *Estimator) ResumeAdaptive(prev *montecarlo.Snapshot, progress func(*montecarlo.Snapshot) bool) (montecarlo.Result, *montecarlo.Snapshot, error) {
	return e.mc.ResumeAdaptive(prev, progress)
}

// ResumeAdaptiveContext is ResumeAdaptive with cancellation at chunk
// boundaries: a cancelled run returns ctx.Err() with neither Result nor
// Snapshot, leaving prev untouched and extendable.
func (e *Estimator) ResumeAdaptiveContext(ctx context.Context, prev *montecarlo.Snapshot, progress func(*montecarlo.Snapshot) bool) (montecarlo.Result, *montecarlo.Snapshot, error) {
	return e.mc.ResumeAdaptiveContext(ctx, prev, progress)
}

// SnapshotConverged reports whether snap already satisfies this
// estimator's adaptive stopping rule (no trials run).
func (e *Estimator) SnapshotConverged(snap *montecarlo.Snapshot) bool {
	return e.mc.SnapshotConverged(snap)
}

// SnapshotResult derives the Result this estimator's adaptive config would
// report at snap's state, without running trials.
func (e *Estimator) SnapshotResult(snap *montecarlo.Snapshot) (montecarlo.Result, error) {
	return e.mc.SnapshotResult(snap)
}

// SizeBytes reports the approximate retained size of the estimator: the
// frozen schedule plus the Monte Carlo snapshot (probability arrays and
// sampler tables). Registry byte budgeting uses it.
func (e *Estimator) SizeBytes() int64 {
	return e.fs.SizeBytes() + e.mc.SizeBytes()
}

// Estimate is a convenience wrapper: freeze g's schedule under the
// policy, apply the overheads, run cfg.Trials sampled executions and
// return the result alongside the frozen schedule it ran on.
func Estimate(g *dag.Graph, policy Policy, procs int, model failure.Model, over Overheads, cfg Config) (montecarlo.Result, *FrozenSchedule, error) {
	tg, tm, err := over.Apply(g, model)
	if err != nil {
		return montecarlo.Result{}, nil, err
	}
	e, err := New(tg, policy, procs, tm, cfg)
	if err != nil {
		return montecarlo.Result{}, nil, err
	}
	res, err := e.Run()
	return res, e.fs, err
}
