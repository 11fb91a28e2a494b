package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/faultinject"
)

// Mode selects the re-execution model sampled per task.
type Mode int

const (
	// FullReexecution re-executes a failed task until an attempt succeeds:
	// the attempt count is geometric. This is the true model and the
	// paper's ground truth (§V-C samples time-to-failure per attempt).
	FullReexecution Mode = iota
	// SingleRetry allows at most one re-execution (weight a or 2a): the
	// 2-state model underlying the First Order approximation. Useful for
	// isolating the truncation error of the approximations from the
	// modelling error of dropping multi-failures.
	SingleRetry
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case FullReexecution:
		return "full-reexecution"
	case SingleRetry:
		return "single-retry"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes a Monte Carlo run.
type Config struct {
	// Trials is the number of samples; 0 selects the paper's 300,000.
	// Negative values are a configuration error.
	Trials int
	// Workers is the number of goroutines (0 = GOMAXPROCS; negative is a
	// configuration error). The result is bit-identical for any Workers.
	Workers int
	// Seed makes runs reproducible.
	Seed uint64
	// Mode selects the re-execution model (default FullReexecution).
	Mode Mode
	// Tolerance > 0 makes the run adaptive: instead of a fixed trial
	// budget, whole 4096-trial chunks run until the confidence interval
	// of the requested statistic (the TargetQuantile's order-statistic
	// interval, or the mean's normal interval when TargetQuantile is 0)
	// has half-width <= Tolerance, capped by MaxTrials. Trials must be 0
	// (the two budgets are mutually exclusive). Because chunk streams are
	// indexed by chunk number and folded in chunk order, the stopping
	// point is a prefix of the same trial stream: an adaptive run that
	// stops after k chunks is bit-identical to a fixed-budget run of
	// k*4096 trials, for any Workers (see adaptive_test.go). Negative or
	// non-finite values are configuration errors.
	Tolerance float64
	// TargetQuantile selects which statistic the stopping rule watches:
	// a quantile in (0,1) (its CI comes from the run's QuantileSketch via
	// binomial order-statistic bounds, see QuantileSketch.QuantileCI) or
	// 0 for the mean (normal CI at the same Confidence). Only meaningful
	// with Tolerance > 0; any other use is a configuration error.
	TargetQuantile float64
	// Confidence is the stopping rule's confidence level in (0,1);
	// 0 selects DefaultConfidence. Only meaningful with Tolerance > 0.
	Confidence float64
	// MaxTrials caps an adaptive run (0 = DefaultTrials). The cap is
	// rounded up to a whole chunk so adaptive runs and snapshots stay
	// chunk-aligned. Only meaningful with Tolerance > 0; negative values
	// are configuration errors.
	MaxTrials int
	// Sketch keeps the run on the plain trial stream with a quantile
	// sketch: adaptive snapshots carry the merged sketch
	// (Snapshot.Sketch), and Run answers what RunQuantiles does. Without
	// it, an estimator that stratifies (see stratum.go) runs the
	// stratified estimator, whose draws are not a sample of the makespan
	// distribution, and an adaptive run on the plain stream keeps no
	// sketch. A nonzero TargetQuantile implies it.
	Sketch bool
}

// Validate reports whether c is a valid run configuration: the checks
// NewEstimator* and WithConfig make, without building anything.
func (c Config) Validate() error {
	_, err := normalizeConfig(c)
	return err
}

// Adaptive reports whether the configuration selects sequential stopping.
func (c Config) Adaptive() bool { return c.Tolerance > 0 }

// DefaultTrials is the paper's trial count.
const DefaultTrials = 300000

// DefaultConfidence is the adaptive stopping rule's confidence level when
// Config.Confidence is 0.
const DefaultConfidence = 0.95

// ChunkTrials is the number of trials per RNG chunk — the granularity of
// adaptive stopping and of resumable snapshots (see chunkSize).
const ChunkTrials = chunkSize

// chunkSize is the number of consecutive trials sharing one RNG stream.
// Chunking is what makes results independent of the worker count: chunk c
// always covers trials [c·chunkSize, (c+1)·chunkSize) with the stream
// derived from (Seed, c), whichever worker happens to run it, and the
// final reduction folds chunks in index order.
const chunkSize = 4096

// Result summarizes a Monte Carlo estimate of the expected makespan.
// Mean, StdErr, CI95 and AchievedCI belong to the control-variate
// estimate of the mean (see stratum.go); on the plain stream StdDev,
// Min and Max describe the sampled makespans themselves.
type Result struct {
	Mean     float64 // estimated expected makespan
	StdDev   float64 // standard deviation of the makespan
	StdErr   float64 // standard error of Mean
	CI95     float64 // half-width of the 95% CI around Mean
	Min, Max float64 // extreme makespans
	Trials   int     // trials folded into this result (== TrialsRun)

	// TrialsRun is the number of trials actually executed. For
	// fixed-budget runs it equals Config.Trials; adaptive runs stop at
	// the first chunk whose target CI is within tolerance, so it is
	// usually far smaller than MaxTrials.
	TrialsRun int
	// Converged reports whether an adaptive run met its tolerance before
	// the MaxTrials cap. Always false for fixed-budget runs.
	Converged bool
	// AchievedCI is the half-width of the stopping rule's confidence
	// interval at the final trial count (quantile order-statistic CI for
	// a TargetQuantile run, mean CI otherwise). Zero for fixed-budget
	// runs and when too few samples exist to form the interval.
	AchievedCI float64
}

// Estimator runs Monte Carlo estimation on one graph. It compiles the
// graph into its frozen CSR form, precomputes per-task failure
// probabilities (permuted into topological order), and processes each
// trial chunk in two phases: a sequential sampling pass locating the
// chunk's failures (the exact per-trial RNG draw order of the fused v2
// engine, resolved through bit-level threshold tables, see sampler.go),
// then a lane-blocked structure-of-arrays evaluation of the deferred
// multi-failure trials (see batch.go). Zero- and single-failure trials
// never touch the graph. Every run's mean is a control-variate estimate
// around the First Order sum C (see stratum.go). When P(K ≥ 2), the
// probability of two or more extra executions, is small, runs without a
// quantile sketch do not sample the K ≤ 1 trials at all: they take them
// exactly and sample only the multi-failure stratum.
// An Estimator is a snapshot: weights and failure probabilities are
// captured at construction, and both samplers run on the snapshot.
// Mutating the graph afterwards makes Run/RunSamples fail with
// ErrStaleGraph — build a new estimator instead.
type Estimator struct {
	cfg Config

	frozen *dag.Frozen
	// Everything below is in topological order.
	base    []float64 // failure-free weights
	pfTopo  []float64 // first-attempt failure probability
	invLnPf []float64 // 1/ln(pf) where pf > 0 (direct geometric inversion)
	hpt     []float64 // head+tail−2a: longest path through k, minus its weight counted twice
	delta   []float64 // Δ_k = d(G_k) − d0, the First Order identity (see stratum.go)
	d0      float64   // failure-free makespan
	eC      float64   // E[C], the control variate's exact mean (see stratum.go)
	q       float64   // P(K ≥ 2), or 1 where it is not computed (see stratum.go)
	aMax    float64   // the largest weight of a task that can fail
	pfMax   float64   // max over tasks of pf, the thinning envelope
	invLnQ  float64   // 1/ln(1−pfMax); 0 when pfMax == 0
	// exitW is the largest first-draw payload (draw>>11)+1 whose envelope
	// gap reaches past the last task: a trial drawing it has no failure
	// and consumes only that draw. 0 when no payload exits (see exitPayload).
	exitW uint64

	tables *samplerTables // bit-threshold tables of the fast sampler (may be nil)
	strat  *stratum       // the stratified estimator's exact part and tables (may be nil)
	sinks  []int32        // positions with no successors, for the lane kernel

	// Test toggles forcing the reference paths; results must be identical
	// either way (see determinism_test.go).
	refSampler bool // use the math.Log reference sampler
	scalarEval bool // evaluate multi-failure trials one at a time
}

// NewEstimator prepares a Monte Carlo estimator. The graph must be acyclic.
func NewEstimator(g *dag.Graph, model failure.Model, cfg Config) (*Estimator, error) {
	rates := make([]float64, g.NumTasks())
	for i := range rates {
		rates[i] = model.Lambda
	}
	return NewEstimatorRates(g, rates, cfg)
}

// NewEstimatorFrozen prepares an estimator on an already-frozen graph,
// sharing the compiled CSR form with other consumers instead of
// re-freezing (the experiments cell scheduler holds one Frozen per sweep
// and builds one estimator per pfail point from it; schedmc hands in a
// frozen schedule DAG, whose longest path is a scheduled makespan — the
// engine needs no notion of processors to evaluate it). The frozen
// snapshot must be up to date with its source graph.
func NewEstimatorFrozen(f *dag.Frozen, model failure.Model, cfg Config) (*Estimator, error) {
	rates := make([]float64, f.NumTasks())
	for i := range rates {
		rates[i] = model.Lambda
	}
	return newEstimatorRates(f.Graph(), f, rates, cfg)
}

// NewEstimatorRates prepares an estimator with a per-task error rate λ_i
// (tasks at different DVFS speeds or on heterogeneous processors).
func NewEstimatorRates(g *dag.Graph, rates []float64, cfg Config) (*Estimator, error) {
	return newEstimatorRates(g, nil, rates, cfg)
}

func newEstimatorRates(g *dag.Graph, frozen *dag.Frozen, rates []float64, cfg Config) (*Estimator, error) {
	if len(rates) != g.NumTasks() {
		return nil, fmt.Errorf("montecarlo: %d rates for %d tasks", len(rates), g.NumTasks())
	}
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	if frozen == nil {
		var err error
		frozen, err = dag.Freeze(g)
		if err != nil {
			return nil, err
		}
	} else if !frozen.UpToDate() {
		// A stale snapshot would mix old topology with current weights.
		return nil, ErrStaleGraph
	}
	n := g.NumTasks()
	pf := make([]float64, n)
	for i := range pf {
		if rates[i] < 0 || rates[i] != rates[i] {
			return nil, fmt.Errorf("montecarlo: bad rate λ_%d = %v", i, rates[i])
		}
		pf[i] = failure.Model{Lambda: rates[i]}.PFail(g.Weight(i))
		// pf saturates to exactly 1 once λ·a ≳ 37. Under SingleRetry that
		// is still well-defined (the task always takes 2a); under full
		// re-execution the attempt count diverges, so reject it instead of
		// sampling astronomically large geometric counts (the v1 rejection
		// loop would never have terminated either).
		if pf[i] >= 1 && cfg.Mode != SingleRetry {
			return nil, fmt.Errorf("montecarlo: task %d can never succeed (pfail = %v)", i, pf[i])
		}
	}
	e := &Estimator{
		cfg:     cfg,
		frozen:  frozen,
		base:    frozen.WeightsTopo(),
		pfTopo:  make([]float64, n),
		invLnPf: make([]float64, n),
		hpt:     make([]float64, n),
	}
	e.frozen.Gather(e.pfTopo, pf)
	for k, p := range e.pfTopo {
		if p > 0 {
			e.invLnPf[k] = 1 / math.Log(p)
		}
		if p > e.pfMax {
			e.pfMax = p
		}
	}
	if e.pfMax > 0 {
		e.invLnQ = 1 / math.Log1p(-e.pfMax)
		e.exitW = e.exitPayload()
	}
	// Heads, tails and d0 of the failure-free graph: a single failure of
	// the task at position k moves the makespan to max(d0, hpt[k]+w) where
	// w is the task's inflated weight — an O(1) trial.
	heads := make([]float64, n)
	tails := make([]float64, n)
	e.d0 = frozen.MakespanTopo(e.base, heads)
	frozen.TailsTopo(e.base, tails)
	for k := 0; k < n; k++ {
		e.hpt[k] = heads[k] + tails[k] - 2*e.base[k]
	}
	for k := 0; k < n; k++ {
		if frozen.OutDegreeTopo(k) == 0 {
			e.sinks = append(e.sinks, int32(k))
		}
	}
	e.buildTables(false)
	e.buildControl()
	e.buildStratum()
	return e, nil
}

// normalizeConfig validates a run configuration and fills in defaults.
// It is shared by NewEstimator* and WithConfig so the two construction
// paths cannot drift. Negative counts are configuration errors, not
// defaults: silently clamping Trials:-5 to 300,000 turns a typo into a
// seconds-long run. In adaptive mode (Tolerance > 0) the trial budget is
// the chunk-aligned MaxTrials cap; Trials must be 0.
func normalizeConfig(cfg Config) (Config, error) {
	if cfg.Trials < 0 {
		return cfg, fmt.Errorf("montecarlo: negative Trials %d (0 selects the default %d)", cfg.Trials, DefaultTrials)
	}
	if cfg.Workers < 0 {
		return cfg, fmt.Errorf("montecarlo: negative Workers %d (0 selects GOMAXPROCS)", cfg.Workers)
	}
	if cfg.Tolerance < 0 || math.IsNaN(cfg.Tolerance) || math.IsInf(cfg.Tolerance, 0) {
		return cfg, fmt.Errorf("montecarlo: bad Tolerance %v (must be a finite value >= 0; 0 disables adaptive stopping)", cfg.Tolerance)
	}
	if !cfg.Adaptive() {
		// The adaptive knobs are meaningless without a tolerance; reject
		// them instead of silently ignoring a half-configured request.
		if cfg.MaxTrials != 0 {
			return cfg, fmt.Errorf("montecarlo: MaxTrials %d needs Tolerance > 0 (use Trials for a fixed budget)", cfg.MaxTrials)
		}
		if cfg.TargetQuantile != 0 {
			return cfg, fmt.Errorf("montecarlo: TargetQuantile %v needs Tolerance > 0", cfg.TargetQuantile)
		}
		if cfg.Confidence != 0 {
			return cfg, fmt.Errorf("montecarlo: Confidence %v needs Tolerance > 0", cfg.Confidence)
		}
		if cfg.Trials == 0 {
			cfg.Trials = DefaultTrials
		}
	} else {
		if cfg.Trials != 0 {
			return cfg, fmt.Errorf("montecarlo: Trials %d and Tolerance %v are mutually exclusive (cap adaptive runs with MaxTrials)", cfg.Trials, cfg.Tolerance)
		}
		if cfg.MaxTrials < 0 {
			return cfg, fmt.Errorf("montecarlo: negative MaxTrials %d (0 selects the default %d)", cfg.MaxTrials, DefaultTrials)
		}
		if cfg.MaxTrials == 0 {
			cfg.MaxTrials = DefaultTrials
		}
		if q := cfg.TargetQuantile; q != 0 && !(q > 0 && q < 1) {
			return cfg, fmt.Errorf("montecarlo: TargetQuantile %v outside (0,1) (0 selects the mean)", q)
		}
		if cfg.Confidence == 0 {
			cfg.Confidence = DefaultConfidence
		}
		if !(cfg.Confidence > 0 && cfg.Confidence < 1) {
			return cfg, fmt.Errorf("montecarlo: Confidence %v outside (0,1)", cfg.Confidence)
		}
		// Chunk-align the cap (rounding up) so every adaptive stopping
		// point — including the capped one — is a whole-chunk prefix that
		// a snapshot can extend bit-identically.
		chunks := (cfg.MaxTrials + chunkSize - 1) / chunkSize
		cfg.MaxTrials = chunks * chunkSize
		cfg.Trials = cfg.MaxTrials
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers > cfg.Trials {
		cfg.Workers = cfg.Trials
	}
	return cfg, nil
}

// mcWorker is the per-goroutine trial state: scratch buffers sized once so
// the per-chunk loops never allocate (the SoA batch scratch is added
// lazily on the first multi-failure block, the scalar kernel's on its
// first trial, cv and many on the first chunk or draws that use them).
type mcWorker struct {
	e       *Estimator
	w       []float64 // scalar kernel topo weights, == base between trials
	comp    []float64 // scalar kernel scratch
	failPos []int32   // positions failed this trial
	failW   []float64 // their inflated weights
	res     []float64 // per-chunk results, chunk-relative trial order
	cv      []float64 // their control variates C, beside res
	many    []bool    // plain stream: whether the trial had K ≥ 2, beside res
	blk     laneBlock // deferred multi-failure trials
	bs      *batchScratch
}

func (e *Estimator) newWorker() *mcWorker {
	n := e.frozen.NumTasks()
	wk := &mcWorker{
		e:       e,
		failPos: make([]int32, n),
		failW:   make([]float64, n),
		res:     make([]float64, chunkSize),
		// Room for four failures a lane before the block buffers grow.
		blk: laneBlock{pos: make([]int32, 0, 4*evalLanes), w: make([]float64, 0, 4*evalLanes)},
	}
	return wk
}

// runChunk processes trials [t0, t1) of one chunk in two phases: a
// sequential sampling pass (exact per-trial draw order; zero- and
// single-failure trials are resolved in O(1) on the spot) and a batched
// evaluation of the deferred multi-failure trials. Results land in
// wk.res[0:t1-t0] in trial order, their control variates C in wk.cv
// and whether they had K ≥ 2 extra executions in wk.many.
//
// Each trial's first draw is peeked before the sampler runs: a payload at
// or below exitW is a gap past the last task, so the trial is failure-free
// and resolves to d0 with one integer compare. Any other payload leaves
// the stream untouched and the sampler redraws it.
func (wk *mcWorker) runChunk(rng splitMix64, t0, t1 int) {
	e := wk.e
	if len(wk.cv) < t1-t0 {
		wk.cv = make([]float64, t1-t0)
	}
	if len(wk.many) < t1-t0 {
		wk.many = make([]bool, t1-t0)
	}
	res, cv, many := wk.res[:t1-t0], wk.cv[:t1-t0], wk.many[:t1-t0]
	if e.pfMax == 0 {
		// Zero-pfail fast path: every task is deterministic, no draws.
		for i := range res {
			res[i], cv[i], many[i] = e.d0, 0, false
		}
		return
	}
	wk.blk.reset()
	scalar := e.scalarEval
	exitW := e.exitW
	if e.refSampler {
		exitW = 0 // the reference path decides every exit itself
	}
	for t := range res {
		if next := rng.s + gamma; mix64(next)>>11+1 <= exitW {
			rng.s = next
			res[t], cv[t], many[t] = e.d0, 0, false
			continue
		}
		nfail := wk.sample(&rng)
		switch nfail {
		case 0:
			res[t], cv[t], many[t] = e.d0, 0, false
		case 1:
			// Only one task changed: the new makespan is the longest path
			// through it against the failure-free rest, exactly.
			k := wk.failPos[0]
			v := e.hpt[k] + wk.failW[0]
			if v < e.d0 {
				v = e.d0
			}
			res[t] = v
			if wk.failW[0] == 2*e.base[k] {
				// K = 1: C = Δ_k, which is v − d0 bit for bit.
				cv[t], many[t] = v-e.d0, false
			} else {
				cv[t], many[t] = wk.control(1), true
			}
		default:
			cv[t], many[t] = wk.control(nfail), true
			if scalar {
				res[t] = wk.evalScalar(nfail)
				continue
			}
			if wk.blk.full() {
				wk.evalBlock(&wk.blk)
				wk.blk.reset()
			}
			wk.blk.add(t, wk.failPos[:nfail], wk.failW[:nfail])
		}
	}
	if wk.blk.n > 0 {
		wk.evalBlock(&wk.blk)
		wk.blk.reset()
	}
}

// numChunks is the fixed chunk count for this estimator's trial budget;
// chunk assignment and the reduction both derive from it.
func (e *Estimator) numChunks() int {
	return (e.cfg.Trials + chunkSize - 1) / chunkSize
}

// forEach runs work(wk, i) for every i in [0, n) across cfg.Workers
// goroutines, each with its own worker scratch wk.
//
// Cancellation is checked before every work item — chunk boundaries,
// the natural prefix-deterministic stopping points. A cancelled run
// returns ctx.Err() and the caller must discard whatever work
// accumulated: forEach never produces a partial Result. The checks cost
// nothing on the hot path: ctx.Done() is captured once and is nil for
// context.Background(), and the faultinject gate is one atomic load.
func (e *Estimator) forEach(ctx context.Context, n int64, work func(wk *mcWorker, i int64)) error {
	workers := e.cfg.Workers
	if int64(workers) > n {
		workers = int(n)
	}
	done := ctx.Done()
	var next atomic.Int64
	var abort atomic.Bool
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		abort.Store(true)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := e.newWorker()
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				if done != nil || faultinject.Enabled() {
					if abort.Load() {
						return
					}
					if err := chunkGate(ctx, done); err != nil {
						fail(err)
						return
					}
				}
				work(wk, i)
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// chunkGate is the check made before every chunk: the context's
// cancellation (done is ctx.Done(), nil for a context that never ends)
// and the "mc.chunk" failpoint, whose delay or error lands here.
func chunkGate(ctx context.Context, done <-chan struct{}) error {
	if done != nil {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	return faultinject.Hit(ctx, "mc.chunk")
}

// ErrStaleGraph is returned by Run/RunSamples when the graph was mutated
// after NewEstimator; the estimator is a snapshot and will not observe
// the mutation.
var ErrStaleGraph = errors.New("montecarlo: graph mutated after NewEstimator; build a new estimator")

// D0 returns the failure-free makespan of the snapshot weights — the
// value every zero-failure trial evaluates to. Schedule consumers
// (schedmc.NewEstimator) cross-check it against the committed
// schedule's makespan at construction.
func (e *Estimator) D0() float64 { return e.d0 }

// fresh verifies the snapshot still matches the source graph.
func (e *Estimator) fresh() error {
	if !e.frozen.UpToDate() {
		return ErrStaleGraph
	}
	return nil
}

// Run executes the configured trials and returns the estimate. The
// result depends only on (Seed, Trials, Mode, Sketch), not on Workers.
// Trials is the nominal budget: a stratified run makes about
// Trials·P(K ≥ 2) conditional draws and reports Trials. With
// Tolerance > 0 the run is adaptive: chunks run until the target CI is
// within tolerance (or MaxTrials is hit) and Result reports the trials
// actually spent — still worker-count invariant, because the
// stopping point is a deterministic function of the chunk-ordered prefix.
func (e *Estimator) Run() (Result, error) {
	return e.RunContext(context.Background())
}

// RunContext is Run with cancellation: the deadline or cancel of ctx is
// honored at chunk boundaries, and a cancelled run returns ctx.Err()
// with a zero Result — never a partial estimate, so a retry after
// cancellation reproduces the same bytes a never-cancelled run would
// have. A background context adds no per-chunk overhead.
func (e *Estimator) RunContext(ctx context.Context) (Result, error) {
	if err := e.fresh(); err != nil {
		return Result{}, err
	}
	if e.cfg.Adaptive() {
		res, _, err := e.ResumeAdaptiveContext(ctx, nil, nil)
		return res, err
	}
	return e.runFixed(ctx, nil)
}

// Estimate is a convenience wrapper building a transient Estimator.
func Estimate(g *dag.Graph, model failure.Model, cfg Config) (Result, error) {
	e, err := NewEstimator(g, model, cfg)
	if err != nil {
		return Result{}, err
	}
	return e.Run()
}

// EstimateRates is Estimate with per-task error rates.
func EstimateRates(g *dag.Graph, rates []float64, cfg Config) (Result, error) {
	e, err := NewEstimatorRates(g, rates, cfg)
	if err != nil {
		return Result{}, err
	}
	return e.Run()
}
