// Command schedsim estimates expected makespans of list schedules on a
// bounded number of processors under silent errors — the extension the
// paper's conclusion proposes. It freezes a CP or failure-aware list
// schedule into its schedule-DAG form (internal/schedmc) and runs the
// fused Monte Carlo engine over it: the same chunked, bit-reproducible
// sampling the unbounded-processor estimators use, tens of times faster
// than the per-trial re-scheduling loop it replaces.
//
// Usage:
//
//	schedsim -kind lu -k 8 -procs 4 -pfail 0.01 -trials 2000
//	schedsim -kind lu -k 8 -procs 4 -tolerance 0.05
//	schedsim -kind lu -k 16 -procs 8 -quantiles 0.5,0.99 -format json
//	schedsim -kind qr -k 6 -procs 4 -replication serial -verify-frac 0.05
//
// With -format json the document is emitted through internal/report —
// the exact writer the makespand service uses, so output is
// byte-identical to POST /v1/schedule for the same inputs (timing fields
// aside): both assemble it through internal/query. All flags are
// validated up front: nonsensical processor counts, negative trial
// counts, unknown kinds or policies are configuration errors before any
// work starts, with the service's messages.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"syscall"

	"repro/internal/failure"
	"repro/internal/linalg"
	"repro/internal/montecarlo"
	"repro/internal/query"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/schedmc"
)

// options collects the CLI flags — the schedule query's straight into
// the query.Schedule the service decodes POST /v1/schedule into; run is
// kept flag-free so tests drive it directly.
type options struct {
	kind        string
	k           int
	seed        uint64
	quantiles   string
	workers     int
	format      string
	gantt       bool
	verifyFrac  float64
	verifyFixed float64
	replication string
	q           query.Schedule
}

func main() {
	var o options
	flag.StringVar(&o.kind, "kind", "lu", "generator: cholesky, lu or qr")
	flag.IntVar(&o.k, "k", 8, "tile count")
	flag.IntVar(&o.q.Procs, "procs", 4, "processor count (>= 1)")
	flag.Float64Var(&o.q.PFail, "pfail", 0.01, "failure probability of an average task")
	flag.Float64Var(&o.q.Lambda, "lambda", 0, "error rate λ (overrides -pfail when > 0)")
	flag.IntVar(&o.q.Trials, "trials", 2000, "simulation trials per policy (0 = engine default 300,000)")
	flag.Uint64Var(&o.seed, "seed", 42, "simulation seed")
	flag.StringVar(&o.q.Policies, "policies", "both", "priority policies: cp, fo or both")
	flag.StringVar(&o.quantiles, "quantiles", "", "comma list of makespan quantiles in (0,1), e.g. 0.5,0.99")
	flag.IntVar(&o.workers, "workers", 0, "Monte Carlo workers (0 = GOMAXPROCS; results never depend on it)")
	flag.StringVar(&o.format, "format", "text", "output format: text or json")
	flag.BoolVar(&o.gantt, "gantt", false, "draw an ASCII Gantt chart of each failure-free schedule")
	flag.Float64Var(&o.verifyFrac, "verify-frac", 0, "verification cost as a fraction of each task's weight")
	flag.Float64Var(&o.verifyFixed, "verify-fixed", 0, "fixed verification cost added to each non-zero task")
	flag.StringVar(&o.replication, "replication", "", "task replication: parallel or serial (default none)")
	flag.Float64Var(&o.q.Tolerance, "tolerance", 0, "adaptive MC: stop when the CI half-width is within this (excludes -trials)")
	flag.Float64Var(&o.q.TargetQuantile, "target-quantile", 0, "adaptive MC: watch this quantile's CI instead of the mean's")
	flag.Float64Var(&o.q.Confidence, "confidence", 0, "adaptive MC: stopping confidence level (default 0.95)")
	flag.IntVar(&o.q.MaxTrials, "max-trials", 0, "adaptive MC: trial cap (default 300000, rounded up to whole chunks)")
	flag.Parse()
	if o.q.Tolerance != 0 {
		// -trials has a nonzero default; only an explicit -trials should
		// conflict with -tolerance (the engine rejects the combination).
		explicit := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "trials" {
				explicit = true
			}
		})
		if !explicit {
			o.q.Trials = 0
		}
	}
	// Ctrl-C / SIGTERM cancels the run context: artifact builds stop
	// between rules and the simulation aborts at the next chunk boundary,
	// so an interrupted run never prints a partial document.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "schedsim:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

// validate checks the flags only the CLI has, then completes the
// schedule query (seed, quantiles) and validates it. -trials 0 selects
// the engine's 300,000 trials, where the service's trials 0 skips Monte
// Carlo.
func validate(o options) (p query.Schedule, over schedmc.Overheads, err error) {
	if o.format != "text" && o.format != "json" {
		return p, over, fmt.Errorf("unknown -format %q (text or json)", o.format)
	}
	if !slices.Contains(linalg.All(), linalg.Factorization(o.kind)) {
		return p, over, fmt.Errorf("unknown -kind %q (cholesky, lu or qr)", o.kind)
	}
	if o.k < 1 {
		return p, over, fmt.Errorf("-k must be >= 1, got %d", o.k)
	}
	if o.workers < 0 {
		return p, over, fmt.Errorf("negative -workers %d (0 selects GOMAXPROCS)", o.workers)
	}
	if o.gantt && o.format == "json" {
		return p, over, fmt.Errorf("-gantt draws on the text output; drop it or use -format text")
	}
	over.Verification = failure.Verification{Fraction: o.verifyFrac, Fixed: o.verifyFixed}
	if err := over.Verification.Validate(); err != nil {
		return p, over, err
	}
	switch o.replication {
	case "":
	case "parallel":
		over.Replication = &failure.Replication{}
	case "serial":
		over.Replication = &failure.Replication{Serial: true}
	default:
		return p, over, fmt.Errorf("unknown -replication %q (parallel or serial)", o.replication)
	}
	p = o.q
	p.Seed = &o.seed
	if p.Quantiles, err = report.ParseQuantiles(o.quantiles); err != nil {
		return p, over, err
	}
	if p.Trials == 0 && p.Tolerance == 0 {
		p.Trials = montecarlo.DefaultTrials
	}
	err = p.Validate()
	return p, over, err
}

func run(ctx context.Context, o options, out io.Writer) error {
	p, over, err := validate(o)
	if err != nil {
		return err
	}
	g, err := linalg.Generate(linalg.Factorization(o.kind), o.k, linalg.KernelTimes{})
	if err != nil {
		return err
	}
	model, err := p.Model(g)
	if err != nil {
		return err
	}
	tg, tm, err := over.Apply(g, model)
	if err != nil {
		return err
	}
	// A process-local artifact store resolves the same frozen-schedule
	// rule the makespand registry does, and query.Schedule assembles the
	// document for both (the e2e suite pins them byte-identical).
	lg, err := query.NewLocal(ctx, tg)
	if err != nil {
		return err
	}
	doc, err := p.Run(ctx, lg, tm, query.Direct(o.workers))
	if err != nil {
		return err
	}
	if o.format == "json" {
		return report.WriteScheduleJSON(out, doc)
	}
	if err := report.WriteScheduleText(out, doc); err != nil {
		return err
	}
	if o.gantt {
		// The schedule Run built: it used the clamped processor count.
		procs := p.ListProcs(tg.NumTasks())
		for _, pol := range doc.Policies {
			warm, err := lg.ScheduleEstimatorContext(ctx, schedmc.Policy(pol.Policy), procs, tm)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "\n%s:\n", pol.Label)
			if err := sched.WriteGantt(out, lg.Artifact().G, warm.Schedule().Base, 100); err != nil {
				return err
			}
		}
	}
	return nil
}
