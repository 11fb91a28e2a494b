// Command makespan estimates the expected makespan of a task graph under
// silent errors with every implemented method.
//
// Usage:
//
//	makespan -kind cholesky -k 8 -pfail 0.001
//	makespan -graph graph.json -lambda 0.05 -trials 100000
//	makespan -kind lu -k 10 -trials 20000 -quantiles 0.5,0.95,0.99
//	makespan -kind lu -k 10 -tolerance 0.01
//	makespan -kind lu -k 10 -tolerance 0.05 -target-quantile 0.95 -max-trials 1000000
//	makespan -kind lu -k 10 -format json
//
// The graph comes either from a generator (-kind cholesky|lu|qr with -k)
// or from a JSON file produced by daggen (-graph). The failure model comes
// from -lambda directly or from -pfail calibrated on the mean task weight,
// as in the paper. The tool prints the failure-free makespan, each
// estimator's value and runtime, and a Monte Carlo reference with its 95%
// confidence interval (plus distribution quantiles with -quantiles).
//
// -tolerance selects adaptive Monte Carlo instead of a fixed budget: the
// engine runs whole 4096-trial chunks until the 95% (or -confidence)
// interval of the mean — or of -target-quantile — has half-width within
// the tolerance, capped by -max-trials. The stopping point is a
// deterministic prefix of the fixed-budget trial stream, so an adaptive
// run that stops after N trials is bit-identical to -trials N.
//
// With -format json the same content is emitted as one JSON document
// through internal/report — the exact writer the makespand service uses,
// so `makespan -format json` output is byte-identical to the service's
// POST /v1/estimate response for the same inputs (timing fields aside).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/dag"
	"repro/internal/linalg"
	"repro/internal/montecarlo"
	"repro/internal/query"
	"repro/internal/report"
)

// options collects the CLI flags — the estimate query's straight into
// the query.Estimate the service decodes POST /v1/estimate into; run is
// kept flag-free so tests drive it directly.
type options struct {
	kind      string
	k         int
	path      string
	seed      uint64
	quantiles string
	format    string
	q         query.Estimate
}

func main() {
	var o options
	flag.StringVar(&o.kind, "kind", "cholesky", "generator: cholesky, lu or qr (ignored with -graph)")
	flag.IntVar(&o.k, "k", 8, "tile count for the generator")
	flag.StringVar(&o.path, "graph", "", "JSON graph file (overrides -kind/-k)")
	flag.Float64Var(&o.q.PFail, "pfail", 0.001, "failure probability of an average-weight task")
	flag.Float64Var(&o.q.Lambda, "lambda", 0, "error rate λ (overrides -pfail when > 0)")
	flag.IntVar(&o.q.Trials, "trials", montecarlo.DefaultTrials, "Monte Carlo trials (0 to skip MC)")
	flag.Uint64Var(&o.seed, "seed", 42, "Monte Carlo seed")
	flag.IntVar(&o.q.DodinAtoms, "dodin-atoms", 0, "Dodin distribution support cap (0 = default 64, -1 = unlimited)")
	flag.StringVar(&o.q.Methods, "methods", "all", "comma list of methods, 'paper' or 'all'")
	flag.BoolVar(&o.q.Bounds, "bounds", false, "print the analytic [Jensen, Kleindorfer] bracket")
	flag.StringVar(&o.quantiles, "quantiles", "", "comma list of Monte Carlo quantiles in (0,1), e.g. 0.5,0.95")
	flag.StringVar(&o.format, "format", "text", "output format: text or json")
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
	// between rules and Monte Carlo aborts at the next chunk boundary, so
	// an interrupted run never prints a partial document.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "makespan:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	if o.format != "text" && o.format != "json" {
		return fmt.Errorf("unknown -format %q (text or json)", o.format)
	}
	// -pfail is taken as given: unlike an omitted JSON pfail, -pfail 0
	// means λ = 0, so the JSON default (FillDefaults) is not applied.
	p := o.q
	p.Seed = &o.seed
	var err error
	if p.Quantiles, err = report.ParseQuantiles(o.quantiles); err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return err
	}
	g, err := loadGraph(o.kind, o.k, o.path)
	if err != nil {
		return err
	}
	model, err := p.Model(g)
	if err != nil {
		return err
	}
	// A process-local artifact store resolves the same rules the
	// makespand registry does, and query.Estimate assembles the document
	// for both, so `-format json` is the service's response byte for byte.
	lg, err := query.NewLocal(ctx, g)
	if err != nil {
		return err
	}
	est, err := p.Run(ctx, lg, model, query.Direct(0))
	if err != nil {
		return err
	}
	if o.format == "json" {
		return report.WriteEstimateJSON(os.Stdout, est)
	}
	return report.WriteEstimateText(os.Stdout, est)
}

func loadGraph(kind string, k int, path string) (*dag.Graph, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dag.ReadJSON(f)
	}
	return linalg.Generate(linalg.Factorization(kind), k, linalg.KernelTimes{})
}
