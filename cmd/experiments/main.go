// Command experiments regenerates the paper's evaluation: Figures 4-12
// (relative error of First Order, Dodin and Normal vs Monte Carlo, per
// factorization, failure probability and graph size) and Table I (LU k=20
// accuracy and runtime).
//
// Usage:
//
//	experiments                  # all nine figures + Table I, paper fidelity
//	experiments -fig 5           # one figure
//	experiments -table 1         # Table I only
//	experiments -trials 30000    # reduced Monte Carlo for quick runs
//	experiments -csv out.csv     # additionally dump CSV rows
//	experiments -format json     # machine-readable output instead of text
//	experiments -workers 8       # total CPU budget (cells + MC workers)
//	experiments -all-methods     # add Sculli and Second Order columns
//	experiments -sweep -sweep-kind qr -sweep-k 8 -sweep-pfails 0.1,0.01
//	experiments -sched -sched-procs 2,4,8 -sweep-pfails 0.01,0.001
//
// Estimates and relative errors are independent of -workers: the cell
// scheduler runs data points and estimators concurrently but reduces
// deterministically (only the reported wall-clock timings reflect the
// concurrency; use -workers 1 for isolated method timings). With
// -format json the default full run emits one combined document
// (figures + table1); single -fig/-table/-sweep runs emit one document
// each. At paper fidelity (300,000 trials) the full run takes tens of
// minutes, dominated by Monte Carlo on the larger graphs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/linalg"
	"repro/internal/query"
	"repro/internal/report"
	"repro/internal/schedmc"
)

func main() {
	var (
		fig       = flag.Int("fig", 0, "run only this figure (4..12; 0 = all)")
		table     = flag.Int("table", 0, "run only this table (1; 0 = per default run)")
		trials    = flag.Int("trials", 0, "Monte Carlo trials (0 = paper's 300,000)")
		seed      = flag.Uint64("seed", 42, "Monte Carlo seed")
		csvPath   = flag.String("csv", "", "append figure CSV rows to this file")
		allM      = flag.Bool("all-methods", false, "include Sculli and Second Order")
		maxK      = flag.Int("max-k", 0, "cap graph sizes at this k (0 = paper sizes)")
		tableK    = flag.Int("table-k", 0, "override Table I tile count (0 = paper's 20)")
		sweep     = flag.Bool("sweep", false, "run the extension pfail sweep instead")
		sweepKind = flag.String("sweep-kind", "", "sweep factorization: cholesky, lu or qr (default lu)")
		sweepK    = flag.Int("sweep-k", 0, "sweep tile count (default 10)")
		sweepPF   = flag.String("sweep-pfails", "", "comma list of sweep failure probabilities (default five decades)")
		sched     = flag.Bool("sched", false, "run the processor-bounded schedule sweep instead (policy × procs × pfail)")
		schedPr   = flag.String("sched-procs", "", "comma list of processor counts for -sched (default 2,4,8,16)")
		schedPol  = flag.String("sched-policies", "", "schedule policies for -sched: cp, fo or both (default both)")
		workers   = flag.Int("workers", 0, "total CPU budget for cells and Monte Carlo (0 = GOMAXPROCS)")
		format    = flag.String("format", "text", "output format: text or json")
		tolerance = flag.Float64("tolerance", 0, "adaptive MC: stop each point when its CI half-width is within this (excludes -trials)")
		targetQ   = flag.Float64("target-quantile", 0, "adaptive MC: watch this quantile's CI instead of the mean's")
		confid    = flag.Float64("confidence", 0, "adaptive MC: stopping confidence level (default 0.95)")
		maxTrials = flag.Int("max-trials", 0, "adaptive MC: per-point trial cap (default 300000, rounded up to whole chunks)")
	)
	flag.Parse()
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "experiments: unknown -format %q (text or json)\n", *format)
		os.Exit(2)
	}
	// Ctrl-C / SIGTERM cancels the run context: the cell scheduler stops
	// launching cells and in-flight Monte Carlo aborts at the next chunk
	// boundary, so an interrupted run never emits a partial document.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := experiments.Options{
		Context:        ctx,
		Trials:         *trials,
		Seed:           *seed,
		Workers:        *workers,
		Tolerance:      *tolerance,
		TargetQuantile: *targetQ,
		Confidence:     *confid,
		MaxTrials:      *maxTrials,
		// One process-local store for the whole invocation: the full run
		// revisits each (fact, k) graph at three pfails, and a sweep
		// following the figures reuses their frozen graphs — shared by
		// construction, exactly like the makespand registry's store.
		Artifacts: artifact.NewStore(0),
	}
	if *allM {
		opts.Methods = experiments.AllMethods()
	}
	if *format == "text" {
		opts.Progress = func(s string) { fmt.Fprintln(os.Stderr, "  ", s) }
	}
	if *sched {
		spec, err := schedSpec(*sweepKind, *sweepK, *sweepPF, *schedPr, *schedPol)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		if err := runSched(spec, opts, *format); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	if *sweep {
		spec, err := sweepSpec(*sweepKind, *sweepK, *sweepPF, *allM, &opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		if err := runSweep(spec, opts, *format); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*fig, *table, opts, *csvPath, *maxK, *tableK, *format); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(fig, table int, opts experiments.Options, csvPath string, maxK, tableK int, format string) error {
	var csvW io.Writer
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		csvW = f
	}
	runFig := func(spec experiments.FigureSpec) (experiments.FigureResult, error) {
		if maxK > 0 {
			var ks []int
			for _, k := range spec.Ks {
				if k <= maxK {
					ks = append(ks, k)
				}
			}
			opts.Ks = ks
		}
		res, err := experiments.RunFigure(spec, opts)
		if err != nil {
			return res, err
		}
		if csvW != nil {
			if err := experiments.WriteFigureCSV(csvW, res, opts.Methods); err != nil {
				return res, err
			}
		}
		return res, nil
	}
	writeFig := func(res experiments.FigureResult) error {
		if format == "json" {
			return report.WriteFigureJSON(os.Stdout, res, opts.Methods)
		}
		if err := experiments.WriteFigure(os.Stdout, res, opts.Methods); err != nil {
			return err
		}
		fmt.Println()
		return nil
	}

	switch {
	case fig != 0:
		spec, err := experiments.Figure(fig)
		if err != nil {
			return err
		}
		res, err := runFig(spec)
		if err != nil {
			return err
		}
		return writeFig(res)
	case table != 0:
		if table != 1 {
			return fmt.Errorf("no table %d (have 1)", table)
		}
		return runTable1(opts, tableK, format)
	default:
		// The full run: text streams per figure; JSON collects everything
		// into one parseable document.
		var figures []experiments.FigureResult
		for _, spec := range experiments.Figures() {
			res, err := runFig(spec)
			if err != nil {
				return err
			}
			if format == "json" {
				figures = append(figures, res)
			} else if err := writeFig(res); err != nil {
				return err
			}
		}
		tres, err := runTable1Result(opts, tableK)
		if err != nil {
			return err
		}
		if format == "json" {
			return report.WriteReportJSON(os.Stdout, figures, &tres, opts.Methods)
		}
		return experiments.WriteTable1(os.Stdout, tres, opts.Methods)
	}
}

func runTable1Result(opts experiments.Options, tableK int) (experiments.Table1Result, error) {
	spec := experiments.Table1()
	if tableK > 0 {
		spec.K = tableK
	}
	return experiments.RunTable1(spec, opts)
}

// parsePFails parses the -sweep-pfails comma list, shared by the pfail
// sweep and the schedule sweep. An all-empty list is an error; nil is
// returned for an empty flag (keep the spec default).
func parsePFails(pfails string) ([]float64, error) {
	if pfails == "" {
		return nil, nil
	}
	var out []float64
	for _, s := range strings.Split(pfails, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		pf, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -sweep-pfails entry %q: %v", s, err)
		}
		out = append(out, pf)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-sweep-pfails %q holds no values", pfails)
	}
	return out, nil
}

// sweepSpec maps the sweep flags onto the sweep query POST /v1/sweep
// runs — same defaults, same checks — and fills opts from it.
func sweepSpec(kind string, k int, pfails string, allMethods bool, opts *experiments.Options) (experiments.SweepSpec, error) {
	def := experiments.DefaultSweep()
	if kind == "" {
		kind = string(def.Fact)
	}
	if k <= 0 {
		k = def.K
	}
	p := query.Sweep{Trials: opts.Trials, Seed: &opts.Seed}
	if allMethods {
		p.Methods = "all"
	}
	var err error
	if p.PFails, err = parsePFails(pfails); err != nil {
		return def, err
	}
	if *opts, err = p.Options(*opts); err != nil {
		return def, err
	}
	return p.Spec(kind, k), nil
}

// schedSpec resolves the schedule-sweep flags against the default LU
// k=10 sweep; the graph flags (-sweep-kind/-sweep-k/-sweep-pfails) are
// shared with the pfail sweep.
func schedSpec(kind string, k int, pfails, procs, policies string) (experiments.SchedSpec, error) {
	spec := experiments.DefaultSchedSweep()
	if kind != "" {
		spec.Fact = linalg.Factorization(kind)
	}
	if k > 0 {
		spec.K = k
	}
	pfs, err := parsePFails(pfails)
	if err != nil {
		return spec, err
	}
	if pfs != nil {
		spec.PFails = pfs
	}
	if procs != "" {
		spec.Procs = nil
		for _, s := range strings.Split(procs, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			p, err := strconv.Atoi(s)
			if err != nil {
				return spec, fmt.Errorf("bad -sched-procs entry %q: %v", s, err)
			}
			spec.Procs = append(spec.Procs, p)
		}
	}
	if policies != "" {
		ps, err := schedmc.ParsePolicies(policies)
		if err != nil {
			return spec, err
		}
		spec.Policies = ps
	}
	return spec, nil
}

func runSched(spec experiments.SchedSpec, opts experiments.Options, format string) error {
	res, err := experiments.RunSchedSweep(spec, opts)
	if err != nil {
		return err
	}
	if format == "json" {
		return report.WriteSchedSweepJSON(os.Stdout, res)
	}
	return experiments.WriteSchedSweep(os.Stdout, res)
}

func runSweep(spec experiments.SweepSpec, opts experiments.Options, format string) error {
	res, err := experiments.RunSweep(spec, opts)
	if err != nil {
		return err
	}
	if format == "json" {
		return report.WriteSweepJSON(os.Stdout, res, opts.Methods)
	}
	return experiments.WriteSweep(os.Stdout, res, opts.Methods)
}

func runTable1(opts experiments.Options, tableK int, format string) error {
	res, err := runTable1Result(opts, tableK)
	if err != nil {
		return err
	}
	if format == "json" {
		return report.WriteTable1JSON(os.Stdout, res, opts.Methods)
	}
	return experiments.WriteTable1(os.Stdout, res, opts.Methods)
}
