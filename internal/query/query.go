// Package query owns the request semantics of the three estimation
// queries — estimate, schedule and sweep — for every front end: the
// makespand routes POST /v1/estimate, /v1/schedule and /v1/sweep decode
// their JSON bodies into these parameter structs, and cmd/makespan,
// cmd/schedsim and cmd/experiments fill the same structs from their
// flags. One Validate per query rejects bad parameters with one set of
// messages, one Model builds the failure model, and one assembly path
// per query turns a resolved graph's artifacts into the report document
// both sides render — so CLI/service byte parity holds by construction.
//
// Where the front ends differ is how kernels run, which a Runner
// abstracts: the CLIs call the estimators directly (Direct), makespand
// serializes heavy phases on its compute gate and coalesces identical
// Monte Carlo runs across requests.
package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"

	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/linalg"
	"repro/internal/report"
	"repro/internal/schedmc"
)

// DefaultSeed is the Monte Carlo seed of a query that names none.
const DefaultSeed = 42

// DefaultPFail is the failure probability of an average-weight task for
// a JSON request that gives neither pfail nor lambda (FillDefaults).
const DefaultPFail = 0.001

// model builds the failure model on g: an explicit error rate λ wins,
// otherwise pfail is calibrated on the mean task weight (paper §V-C). A
// negative or non-finite λ is rejected instead of silently falling back
// to pfail.
func model(g *dag.Graph, pfail, lambda float64) (failure.Model, error) {
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return failure.Model{}, fmt.Errorf("bad lambda %g (must be a finite rate >= 0)", lambda)
	}
	if lambda > 0 {
		return failure.New(lambda)
	}
	return failure.FromPfail(pfail, g.MeanWeight())
}

// monteCarlo is the Monte Carlo part of an estimate or schedule query,
// with montecarlo.Config's semantics. Trials 0 and Tolerance 0 skip
// Monte Carlo; Tolerance > 0 selects adaptive stopping (Trials must then
// be 0); Seed nil selects DefaultSeed.
//
// The query structs declare these fields themselves rather than
// embedding this one: each embedding level costs encoding/json an
// allocation per decoded request.
type monteCarlo struct {
	Trials         int
	Seed           *uint64
	Quantiles      []float64
	Tolerance      float64
	TargetQuantile float64
	Confidence     float64
	MaxTrials      int
}

func (m *monteCarlo) enabled() bool { return m.Trials != 0 || m.Tolerance != 0 }

func (m *monteCarlo) seed() uint64 { return seedOr(m.Seed) }

func seedOr(seed *uint64) uint64 {
	if seed != nil {
		return *seed
	}
	return DefaultSeed
}

// validate rejects quantiles outside (0,1) and the knobs that need a
// Monte Carlo run a query without one carries. prefix heads the
// adaptive-knob message (the estimate route says "monte carlo: ").
func (m *monteCarlo) validate(prefix string) error {
	if err := report.ValidateQuantiles(m.Quantiles); err != nil {
		return err
	}
	if !m.enabled() {
		if len(m.Quantiles) > 0 {
			return errors.New("quantiles need Monte Carlo trials (trials > 0 or tolerance > 0)")
		}
		if m.MaxTrials != 0 || m.TargetQuantile != 0 || m.Confidence != 0 {
			return fmt.Errorf("%smax_trials, target_quantile and confidence need tolerance > 0", prefix)
		}
	}
	return nil
}

// checkEngine runs the Monte Carlo engine's own configuration check on
// an enabled run, so that a bad trial count or adaptive knob is
// rejected before any gated work, with the message the run itself would
// fail with; prefix heads it as the run's errors are headed.
func (m *monteCarlo) checkEngine(prefix string) error {
	if !m.enabled() {
		return nil
	}
	if err := m.config(0).Validate(); err != nil {
		return fmt.Errorf("%s%w", prefix, err)
	}
	return nil
}

// Estimate is the estimate query: the paper's estimators (and the
// extra baselines) on one graph, optionally bracketed by the analytic
// bounds and referenced by Monte Carlo. An explicit Lambda wins over
// PFail; FillDefaults gives an omitted pfail DefaultPFail.
type Estimate struct {
	PFail      float64 `json:"pfail,omitempty"`       // failure probability of an average task, calibrated into λ
	Lambda     float64 `json:"lambda,omitempty"`      // error rate λ; wins over PFail when positive
	Methods    string  `json:"methods,omitempty"`     // experiments.ParseMethods selector ("" = all)
	DodinAtoms int     `json:"dodin_atoms,omitempty"` // Dodin support cap (0 = 64, negative = unlimited)
	Bounds     bool    `json:"bounds,omitempty"`      // add the analytic [Jensen, Kleindorfer] bracket

	Trials         int       `json:"trials,omitempty"`          // fixed Monte Carlo budget (0 with Tolerance 0: no Monte Carlo)
	Seed           *uint64   `json:"seed,omitempty"`            // trial stream seed (nil = DefaultSeed)
	Quantiles      []float64 `json:"quantiles,omitempty"`       // makespan quantiles in (0,1) to report
	Tolerance      float64   `json:"tolerance,omitempty"`       // > 0: stop once the target CI half-width is within it
	TargetQuantile float64   `json:"target_quantile,omitempty"` // adaptive target (0 = the mean)
	Confidence     float64   `json:"confidence,omitempty"`      // adaptive stopping level (0 = 0.95)
	MaxTrials      int       `json:"max_trials,omitempty"`      // adaptive cap (0 = 300,000)

	methods []experiments.Method // set by Validate (Run validates p if unset)
}

func (p *Estimate) mc() monteCarlo {
	return monteCarlo{p.Trials, p.Seed, p.Quantiles, p.Tolerance, p.TargetQuantile, p.Confidence, p.MaxTrials}
}

// FillDefaults gives an omitted (zero) pfail the JSON default
// DefaultPFail. The CLIs skip it: their -pfail flags carry their own
// defaults, and an explicit -pfail 0 asks for the failure-free model.
func (p *Estimate) FillDefaults() { fillPFail(&p.PFail) }

func fillPFail(pfail *float64) {
	if *pfail == 0 {
		*pfail = DefaultPFail
	}
}

// Model builds p's failure model on g.
func (p *Estimate) Model(g *dag.Graph) (failure.Model, error) { return model(g, p.PFail, p.Lambda) }

// Validate checks everything about p that needs no graph — methods
// first, then quantiles and the Monte Carlo knobs, including the
// engine's own configuration check — and keeps the parsed method list
// for Run. Model checks the rest once the graph is known.
func (p *Estimate) Validate() error {
	var err error
	if p.methods, err = experiments.ParseMethods(p.Methods); err != nil {
		return err
	}
	mc := p.mc()
	if err := mc.validate("monte carlo: "); err != nil {
		return err
	}
	return mc.checkEngine("monte carlo: ")
}

// Schedule is the schedule query, the paper conclusion's
// processor-bounded extension: each policy's list schedule on Procs
// processors, its efficiency and, with Monte Carlo, the expected
// makespan of executing it under silent errors.
type Schedule struct {
	Procs    int     `json:"procs"`              // processor count (>= 1)
	Policies string  `json:"policies,omitempty"` // schedmc.ParsePolicies selector ("" = both)
	PFail    float64 `json:"pfail,omitempty"`    // as in Estimate
	Lambda   float64 `json:"lambda,omitempty"`   // as in Estimate

	Trials         int       `json:"trials,omitempty"`          // per policy, as in Estimate
	Seed           *uint64   `json:"seed,omitempty"`            // as in Estimate
	Quantiles      []float64 `json:"quantiles,omitempty"`       // as in Estimate
	Tolerance      float64   `json:"tolerance,omitempty"`       // per policy, as in Estimate
	TargetQuantile float64   `json:"target_quantile,omitempty"` // as in Estimate
	Confidence     float64   `json:"confidence,omitempty"`      // as in Estimate
	MaxTrials      int       `json:"max_trials,omitempty"`      // as in Estimate

	policies []schedmc.Policy // set by Validate (Run validates p if unset)
}

func (p *Schedule) mc() monteCarlo {
	return monteCarlo{p.Trials, p.Seed, p.Quantiles, p.Tolerance, p.TargetQuantile, p.Confidence, p.MaxTrials}
}

// FillDefaults gives an omitted (zero) pfail the JSON default
// DefaultPFail, as Estimate.FillDefaults does.
func (p *Schedule) FillDefaults() { fillPFail(&p.PFail) }

// Model builds p's failure model on g.
func (p *Schedule) Model(g *dag.Graph) (failure.Model, error) { return model(g, p.PFail, p.Lambda) }

// Validate checks everything about p that needs no graph and keeps the
// parsed policy list for Run.
func (p *Schedule) Validate() error {
	if p.Procs < 1 {
		return fmt.Errorf("procs must be >= 1, got %d", p.Procs)
	}
	if p.Trials < 0 {
		return fmt.Errorf("negative trials %d", p.Trials)
	}
	var err error
	if p.policies, err = schedmc.ParsePolicies(p.Policies); err != nil {
		return err
	}
	mc := p.mc()
	if err := mc.validate(""); err != nil {
		return err
	}
	// Every policy's run has the same configuration; Run would report
	// it on the first.
	return mc.checkEngine(string(p.policies[0]) + ": ")
}

// Sweep is the pfail sweep query (an extension experiment): one graph,
// the failure probability swept across PFails (DefaultSweep's five
// decades when empty), each point referenced by Monte Carlo.
type Sweep struct {
	PFails     []float64 `json:"pfails,omitempty"`      // swept failure probabilities, each in (0,1)
	Methods    string    `json:"methods,omitempty"`     // ParseMethods selector; "" or "paper": the paper's three
	Trials     int       `json:"trials,omitempty"`      // each point's Monte Carlo budget (0 = 300,000)
	Seed       *uint64   `json:"seed,omitempty"`        // per-point streams derive from it (nil = DefaultSeed)
	DodinAtoms int       `json:"dodin_atoms,omitempty"` // as in Estimate

	methods []experiments.Method // set by Validate; nil = the paper's three
}

// Validate rejects a pfail outside (0,1) and unknown methods, and keeps
// the parsed method list for Options.
func (p *Sweep) Validate() error {
	for _, pf := range p.PFails {
		if !(pf > 0 && pf < 1) {
			return fmt.Errorf("sweep pfail %g outside (0,1)", pf)
		}
	}
	if p.Methods != "" && p.Methods != "paper" {
		var err error
		if p.methods, err = experiments.ParseMethods(p.Methods); err != nil {
			return err
		}
	}
	return nil
}

// Spec is p's sweep over the graph labelled by generator kind and k.
func (p *Sweep) Spec(kind string, k int) experiments.SweepSpec {
	spec := experiments.DefaultSweep()
	spec.Fact, spec.K = linalg.Factorization(kind), k
	if len(p.PFails) > 0 {
		spec.PFails = p.PFails
	}
	return spec
}

// Options validates p and returns opts with p's trial budget, seed,
// methods and Dodin cap filled in; the caller supplies workers, context
// and store.
func (p *Sweep) Options(opts experiments.Options) (experiments.Options, error) {
	err := p.Validate()
	opts.Trials, opts.Seed, opts.Methods, opts.DodinMaxAtoms = p.Trials, seedOr(p.Seed), p.methods, p.DodinAtoms
	return opts, err
}

// StatusClientClosedRequest is nginx's non-standard 499: the client went
// away before the response.
const StatusClientClosedRequest = 499

// Status maps an error of Validate, Model or a query run to its HTTP
// status: an expired deadline is 504, a cancelled request 499, an
// injected fault a server-side 500, and anything else — bad parameters,
// engine configuration, a graph the estimators reject — the client's
// 400.
func Status(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case faultinject.IsFault(err):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}
