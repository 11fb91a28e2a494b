package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/linalg"
)

// Every rejection the estimate, schedule and sweep front ends make —
// Validate before any graph work, Model once the graph is known, the
// engine's configuration checks during Run — with its message and the
// HTTP status makespand answers it with (all the client's 400).
func TestRejections(t *testing.T) {
	g, err := linalg.Generate(linalg.FactLU, 3, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLocal(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	estimate := func(mut func(*Estimate)) func() error {
		return func() error {
			p := Estimate{Methods: "First Order", PFail: 0.01}
			mut(&p)
			if err := p.Validate(); err != nil {
				return err
			}
			m, err := p.Model(g)
			if err != nil {
				return err
			}
			_, err = p.Run(context.Background(), lg, m, Direct(1))
			return err
		}
	}
	schedule := func(mut func(*Schedule)) func() error {
		return func() error {
			p := Schedule{Procs: 2, Policies: "cp", PFail: 0.01}
			mut(&p)
			if err := p.Validate(); err != nil {
				return err
			}
			m, err := p.Model(g)
			if err != nil {
				return err
			}
			_, err = p.Run(context.Background(), lg, m, Direct(1))
			return err
		}
	}
	sweep := func(mut func(*Sweep)) func() error {
		return func() error {
			var p Sweep
			mut(&p)
			return p.Validate()
		}
	}
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"estimate unknown method", estimate(func(p *Estimate) { p.Methods = "bogus" }), `unknown method "bogus"`},
		{"estimate empty method list", estimate(func(p *Estimate) { p.Methods = "," }), "empty method list"},
		{"estimate quantile at 1", estimate(func(p *Estimate) { p.Trials, p.Quantiles = 100, []float64{1} }), "quantile 1 outside (0,1)"},
		{"estimate quantile NaN", estimate(func(p *Estimate) { p.Trials, p.Quantiles = 100, []float64{math.NaN()} }), "outside (0,1)"},
		{"estimate quantiles without trials", estimate(func(p *Estimate) { p.Quantiles = []float64{0.5} }), "quantiles need Monte Carlo trials (trials > 0 or tolerance > 0)"},
		{"estimate max_trials without tolerance", estimate(func(p *Estimate) { p.MaxTrials = 10 }), "monte carlo: max_trials, target_quantile and confidence need tolerance > 0"},
		{"estimate confidence without tolerance", estimate(func(p *Estimate) { p.Confidence = 0.9 }), "monte carlo: max_trials"},
		{"estimate negative lambda", estimate(func(p *Estimate) { p.Lambda = -1 }), "bad lambda -1 (must be a finite rate >= 0)"},
		{"estimate NaN lambda", estimate(func(p *Estimate) { p.Lambda = math.NaN() }), "bad lambda NaN"},
		{"estimate infinite lambda", estimate(func(p *Estimate) { p.Lambda = math.Inf(1) }), "bad lambda +Inf"},
		{"estimate pfail at 1", estimate(func(p *Estimate) { p.PFail = 1 }), "pfail=1 outside [0,1)"},
		{"estimate negative pfail", estimate(func(p *Estimate) { p.PFail = -0.1 }), "outside [0,1)"},
		{"estimate negative trials", estimate(func(p *Estimate) { p.Trials = -5 }), "monte carlo: montecarlo: negative Trials -5"},
		{"estimate trials and tolerance", estimate(func(p *Estimate) { p.Trials, p.Tolerance = 100, 0.1 }), "monte carlo: montecarlo: Trials 100 and Tolerance 0.1 are mutually exclusive"},
		{"estimate negative tolerance", estimate(func(p *Estimate) { p.Tolerance = -1 }), "monte carlo: montecarlo: bad Tolerance"},
		{"estimate target quantile at 1", estimate(func(p *Estimate) { p.Tolerance, p.TargetQuantile = 0.1, 1 }), "monte carlo: montecarlo: TargetQuantile 1 outside (0,1)"},
		{"estimate task that never succeeds", estimate(func(p *Estimate) { p.Lambda, p.Trials = 1e9, 100 }), "monte carlo: montecarlo: task 0 can never succeed"},

		{"schedule zero procs", schedule(func(p *Schedule) { p.Procs = 0 }), "procs must be >= 1, got 0"},
		{"schedule negative trials", schedule(func(p *Schedule) { p.Trials = -1 }), "negative trials -1"},
		{"schedule unknown policy", schedule(func(p *Schedule) { p.Policies = "heft" }), `unknown policy "heft"`},
		{"schedule empty policy list", schedule(func(p *Schedule) { p.Policies = "," }), "empty policy list"},
		{"schedule bad quantile", schedule(func(p *Schedule) { p.Trials, p.Quantiles = 100, []float64{1.5} }), "quantile 1.5 outside (0,1)"},
		{"schedule quantiles without trials", schedule(func(p *Schedule) { p.Quantiles = []float64{0.5} }), "quantiles need Monte Carlo trials"},
		{"schedule target quantile without tolerance", schedule(func(p *Schedule) { p.TargetQuantile = 0.5 }), "max_trials, target_quantile and confidence need tolerance > 0"},
		{"schedule negative lambda", schedule(func(p *Schedule) { p.Lambda = -0.05 }), "bad lambda -0.05"},
		{"schedule pfail oversized", schedule(func(p *Schedule) { p.PFail = 1.5 }), "pfail=1.5 outside [0,1)"},
		{"schedule trials and tolerance", schedule(func(p *Schedule) { p.Trials, p.Tolerance = 100, 0.1 }), "cp: montecarlo: Trials 100 and Tolerance 0.1 are mutually exclusive"},

		{"sweep pfail zero", sweep(func(p *Sweep) { p.PFails = []float64{0.1, 0} }), "sweep pfail 0 outside (0,1)"},
		{"sweep pfail one", sweep(func(p *Sweep) { p.PFails = []float64{1} }), "sweep pfail 1 outside (0,1)"},
		{"sweep pfail NaN", sweep(func(p *Sweep) { p.PFails = []float64{math.NaN()} }), "sweep pfail NaN outside (0,1)"},
		{"sweep unknown method", sweep(func(p *Sweep) { p.Methods = "bogus" }), `unknown method "bogus"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to contain %q", err, tc.want)
			}
			if got := Status(err); got != http.StatusBadRequest {
				t.Fatalf("Status = %d, want 400", got)
			}
		})
	}
}

// The queries the front ends accept, including the edge values a
// rejection sits next to.
func TestAccepts(t *testing.T) {
	for _, p := range []*Estimate{
		{Methods: "paper"},
		{Methods: "", Tolerance: 0.1, TargetQuantile: 0.9, Confidence: 0.9, MaxTrials: 5000, Quantiles: []float64{0.5}},
		{Methods: "Dodin,Normal", Trials: 10, Quantiles: []float64{0.01, 0.99}},
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v: %v", p, err)
		}
	}
	for _, p := range []*Schedule{{Procs: 1}, {Procs: 1 << 30, Policies: "fo,cp", Tolerance: 0.5}} {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v: %v", p, err)
		}
	}
	if err := (&Sweep{PFails: []float64{1e-9, 0.999}, Methods: "paper"}).Validate(); err != nil {
		t.Error(err)
	}
}

// Status keeps server-side and cancellation failures out of the 400
// class, wrapped or not.
func TestStatus(t *testing.T) {
	fault := &faultinject.Fault{Point: "mc.chunk", Msg: "boom"}
	for _, tc := range []struct {
		err  error
		want int
	}{
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{fmt.Errorf("monte carlo: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{context.Canceled, StatusClientClosedRequest},
		{fmt.Errorf("cp: %w", context.Canceled), StatusClientClosedRequest},
		{fault, http.StatusInternalServerError},
		{fmt.Errorf("Dodin: %w", fault), http.StatusInternalServerError},
		{errors.New("bad lambda -1 (must be a finite rate >= 0)"), http.StatusBadRequest},
	} {
		if got := Status(tc.err); got != tc.want {
			t.Errorf("Status(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// FillDefaults is the JSON requests' pfail default only: the CLIs'
// -pfail 0 reaches Model as the failure-free model.
func TestFillDefaultsAndModel(t *testing.T) {
	g, err := linalg.Generate(linalg.FactLU, 3, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	var p Estimate
	if m, err := p.Model(g); err != nil || m.Lambda != 0 {
		t.Fatalf("pfail 0: λ = %v, err %v", m.Lambda, err)
	}
	p.FillDefaults()
	if p.PFail != DefaultPFail {
		t.Fatalf("FillDefaults: pfail %v", p.PFail)
	}
	p.Lambda = 0.5
	if m, err := p.Model(g); err != nil || m.Lambda != 0.5 {
		t.Fatalf("explicit λ: %v, err %v", m.Lambda, err)
	}
	s := Schedule{PFail: 0.02}
	s.FillDefaults()
	if s.PFail != 0.02 {
		t.Fatalf("FillDefaults overrode an explicit pfail: %v", s.PFail)
	}
}

// Run and Options parse the selectors themselves: a query copied before
// Validate answers the same document as a validated one, and a bad
// selector fails loudly instead of running no methods or policies.
func TestRunWithoutValidate(t *testing.T) {
	g, err := linalg.Generate(linalg.FactLU, 3, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLocal(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	est := Estimate{Methods: "First Order,Normal", PFail: 0.01}
	m, err := est.Model(g)
	if err != nil {
		t.Fatal(err)
	}
	if doc, err := est.Run(ctx, lg, m, Direct(1)); err != nil || len(doc.Methods) != 2 {
		t.Fatalf("estimate: %d methods, err %v", len(doc.Methods), err)
	}
	sch := Schedule{Procs: 2, Policies: "cp", PFail: 0.01}
	if doc, err := sch.Run(ctx, lg, m, Direct(1)); err != nil || len(doc.Policies) != 1 {
		t.Fatalf("schedule: %d policies, err %v", len(doc.Policies), err)
	}
	sw := Sweep{Methods: "Dodin"}
	if opts, err := sw.Options(experiments.Options{}); err != nil || len(opts.Methods) != 1 {
		t.Fatalf("sweep: methods %v, err %v", opts.Methods, err)
	}

	bad := Estimate{Methods: "Nope"}
	if _, err := bad.Run(ctx, lg, m, Direct(1)); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("estimate with a bad selector: %v", err)
	}
	badSch := Schedule{Procs: 2, Policies: "nope"}
	if _, err := badSch.Run(ctx, lg, m, Direct(1)); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("schedule with a bad selector: %v", err)
	}
	badSw := Sweep{Methods: "Nope"}
	if _, err := badSw.Options(experiments.Options{}); err == nil {
		t.Fatal("sweep with a bad selector: no error")
	}
}

// The engine's configuration checks run in Validate, with the messages
// the run itself would fail with: a bad trial count or adaptive knob is
// rejected before any bounds or analytic work.
func TestValidateRunsEngineChecks(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    interface{ Validate() error }
		want string
	}{
		{"estimate negative trials", &Estimate{Methods: "all", Trials: -5}, "monte carlo: montecarlo: negative Trials -5"},
		{"estimate negative tolerance", &Estimate{Tolerance: -1}, "monte carlo: montecarlo: bad Tolerance"},
		{"estimate target quantile at 1", &Estimate{Tolerance: 0.1, TargetQuantile: 1}, "monte carlo: montecarlo: TargetQuantile 1 outside (0,1)"},
		{"estimate trials and tolerance", &Estimate{Trials: 100, Tolerance: 0.1}, "monte carlo: montecarlo: Trials 100 and Tolerance 0.1 are mutually exclusive"},
		{"schedule trials and tolerance", &Schedule{Procs: 2, Policies: "cp,fo", Trials: 100, Tolerance: 0.1}, "cp: montecarlo: Trials 100 and Tolerance 0.1 are mutually exclusive"},
		{"schedule negative max trials", &Schedule{Procs: 2, Tolerance: 0.1, MaxTrials: -1}, "montecarlo: negative MaxTrials -1"},
	} {
		err := tc.p.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}
