package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/query"
	"repro/internal/report"
)

func TestLoadGraphGeneratorAndFile(t *testing.T) {
	g, err := loadGraph("cholesky", 4, "")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 20 {
		t.Fatalf("tasks = %d", g.NumTasks())
	}
	if _, err := loadGraph("nope", 4, ""); err == nil {
		t.Fatal("bad kind accepted")
	}
	// Round-trip through a JSON file.
	path := filepath.Join(t.TempDir(), "g.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dag.WriteJSON(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := loadGraph("ignored", 0, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTasks() != g.NumTasks() {
		t.Fatalf("file graph tasks = %d", got.NumTasks())
	}
	if _, err := loadGraph("", 0, "/does/not/exist.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// The failure model built from the flags: -lambda wins when positive,
// otherwise -pfail is calibrated on the mean weight — and -pfail 0 is
// λ = 0, not the JSON requests' default pfail.
func TestBuildModel(t *testing.T) {
	g, _ := loadGraph("lu", 4, "")
	model := func(pfail, lambda float64) (failure.Model, error) {
		o := options{q: query.Estimate{PFail: pfail, Lambda: lambda}}
		return o.q.Model(g)
	}
	m, err := model(0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Lambda <= 0 {
		t.Fatalf("λ = %v", m.Lambda)
	}
	m2, err := model(0.01, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Lambda != 0.5 {
		t.Fatalf("explicit λ ignored: %v", m2.Lambda)
	}
	if m0, err := model(0, 0); err != nil || m0.Lambda != 0 {
		t.Fatalf("-pfail 0: λ = %v, err = %v; want λ = 0", m0.Lambda, err)
	}
	if _, err := model(1.5, 0); err == nil {
		t.Fatal("bad pfail accepted")
	}
}

// A negative or NaN -lambda is rejected like POST /v1/estimate rejects
// it, instead of silently falling back to -pfail.
func TestRunRejectsBadLambda(t *testing.T) {
	for _, lambda := range []float64{-1, math.NaN(), math.Inf(1)} {
		o := options{kind: "lu", k: 4, format: "json", q: query.Estimate{PFail: 0.001, Methods: "paper", Lambda: lambda}}
		err := run(context.Background(), o)
		if err == nil || !strings.Contains(err.Error(), "bad lambda") {
			t.Errorf("-lambda %v: err = %v, want the bad lambda rejection", lambda, err)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	base := options{kind: "cholesky", k: 3, seed: 1, format: "text", q: query.Estimate{PFail: 0.01, Methods: "paper"}}
	// Full CLI path with a tiny workload and no Monte Carlo.
	o := base
	o.q.Bounds = true
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	o = base
	o.q.Trials, o.q.Methods = 500, "all"
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	o = base
	o.q.Methods = "First Order,Sculli"
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	o = base
	o.q.Methods = "bogus"
	if err := run(context.Background(), o); err == nil {
		t.Fatal("bogus method accepted")
	}
	o = base
	o.format = "yaml"
	if err := run(context.Background(), o); err == nil {
		t.Fatal("bad format accepted")
	}
	o = base
	o.format, o.q.Trials, o.quantiles = "json", 500, "0.5,0.95"
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	o = base
	o.quantiles = "0.5"
	if err := run(context.Background(), o); err == nil {
		t.Fatal("quantiles without trials accepted")
	}
	o = base
	o.q.Trials, o.quantiles = 500, "1.5"
	if err := run(context.Background(), o); err == nil {
		t.Fatal("out-of-range quantile accepted")
	}
}

func TestParseQuantiles(t *testing.T) {
	// The shared parser lives in internal/report; this pins the CLI's
	// contract through it.
	qs, err := report.ParseQuantiles("0.5, 0.95")
	if err != nil || len(qs) != 2 || qs[0] != 0.5 || qs[1] != 0.95 {
		t.Fatalf("qs = %v err = %v", qs, err)
	}
	if qs, err := report.ParseQuantiles(""); err != nil || qs != nil {
		t.Fatalf("empty: %v %v", qs, err)
	}
	if _, err := report.ParseQuantiles("abc"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := report.ParseQuantiles("1.5"); err == nil {
		t.Fatal("out-of-range quantile accepted")
	}
}
