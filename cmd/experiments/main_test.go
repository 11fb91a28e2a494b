package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/linalg"
)

// The sweep flags get POST /v1/sweep's checks: a pfail outside (0,1) is
// rejected before any work instead of sweeping a degenerate point.
func TestSweepSpecRejectsPFailOutsideUnitInterval(t *testing.T) {
	for _, pfails := range []string{"0", "1", "0.1,-0.01", "NaN", "1.5"} {
		var opts experiments.Options
		_, err := sweepSpec("", 0, pfails, false, &opts)
		if err == nil || !strings.Contains(err.Error(), "outside (0,1)") {
			t.Errorf("-sweep-pfails %q: err = %v, want an outside (0,1) rejection", pfails, err)
		}
	}
}

// Empty flags select the default LU k=10 sweep and the paper's methods;
// explicit ones override each part.
func TestSweepSpecDefaultsAndOverrides(t *testing.T) {
	opts := experiments.Options{Trials: 500, Seed: 3}
	spec, err := sweepSpec("", 0, "", false, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, experiments.DefaultSweep()) || opts.Methods != nil || opts.Trials != 500 || opts.Seed != 3 {
		t.Fatalf("defaults: spec %+v, opts %+v", spec, opts)
	}
	spec, err = sweepSpec("qr", 6, "0.1, 0.01", true, &opts)
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.SweepSpec{Fact: linalg.FactQR, K: 6, PFails: []float64{0.1, 0.01}}
	if !reflect.DeepEqual(spec, want) || !reflect.DeepEqual(opts.Methods, experiments.AllMethods()) {
		t.Fatalf("overrides: spec %+v, methods %v", spec, opts.Methods)
	}
}
