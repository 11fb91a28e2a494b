package main

import (
	"context"
	"io"
	"math"
	"testing"

	"repro/internal/query"
)

func baseOptions() options {
	return options{
		kind: "lu", k: 4, seed: 1, format: "text",
		q: query.Schedule{Procs: 2, PFail: 0.01, Trials: 50, Policies: "both"},
	}
}

func TestRunEndToEnd(t *testing.T) {
	o := baseOptions()
	o.gantt = true
	if err := run(context.Background(), o, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunJSONAndQuantiles(t *testing.T) {
	o := baseOptions()
	o.format = "json"
	o.quantiles = "0.5, 0.99" // spaces are tolerated, like every list flag
	if err := run(context.Background(), o, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunOverheads(t *testing.T) {
	o := baseOptions()
	o.verifyFrac = 0.1
	o.verifyFixed = 0.01
	o.replication = "serial"
	if err := run(context.Background(), o, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// Every nonsensical flag is a configuration error caught before any
// graph work (the PR 5 bugfix: -procs 0, negative -trials and unknown
// -kind used to fall through or be silently clamped).
func TestRunRejectsBadInputs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*options)
	}{
		{"unknown kind", func(o *options) { o.kind = "bogus" }},
		{"zero k", func(o *options) { o.k = 0 }},
		{"zero procs", func(o *options) { o.q.Procs = 0 }},
		{"negative procs", func(o *options) { o.q.Procs = -3 }},
		{"negative trials", func(o *options) { o.q.Trials = -1 }},
		{"negative workers", func(o *options) { o.workers = -2 }},
		{"pfail one", func(o *options) { o.q.PFail = 1 }},
		{"pfail oversized", func(o *options) { o.q.PFail = 1.5 }},
		{"negative pfail", func(o *options) { o.q.PFail = -0.1 }},
		{"unknown policy", func(o *options) { o.q.Policies = "heft" }},
		{"unknown format", func(o *options) { o.format = "xml" }},
		{"bad quantile", func(o *options) { o.quantiles = "1.5" }},
		{"negative lambda", func(o *options) { o.q.Lambda = -0.05 }},
		{"gantt with json", func(o *options) { o.gantt = true; o.format = "json" }},
		{"NaN lambda", func(o *options) { o.q.Lambda = math.NaN() }},
		{"negative verify fraction", func(o *options) { o.verifyFrac = -0.5 }},
		{"unknown replication", func(o *options) { o.replication = "triple" }},
	}
	for _, tc := range cases {
		o := baseOptions()
		tc.mutate(&o)
		if err := run(context.Background(), o, io.Discard); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
