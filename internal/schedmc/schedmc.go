// Package schedmc estimates the expected makespan of a *scheduled* task
// graph on a bounded number of processors under silent errors — the
// extension the source paper's conclusion proposes, built on the same
// frozen-CSR + fused-Monte-Carlo machinery that serves the
// unbounded-processor estimators.
//
// The key reduction: once a list schedule fixes (a) the assignment of
// tasks to processors and (b) the execution order on each processor, the
// makespan under stochastic task durations is the longest path through
// the *schedule DAG* — the original precedence edges plus one chain edge
// between consecutive tasks on each processor. Freeze compiles that DAG
// into a dag.Frozen, and Estimator runs the montecarlo engine over it
// unchanged: chunked SplitMix64 streams (results bit-identical for any
// worker count), inverted-geometric attempt sampling per task through
// failure.Model, bit-level threshold tables, lane-blocked batch
// evaluation and QuantileSketch output all come along for free.
//
// Semantics: the schedule is frozen from the failure-free execution, and
// failures inflate task durations in place (a task is re-executed on its
// own processor until it succeeds, as in the paper's verified-execution
// discipline). This differs from re-running the list scheduler inside
// every trial — the pre-PR5 cmd/schedsim loop, kept as a test oracle
// (dynamic_test.go) — which re-dispatches tasks dynamically as
// sampled durations shift readiness. The two models agree exactly when
// no failures occur and track each other closely at realistic failure
// probabilities (pinned by the statistical-equivalence test in
// equivalence_test.go); the frozen form is what real runtime systems
// execute once a schedule is committed, and it is what makes the fast
// path possible.
package schedmc

import (
	"fmt"
	"strings"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/sched"
)

// Policy selects how list-scheduling priorities are computed before the
// schedule is frozen.
type Policy string

// The two priority policies of the paper's proposed extension: classic
// deterministic critical-path priorities, and failure-aware priorities
// from the First Order expected bottom levels.
const (
	// PolicyCP is classic CP scheduling: priority a_i + bl(i), the
	// deterministic bottom level (sched.Priorities).
	PolicyCP Policy = "cp"
	// PolicyFirstOrder ranks tasks by their First Order expected bottom
	// levels, accounting for expected re-executions at rate λ
	// (sched.FailureAwarePriorities).
	PolicyFirstOrder Policy = "fo"
)

// Label returns the human-readable policy name used by schedsim's tables
// and the schedule report document.
func (p Policy) Label() string {
	switch p {
	case PolicyCP:
		return "CP (bottom level)"
	case PolicyFirstOrder:
		return "failure-aware (First Order)"
	}
	return string(p)
}

// Priorities computes the policy's task priorities on g. The failure
// model is only consulted by PolicyFirstOrder; PolicyCP is deterministic.
func (p Policy) Priorities(g *dag.Graph, model failure.Model) ([]float64, error) {
	switch p {
	case PolicyCP:
		return sched.Priorities(g)
	case PolicyFirstOrder:
		return sched.FailureAwarePriorities(g, model)
	}
	return nil, fmt.Errorf("schedmc: unknown policy %q (have %q, %q)", p, PolicyCP, PolicyFirstOrder)
}

// AllPolicies lists every implemented policy, in display order.
func AllPolicies() []Policy {
	return []Policy{PolicyCP, PolicyFirstOrder}
}

// ParsePolicies resolves a policy selector shared by schedsim's -policies
// flag and the service's "policies" request field: "both", "all" or the
// empty string select both policies; otherwise a comma-separated list of
// policy names. Unknown names are rejected up front.
func ParsePolicies(sel string) ([]Policy, error) {
	switch sel {
	case "both", "all", "":
		return AllPolicies(), nil
	}
	known := make(map[Policy]bool, len(AllPolicies()))
	for _, p := range AllPolicies() {
		known[p] = true
	}
	var out []Policy
	for _, s := range strings.Split(sel, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		p := Policy(s)
		if !known[p] {
			return nil, fmt.Errorf("schedmc: unknown policy %q (have cp, fo, both)", s)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("schedmc: empty policy list %q", sel)
	}
	return out, nil
}

// Overheads composes the optional resilience policies of internal/failure
// into the (graph, model) pair the scheduler and estimator actually see:
// verification cost is folded into task weights, replication into weights
// (serial) or the error rate (parallel). The zero value applies nothing.
type Overheads struct {
	// Verification adds the detector cost to every task
	// (failure.Verification.Apply); the zero value is free verification,
	// matching the paper's baseline.
	Verification failure.Verification
	// Replication, when non-nil, runs two copies of every task and
	// re-executes on any mismatch (failure.Replication.Transform).
	Replication *failure.Replication
}

// Apply returns the transformed (graph, model) pair. The input graph is
// never mutated; when no overhead applies, g itself is returned.
func (o Overheads) Apply(g *dag.Graph, m failure.Model) (*dag.Graph, failure.Model, error) {
	out := g
	if o.Verification != (failure.Verification{}) {
		var err error
		out, err = o.Verification.Apply(out)
		if err != nil {
			return nil, failure.Model{}, err
		}
	}
	if o.Replication != nil {
		return o.Replication.Transform(out, m)
	}
	return out, m, nil
}
