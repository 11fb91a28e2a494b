package service

// Routing-key extraction for makespan-lb. The lb shards /v1/* traffic
// across replicas by the canonical graph artifact key so that every
// artifact derived from one graph (plans, estimators, schedules,
// snapshots) lands in one replica's LRU budget. The extraction decodes
// only the graph-selecting fields of a request body — never methods,
// trials or any other request knob — so the lb stays ignorant of the
// estimation API's shape and two requests that differ only in their
// parameters still route to the same replica.

import (
	"encoding/json"
	"fmt"

	"repro/internal/artifact"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/linalg"
)

// RoutingSelector is the graph-selecting subset shared by every /v1
// request body (graphRef, without the service's resolution machinery).
// The zero value means "no selector": the sweep route treats that as
// the default sweep spec, everything else rejects it server-side.
type RoutingSelector struct {
	GraphID string          `json:"graph_id,omitempty"`
	Kind    string          `json:"kind,omitempty"`
	K       int             `json:"k,omitempty"`
	Graph   json.RawMessage `json:"graph,omitempty"`
}

// ExtractSelector pulls the graph selector out of a /v1 request body
// without decoding the rest of it. Bodies that are not JSON objects
// fail here exactly as they would fail the replica's decoder; unknown
// fields are ignored (the replica, not the router, owns strictness).
func ExtractSelector(body []byte) (RoutingSelector, error) {
	var sel RoutingSelector
	if err := json.Unmarshal(body, &sel); err != nil {
		return RoutingSelector{}, fmt.Errorf("routing: bad request body: %w", err)
	}
	return sel, nil
}

// IsZero reports whether no selector field is set.
func (sel RoutingSelector) IsZero() bool {
	return sel.GraphID == "" && sel.Kind == "" && len(sel.Graph) == 0
}

// DefaultSweepSelector is the selector the sweep route assumes when a
// request names no graph: the default sweep spec's generator. Routing
// with it keeps selector-less sweeps on the same replica that owns the
// default workload's artifacts.
func DefaultSweepSelector() RoutingSelector {
	def := experiments.DefaultSweep()
	return RoutingSelector{Kind: string(def.Fact), K: def.K}
}

// RoutingKey computes the graph artifact key ("graph/sha256:…") the
// replica will cache this request's artifacts under — the cluster
// shard key. graph_id wins over kind over inline graph when several
// are set (the replica 400s such bodies anyway; the priority only
// keeps routing deterministic). Generator specs pay one generate +
// encode + hash; callers that route hot paths should memoize by
// (kind, k) — the named workloads are deterministic, so the key never
// changes. Inline graphs go through the replica's own code path:
// dag.DecodeJSON, then the canonical bytes of dag.AppendJSON, hashed.
func (sel RoutingSelector) RoutingKey() (string, error) {
	switch {
	case sel.GraphID != "":
		return string(artifact.GraphKey(sel.GraphID)), nil
	case sel.Kind != "":
		if sel.K <= 0 {
			return "", fmt.Errorf("routing: generator %q needs k >= 1, got %d", sel.Kind, sel.K)
		}
		g, err := linalg.Generate(linalg.Factorization(sel.Kind), sel.K, linalg.KernelTimes{})
		if err != nil {
			return "", fmt.Errorf("routing: %w", err)
		}
		return graphKeyOf(g), nil
	case len(sel.Graph) > 0:
		g, err := dag.DecodeJSON(sel.Graph)
		if err != nil {
			return "", fmt.Errorf("routing: bad graph: %w", err)
		}
		return graphKeyOf(g), nil
	default:
		return "", fmt.Errorf("routing: no graph selector in request")
	}
}

// graphKeyOf returns the store key the artifact store files g under.
func graphKeyOf(g *dag.Graph) string {
	return string(artifact.GraphKey(artifact.GraphID(g.AppendJSON(nil))))
}
