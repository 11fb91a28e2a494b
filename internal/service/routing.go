package service

// Request-body decoding shared by makespand and makespan-lb, and
// routing-key extraction for the lb. The lb shards /v1/* traffic
// across replicas by the canonical graph artifact key so that every
// artifact derived from one graph (plans, estimators, schedules,
// snapshots) lands in one replica's LRU budget. The extraction keeps
// only the graph-selecting fields of a request body — methods, trials
// and every other request knob are ignored — so the lb stays ignorant
// of the estimation API's shape and two requests that differ only in
// their parameters still route to the same replica.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/artifact"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/linalg"
)

// RoutingSelector is the graph-selecting subset shared by every /v1
// request body; the replica's request types embed it as graphRef. The
// zero value means "no selector": the sweep route treats that as the
// default sweep spec, everything else rejects it server-side.
type RoutingSelector struct {
	GraphID string `json:"graph_id,omitempty"`
	Kind    string `json:"kind,omitempty"`
	K       int    `json:"k,omitempty"`
	// Graph is an inline graph's JSON, for selectors built in code. A
	// request body's "graph" member never lands here: decodeRequest
	// decodes it in place into the fields below.
	Graph json.RawMessage `json:"-"`

	hasGraph bool       // the body has a "graph" member (null counts)
	graph    *dag.Graph // its last occurrence, decoded,
	graphErr error      // or why that is not a graph
}

// ExtractSelector pulls the graph selector out of a /v1 request body
// with the replica's own decoder, so the inline graph is parsed once
// and reused by RoutingKey. Bodies that are not exactly one JSON value
// fail here exactly as they fail at the replica; unknown fields are
// ignored (the replica, not the router, owns strictness).
func ExtractSelector(body []byte) (RoutingSelector, error) {
	var sel RoutingSelector
	if err := decodeRequest(body, &sel, false); err != nil {
		return RoutingSelector{}, fmt.Errorf("routing: bad request body: %w", err)
	}
	return sel, nil
}

// requestBody is a /v1 request type: a struct embedding RoutingSelector.
type requestBody interface{ setGraph(dag.Envelope) }

// decodeRequest decodes a /v1 request body into v in one pass: the
// "graph" member is decoded in place by dag.DecodeEnvelope, and only
// the small remainder goes to encoding/json, which gives every other
// field its usual meaning (and, when strict, rejects unknown ones).
func decodeRequest(body []byte, v requestBody, strict bool) error {
	env, err := dag.DecodeEnvelope(body, "graph")
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(env.Rest))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		return err
	}
	v.setGraph(env)
	return nil
}

func (sel *RoutingSelector) setGraph(env dag.Envelope) {
	sel.hasGraph, sel.graph, sel.graphErr = env.HasGraph, env.Graph, env.GraphErr
}

// hasInline reports whether an inline graph is given.
func (sel RoutingSelector) hasInline() bool {
	return sel.hasGraph || len(sel.Graph) > 0
}

// inline returns the inline graph, decoded.
func (sel RoutingSelector) inline() (*dag.Graph, error) {
	if sel.hasGraph {
		return sel.graph, sel.graphErr
	}
	return dag.DecodeJSON(sel.Graph)
}

// IsZero reports whether no selector field is set.
func (sel RoutingSelector) IsZero() bool {
	return sel.GraphID == "" && sel.Kind == "" && !sel.hasInline()
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
// changes. Inline graphs go through the replica's own code path: the
// graph decoded with the body, its canonical dag.AppendJSON bytes
// hashed.
func (sel RoutingSelector) RoutingKey() (string, error) {
	switch {
	case sel.GraphID != "":
		return string(artifact.GraphKey(sel.GraphID)), nil
	case sel.Kind != "":
		if err := checkGeneratorK(sel.Kind, sel.K); err != nil {
			return "", fmt.Errorf("routing: %w", err)
		}
		g, err := linalg.Generate(linalg.Factorization(sel.Kind), sel.K, linalg.KernelTimes{})
		if err != nil {
			return "", fmt.Errorf("routing: %w", err)
		}
		return graphKeyOf(g), nil
	case sel.hasInline():
		g, err := sel.inline()
		if err != nil {
			return "", fmt.Errorf("routing: bad graph: %w", err)
		}
		return graphKeyOf(g), nil
	default:
		return "", fmt.Errorf("routing: no graph selector in request")
	}
}

// MaxGeneratorK caps a generator spec's tile count. The graphs grow as
// k³ (LU k=64 has about 90,000 tasks), and both the lb and the replica
// build one synchronously, so a larger k is refused before any work.
const MaxGeneratorK = 64

// checkGeneratorK validates a generator spec's k.
func checkGeneratorK(kind string, k int) error {
	if k <= 0 {
		return fmt.Errorf("generator %q needs k >= 1, got %d", kind, k)
	}
	if k > MaxGeneratorK {
		return fmt.Errorf("generator %q k = %d exceeds the cap of %d", kind, k, MaxGeneratorK)
	}
	return nil
}

// graphKeyOf returns the store key the artifact store files g under.
func graphKeyOf(g *dag.Graph) string {
	return string(artifact.GraphKey(artifact.GraphID(g.AppendJSON(nil))))
}
