package service

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/linalg"
)

func TestExtractSelectorIgnoresRequestKnobs(t *testing.T) {
	// Two requests that differ only in estimation parameters must
	// extract the same selector — that is the whole point of routing by
	// graph, not by request.
	a, err := ExtractSelector([]byte(`{"kind":"lu","k":6,"pfail":0.01,"trials":20000,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExtractSelector([]byte(`{"kind":"lu","k":6,"methods":"dodin","pfail":0.2}`))
	if err != nil {
		t.Fatal(err)
	}
	ka, err := a.RoutingKey()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.RoutingKey()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("same graph routed differently: %q vs %q", ka, kb)
	}
	if !strings.HasPrefix(ka, "graph/sha256:") {
		t.Fatalf("key %q does not look like a graph artifact key", ka)
	}
}

func TestExtractSelectorRejectsNonJSON(t *testing.T) {
	if _, err := ExtractSelector([]byte("not json")); err == nil {
		t.Fatal("want error for non-JSON body")
	}
}

func TestRoutingKeyGraphID(t *testing.T) {
	sel := RoutingSelector{GraphID: "sha256:abc"}
	key, err := sel.RoutingKey()
	if err != nil {
		t.Fatal(err)
	}
	if key != "graph/sha256:abc" {
		t.Fatalf("key = %q", key)
	}
}

func TestRoutingKeyMatchesRegistry(t *testing.T) {
	// The routing key computed from a generator spec and from the
	// equivalent inline graph must both equal the artifact key of the
	// entry the daemon registers: same canonical form, same hash. This
	// pins the lb's shard choice to the replica's cache key.
	g, err := linalg.Generate(linalg.FactLU, 4, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(0)
	e, _, err := reg.Add(g, GraphMeta{Kind: "lu", K: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := "graph/" + e.ID

	genKey, err := RoutingSelector{Kind: "lu", K: 4}.RoutingKey()
	if err != nil {
		t.Fatal(err)
	}
	if genKey != want {
		t.Fatalf("generator spec key %q, registry key %q", genKey, want)
	}

	inline, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	inlineKey, err := RoutingSelector{Graph: inline}.RoutingKey()
	if err != nil {
		t.Fatal(err)
	}
	if inlineKey != want {
		t.Fatalf("inline graph key %q, registry key %q", inlineKey, want)
	}

	// A cosmetically different but semantically identical inline body
	// (field order, whitespace) canonicalizes to the same key.
	var loose map[string]any
	if err := json.Unmarshal(inline, &loose); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.MarshalIndent(loose, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	reKey, err := RoutingSelector{Graph: reordered}.RoutingKey()
	if err != nil {
		t.Fatal(err)
	}
	if reKey != want {
		t.Fatalf("reordered inline graph key %q, registry key %q", reKey, want)
	}
}

func TestRoutingKeyPriorityIsDeterministic(t *testing.T) {
	// Over-set selectors are the replica's 400 to give; the router only
	// promises a deterministic choice (graph_id wins).
	sel := RoutingSelector{GraphID: "sha256:abc", Kind: "lu", K: 4}
	key, err := sel.RoutingKey()
	if err != nil {
		t.Fatal(err)
	}
	if key != "graph/sha256:abc" {
		t.Fatalf("key = %q, want graph_id to win", key)
	}
}

func TestRoutingKeyErrors(t *testing.T) {
	cases := []struct {
		name string
		sel  RoutingSelector
	}{
		{"empty", RoutingSelector{}},
		{"bad k", RoutingSelector{Kind: "lu", K: 0}},
		{"k over cap", RoutingSelector{Kind: "lu", K: MaxGeneratorK + 1}},
		{"bad kind", RoutingSelector{Kind: "nope", K: 4}},
		{"bad inline", RoutingSelector{Graph: json.RawMessage(`{"tasks": 7}`)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.sel.RoutingKey(); err == nil {
				t.Fatalf("want error for %+v", tc.sel)
			}
		})
	}
}

func TestDefaultSweepSelector(t *testing.T) {
	sel := DefaultSweepSelector()
	if sel.IsZero() {
		t.Fatal("default sweep selector is zero")
	}
	key, err := sel.RoutingKey()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := (RoutingSelector{Kind: "lu", K: 10}).RoutingKey()
	if err != nil {
		t.Fatal(err)
	}
	if key != explicit {
		t.Fatalf("default sweep key %q != lu k=10 key %q", key, explicit)
	}
}
