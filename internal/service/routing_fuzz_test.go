package service

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/dag"
	"repro/internal/linalg"
)

// Graph ids are content addresses clients store and send back, so the
// canonical encoding behind them must never drift. These were computed
// by the encoding/json codec the hand-written one replaced.
var generatorIDGoldens = []struct {
	kind string
	k    int
	id   string
}{
	{"lu", 4, "sha256:a09ccb4d398e265ba05386d9d71de1165f394c923620931bf4d849a496355c56"},
	{"lu", 10, "sha256:3f070c3911d901c5c99d7f58885bf4c222599b1b84595b3fac6e2746315e1396"},
	{"qr", 4, "sha256:bc99720b87f68a927f9871119cf8f73a1610a9b1b6530f0d4a0a5f7b18a74514"},
	{"qr", 10, "sha256:b3745853caf3d2fc3dd6a33ef5e7af1e7a4fb0d23da3b6d7467fb80c0f4a9d67"},
	{"cholesky", 4, "sha256:15d9b010576ecffb31bd50322f238f2ea9b682b6e763b245ce77daa0fd8d2893"},
	{"cholesky", 10, "sha256:9d715fc5646864447ea566c2bb9ceac0a1a403b18db79afba2b369161e17d268"},
}

var inlineIDGoldens = []struct {
	name, graph, id string
}{
	{"plain", `{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2.5}],"edges":[[0,1]]}`,
		"sha256:d145c76840fcf8be65452e048b41a4173118f7a7fa2a21e4d27bcaaf4374cfe1"},
	{"quirks", `{"Tasks":[{"NAME":"x<y>&z\u2028","weight":1e-7},{"name":"\ud800","weight":1e21},{"name":"é\t","weight":-0}],"edges":[[0,1],[0,2]],"extra":true}`,
		"sha256:60567eda0030b1e5b8cd92732c5c8d45c4edc28d8b890a4c416c9bbe31ac60ae"},
	{"edgeless", `{"tasks":[{"name":"solo","weight":3}]}`,
		"sha256:84f9e2f47c7c8f18b736ac360c223b26062227fb92138346a0272de1f4a0ba5c"},
}

const layeredIDGolden = "sha256:d81d56ec7088eaa6175939116a7cf589ab67edd095cbc2ea8cbd6016e16c2009"

func TestGraphIDGoldens(t *testing.T) {
	reg := NewRegistry(0)
	for _, gc := range generatorIDGoldens {
		g, err := linalg.Generate(linalg.Factorization(gc.kind), gc.k, linalg.KernelTimes{})
		if err != nil {
			t.Fatal(err)
		}
		e, _, err := reg.Add(g, GraphMeta{Kind: gc.kind, K: gc.k})
		if err != nil {
			t.Fatal(err)
		}
		key, err := RoutingSelector{Kind: gc.kind, K: gc.k}.RoutingKey()
		if err != nil {
			t.Fatal(err)
		}
		if e.ID != gc.id || key != "graph/"+gc.id {
			t.Errorf("%s k=%d: registry id %s, routing key %s, want %s", gc.kind, gc.k, e.ID, key, gc.id)
		}
	}
	for _, ic := range inlineIDGoldens {
		g, err := dag.DecodeJSON([]byte(ic.graph))
		if err != nil {
			t.Fatal(err)
		}
		e, _, err := reg.Add(g, GraphMeta{Kind: "custom"})
		if err != nil {
			t.Fatal(err)
		}
		key, err := RoutingSelector{Graph: json.RawMessage(ic.graph)}.RoutingKey()
		if err != nil {
			t.Fatal(err)
		}
		if e.ID != ic.id || key != "graph/"+ic.id {
			t.Errorf("%s: registry id %s, routing key %s, want %s", ic.name, e.ID, key, ic.id)
		}
	}
	g, err := dag.LayeredRandom(dag.RandomConfig{Tasks: 30, EdgeProb: 0.3, MaxLayerWidth: 5}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if id := artifact.GraphID(g.AppendJSON(nil)); id != layeredIDGolden {
		t.Errorf("layered random graph id %s, want %s", id, layeredIDGolden)
	}
}

// FuzzRoutingKey pins the cluster's shard invariant: whenever the
// replica accepts an inline graph (POST /v1/graphs, which registers it
// through Registry.AddContext), the router reads the same body, and its
// RoutingKey succeeds and names that entry's store key, so the lb
// sends every request for the graph to the replica caching it.
func FuzzRoutingKey(f *testing.F) {
	for _, ic := range inlineIDGoldens {
		f.Add([]byte(ic.graph))
	}
	lu, err := linalg.Generate(linalg.FactLU, 3, linalg.KernelTimes{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(lu.AppendJSON(nil))
	for _, seed := range []string{
		`null`, `{}`, `[]`, `{"tasks":[{"name":"a","weight":1}],"edges":[[0,5]]}`,
		`{"tasks":[{"name":"a","weight":1},{"name":"b","weight":1}],"edges":[[0,1],[1,0]]}`,
		`{"tasks":[{"name":"a","weight":1},{"name":"b","weight":1}],"tasks":[null,{"weight":4}],"edges":[[1]]}`,
	} {
		f.Add([]byte(seed))
	}
	h := New(Config{Workers: 1, CacheBytes: 16 << 20}).Handler()
	f.Fuzz(func(t *testing.T, graph []byte) {
		body := `{"graph":` + string(graph) + `}`
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs", strings.NewReader(body)))
		if rec.Code/100 != 2 {
			return
		}
		var sub struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
			t.Fatal(err)
		}
		sel, err := ExtractSelector([]byte(body))
		if err != nil {
			t.Fatalf("replica accepted %s but the router cannot read it: %v", body, err)
		}
		key, err := sel.RoutingKey()
		if err != nil {
			t.Fatalf("replica accepted %s but the router has no key: %v", body, err)
		}
		if want := string(artifact.GraphKey(sub.ID)); key != want {
			t.Fatalf("routing key %s, replica store key %s for %s", key, want, body)
		}
	})
}
