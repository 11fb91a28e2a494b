package service

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dag"
)

// The cache-hit benchmarks pin the registry's reason to exist: a warm
// estimate request skips graph generation, freezing, Monte Carlo
// threshold-table construction and Dodin plan recording, so its
// per-request overhead must sit far below a cold request's. The bench
// canary (scripts/benchcheck) enforces warm ≥ 5× cheaper than cold on
// the estimate pair.
//
// The request keeps the response-relevant compute small (64 trials,
// First Order) on a graph big enough that construction dominates (LU
// k=16, pfail 0.02 — above the sampler's table-construction gate), so
// the measured request time is essentially the construction overhead
// the cache exists to remove.

const benchEstimateReq = `{"kind":"lu","k":16,"pfail":0.02,"methods":"First Order","trials":64,"seed":7}`

// benchDodinReq exercises the Dodin plan cache: cold records the
// reduction schedule, warm replays it.
const benchDodinReq = `{"kind":"lu","k":16,"pfail":0.02,"methods":"Dodin"}`

func doRequest(b *testing.B, h http.Handler, path, body string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
}

func BenchmarkServiceEstimateCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := New(Config{Workers: 1}).Handler() // fresh registry: every request cold
		doRequest(b, h, "/v1/estimate", benchEstimateReq)
	}
}

func BenchmarkServiceEstimateWarm(b *testing.B) {
	h := New(Config{Workers: 1}).Handler()
	doRequest(b, h, "/v1/estimate", benchEstimateReq) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doRequest(b, h, "/v1/estimate", benchEstimateReq)
	}
}

func BenchmarkServiceDodinCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := New(Config{Workers: 1}).Handler()
		doRequest(b, h, "/v1/estimate", benchDodinReq)
	}
}

func BenchmarkServiceDodinWarm(b *testing.B) {
	h := New(Config{Workers: 1}).Handler()
	doRequest(b, h, "/v1/estimate", benchDodinReq)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doRequest(b, h, "/v1/estimate", benchDodinReq)
	}
}

// BenchmarkServiceSweepWarm measures a fully warm sweep (frozen graph +
// recorded plan reused) — the service-side counterpart of
// BenchmarkSweepLU10.
func BenchmarkServiceSweepWarm(b *testing.B) {
	h := New(Config{Workers: 1}).Handler()
	body := `{"kind":"lu","k":10,"trials":2000,"seed":7}`
	doRequest(b, h, "/v1/sweep", body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doRequest(b, h, "/v1/sweep", body)
	}
}

// The request-decode benchmarks time one hop's work on an inline-graph
// body shaped like the inline-fleet benchmark workload's (a 300-task
// Erdős–Rényi DAG, about 75 KB, plus a few request knobs): decoding the
// body and computing the graph's canonical store key. Each has an
// Oracle twin running the encoding/json decoding the one-pass decoder
// replaced, on the same body.

func inlineRequestBody(b *testing.B) []byte {
	g, err := dag.ErdosRenyiDAG(dag.RandomConfig{Tasks: 300, MinWeight: 0.5, MaxWeight: 2, EdgeProb: 0.15},
		rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	body := `{"graph":` + string(g.AppendJSON(nil)) + `,"pfail":0.001,"methods":"First Order","trials":1000,"seed":12345}`
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	return []byte(body)
}

// benchKey keeps the measured key computations from being optimized away.
var benchKey string

// BenchmarkDecodeRequestInline is the replica hop: the estimate request
// decoded, then its graph's store key.
func BenchmarkDecodeRequestInline(b *testing.B) {
	body := inlineRequestBody(b)
	for i := 0; i < b.N; i++ {
		var req estimateRequest
		if err := decodeRequest(body, &req, true); err != nil {
			b.Fatal(err)
		}
		g, err := req.inline()
		if err != nil {
			b.Fatal(err)
		}
		benchKey = graphKeyOf(g)
	}
}

func BenchmarkDecodeRequestInlineOracle(b *testing.B) {
	body := inlineRequestBody(b)
	for i := 0; i < b.N; i++ {
		var req oracleEstimate
		if _, err := oracleDecodeRequest(body, &req); err != nil {
			b.Fatal(err)
		}
		g, err := dag.DecodeJSON(req.Graph)
		if err != nil {
			b.Fatal(err)
		}
		benchKey = graphKeyOf(g)
	}
}

// BenchmarkExtractSelectorInline is the lb hop: selector and routing key.
func BenchmarkExtractSelectorInline(b *testing.B) {
	body := inlineRequestBody(b)
	for i := 0; i < b.N; i++ {
		sel, err := ExtractSelector(body)
		if err != nil {
			b.Fatal(err)
		}
		key, err := sel.RoutingKey()
		if err != nil {
			b.Fatal(err)
		}
		benchKey = key
	}
}

func BenchmarkExtractSelectorInlineOracle(b *testing.B) {
	body := inlineRequestBody(b)
	for i := 0; i < b.N; i++ {
		sel, err := oracleExtractSelector(body)
		if err != nil {
			b.Fatal(err)
		}
		key, err := RoutingSelector{Graph: sel.Graph}.RoutingKey()
		if err != nil {
			b.Fatal(err)
		}
		benchKey = key
	}
}
