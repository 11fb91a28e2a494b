package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// normalizeTimes zeroes the wall-clock fields of a response body so
// byte-level comparisons only see deterministic content.
var timeFields = regexp.MustCompile(`"(mc_time_seconds|time_seconds|uptime_seconds)": [-+0-9.eE]+`)

func normalizeTimes(body string) string {
	return timeFields.ReplaceAllString(body, `"${1}": 0`)
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(Config{Workers: 2}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestSubmitAndGetGraph(t *testing.T) {
	ts := newTestServer(t)
	code, body := post(t, ts, "/v1/graphs", `{"kind":"lu","k":6}`)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, body)
	}
	var sub struct {
		ID      string  `json:"id"`
		Created bool    `json:"created"`
		Tasks   int     `json:"tasks"`
		D0      float64 `json:"failure_free_makespan"`
	}
	if err := json.Unmarshal([]byte(body), &sub); err != nil {
		t.Fatal(err)
	}
	if !sub.Created || !strings.HasPrefix(sub.ID, "sha256:") || sub.Tasks != 91 || sub.D0 <= 0 {
		t.Fatalf("submit response: %+v", sub)
	}
	// Resubmission dedups.
	code, body = post(t, ts, "/v1/graphs", `{"kind":"lu","k":6}`)
	if code != http.StatusOK || !strings.Contains(body, `"created": false`) {
		t.Fatalf("resubmit: %d %s", code, body)
	}
	// Lookup includes cache info.
	code, body = get(t, ts, "/v1/graphs/"+sub.ID)
	if code != http.StatusOK || !strings.Contains(body, `"cache"`) {
		t.Fatalf("get: %d %s", code, body)
	}
	if code, _ := get(t, ts, "/v1/graphs/sha256:nope"); code != http.StatusNotFound {
		t.Fatalf("bogus id: %d", code)
	}
}

func TestSubmitGraphValidation(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},
		{`{"kind":"nope","k":4}`, http.StatusBadRequest},
		{`{"kind":"lu"}`, http.StatusBadRequest},                  // k missing
		{`{}`, http.StatusBadRequest},                             // nothing set
		{`{"kind":"lu","k":4,"graph":{}}`, http.StatusBadRequest}, // both set
		{`{"graph_id":"sha256:x"}`, http.StatusBadRequest},        // id on submit
		{`{"bogus_field":1}`, http.StatusBadRequest},
		{`{"graph":{"tasks":[{"name":"a","weight":1}],"edges":[[0,5]]}}`, http.StatusBadRequest}, // bad edge
		// The body is exactly one JSON value: data after it is refused.
		{`{"kind":"lu","k":4} x`, http.StatusBadRequest},
		// A generator k over MaxGeneratorK is refused before generating.
		{`{"kind":"lu","k":65}`, http.StatusBadRequest},
		// A cycle passes unmarshal and is first caught by Freeze inside
		// the registry — still the client's fault, still a 400.
		{`{"graph":{"tasks":[{"name":"a","weight":1},{"name":"b","weight":1}],"edges":[[0,1],[1,0]]}}`, http.StatusBadRequest},
		// A body over MaxBodyBytes is refused before it is decoded.
		{`{"graph":{"tasks":[],"pad":"` + strings.Repeat("x", MaxBodyBytes) + `"}}`, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		if code, body := post(t, ts, "/v1/graphs", c.body); code != c.want {
			t.Errorf("%.200s -> %d (%s), want %d", c.body, code, body, c.want)
		}
	}
	// A valid inline graph is accepted and estimable.
	code, body := post(t, ts, "/v1/graphs", `{"graph":{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2}],"edges":[[0,1]]}}`)
	if code != http.StatusCreated {
		t.Fatalf("inline graph: %d %s", code, body)
	}
}

func TestReadBodySizedFromContentLength(t *testing.T) {
	body := strings.Repeat("x", 100_000)
	for _, known := range []bool{true, false} {
		req := httptest.NewRequest(http.MethodPost, "/v1/graphs", strings.NewReader(body))
		if !known {
			req.ContentLength = -1
		}
		got, err := ReadBody(httptest.NewRecorder(), req)
		if err != nil || string(got) != body {
			t.Fatalf("known length %v: read %d bytes, %v", known, len(got), err)
		}
		// One buffer of the announced size: no regrowth on the way.
		if known && cap(got) != len(body)+bytes.MinRead {
			t.Fatalf("buffer capacity %d for a %d-byte body", cap(got), len(body))
		}
	}
}

func TestEstimateHandler(t *testing.T) {
	ts := newTestServer(t)
	req := `{"kind":"lu","k":6,"pfail":0.001,"methods":"paper","trials":2000,"seed":7,"bounds":true,"quantiles":[0.5,0.95]}`
	code, body := post(t, ts, "/v1/estimate", req)
	if code != http.StatusOK {
		t.Fatalf("estimate: %d %s", code, body)
	}
	var doc struct {
		Graph struct {
			Tasks int `json:"tasks"`
		} `json:"graph"`
		Bracket *struct{ Lower, Upper float64 } `json:"bracket"`
		Methods []struct {
			Method   string  `json:"method"`
			Estimate float64 `json:"estimate"`
		} `json:"methods"`
		MonteCarlo *struct {
			Mean      float64                      `json:"mean"`
			Trials    int                          `json:"trials"`
			Quantiles []struct{ Q, Value float64 } `json:"quantiles"`
		} `json:"monte_carlo"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Graph.Tasks != 91 || doc.Bracket == nil || len(doc.Methods) != 3 ||
		doc.MonteCarlo == nil || doc.MonteCarlo.Trials != 2000 || len(doc.MonteCarlo.Quantiles) != 2 {
		t.Fatalf("estimate shape: %s", body)
	}
	if doc.Methods[0].Method != "Dodin" {
		t.Fatalf("method order: %s", body)
	}

	// Warm repeat: byte-identical after time normalization.
	_, warm := post(t, ts, "/v1/estimate", req)
	if normalizeTimes(warm) != normalizeTimes(body) {
		t.Fatal("warm response differs from cold")
	}

	// By graph_id.
	_, sub := post(t, ts, "/v1/graphs", `{"kind":"lu","k":6}`)
	var s struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(sub), &s); err != nil {
		t.Fatal(err)
	}
	_, byID := post(t, ts, "/v1/estimate",
		fmt.Sprintf(`{"graph_id":%q,"pfail":0.001,"methods":"paper","trials":2000,"seed":7,"bounds":true,"quantiles":[0.5,0.95]}`, s.ID))
	if normalizeTimes(byID) != normalizeTimes(body) {
		t.Fatal("graph_id estimate differs from generator estimate")
	}
}

func TestEstimateValidation(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`{"kind":"lu","k":6,"pfail":2}`, http.StatusBadRequest},
		{`{"kind":"lu","k":6,"methods":"bogus"}`, http.StatusBadRequest},
		{`{"kind":"lu","k":6,"trials":-5}`, http.StatusBadRequest},
		{`{"kind":"lu","k":6,"quantiles":[0.5]}`, http.StatusBadRequest},              // no trials
		{`{"kind":"lu","k":6,"trials":100,"quantiles":[1.5]}`, http.StatusBadRequest}, // bad q
		{`{"graph_id":"sha256:gone","trials":100}`, http.StatusNotFound},
	}
	for _, c := range cases {
		if code, body := post(t, ts, "/v1/estimate", c.body); code != c.want {
			t.Errorf("%s -> %d (%s), want %d", c.body, code, body, c.want)
		}
	}
	// MC-less estimate is fine.
	if code, body := post(t, ts, "/v1/estimate", `{"kind":"lu","k":6}`); code != http.StatusOK ||
		strings.Contains(body, "monte_carlo") {
		t.Fatalf("MC-less estimate: %d %s", code, body)
	}
}

func TestSweepHandler(t *testing.T) {
	ts := newTestServer(t)
	code, body := post(t, ts, "/v1/sweep", `{"kind":"lu","k":6,"pfails":[0.1,0.01],"trials":1000,"seed":3}`)
	if code != http.StatusOK {
		t.Fatalf("sweep: %d %s", code, body)
	}
	var doc struct {
		Factorization string `json:"factorization"`
		K             int    `json:"k"`
		Points        []struct {
			PFail   float64                    `json:"pfail"`
			Methods map[string]json.RawMessage `json:"methods"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Factorization != "lu" || doc.K != 6 || len(doc.Points) != 2 || len(doc.Points[0].Methods) != 3 {
		t.Fatalf("sweep shape: %s", body)
	}
	// Warm repeat: identical modulo times.
	_, warm := post(t, ts, "/v1/sweep", `{"kind":"lu","k":6,"pfails":[0.1,0.01],"trials":1000,"seed":3}`)
	if normalizeTimes(warm) != normalizeTimes(body) {
		t.Fatal("warm sweep differs from cold")
	}
	if code, _ := post(t, ts, "/v1/sweep", `{"kind":"lu","k":6,"pfails":[2],"trials":100}`); code != http.StatusBadRequest {
		t.Fatalf("bad pfail: %d", code)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	code, body := get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var h struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 2 {
		t.Fatalf("healthz body: %s", body)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t)
	if code, _ := get(t, ts, "/v1/estimate"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/estimate: %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: %d", resp.StatusCode)
	}
}

// Concurrent clients hammering the same and different requests must each
// read exactly the response a lone client would: warm state is shared
// read-only, compute is gated, and every engine is worker-count
// invariant.
func TestConcurrentClientsDeterministic(t *testing.T) {
	ts := newTestServer(t)
	reqs := []string{
		`{"kind":"lu","k":6,"pfail":0.001,"methods":"paper","trials":2000,"seed":7,"quantiles":[0.5]}`,
		`{"kind":"lu","k":6,"pfail":0.01,"methods":"all","trials":1000,"seed":3,"bounds":true}`,
		`{"kind":"cholesky","k":5,"pfail":0.01,"methods":"paper","trials":1000,"seed":9}`,
	}
	// Reference responses, computed serially.
	want := make([]string, len(reqs))
	for i, r := range reqs {
		code, body := post(t, ts, "/v1/estimate", r)
		if code != http.StatusOK {
			t.Fatalf("ref %d: %d %s", i, code, body)
		}
		want[i] = normalizeTimes(body)
	}
	const perReq = 6
	var wg sync.WaitGroup
	errs := make(chan string, len(reqs)*perReq)
	for i, r := range reqs {
		for j := 0; j < perReq; j++ {
			wg.Add(1)
			go func(i int, r string) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(r))
				if err != nil {
					errs <- fmt.Sprintf("req %d: %v", i, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Sprintf("req %d: %v", i, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("req %d: status %d", i, resp.StatusCode)
					return
				}
				if normalizeTimes(string(body)) != want[i] {
					errs <- fmt.Sprintf("req %d: concurrent response diverged", i)
				}
			}(i, r)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
