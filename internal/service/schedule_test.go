package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/linalg"
)

func TestScheduleHandler(t *testing.T) {
	ts := newTestServer(t)
	req := `{"kind":"lu","k":6,"procs":4,"pfail":0.01,"trials":2000,"seed":7,"quantiles":[0.5,0.99]}`
	code, body := post(t, ts, "/v1/schedule", req)
	if code != http.StatusOK {
		t.Fatalf("schedule: %d %s", code, body)
	}
	var doc struct {
		Procs        int     `json:"procs"`
		CriticalPath float64 `json:"critical_path"`
		Policies     []struct {
			Policy      string  `json:"policy"`
			FailureFree float64 `json:"failure_free_makespan"`
			Efficiency  float64 `json:"efficiency"`
			ChainEdges  int     `json:"chain_edges"`
			MonteCarlo  *struct {
				Mean      float64 `json:"mean"`
				Trials    int     `json:"trials"`
				Quantiles []struct {
					Q     float64 `json:"q"`
					Value float64 `json:"value"`
				} `json:"quantiles"`
			} `json:"monte_carlo"`
		} `json:"policies"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Procs != 4 || len(doc.Policies) != 2 {
		t.Fatalf("unexpected document: %s", body)
	}
	for _, p := range doc.Policies {
		if p.FailureFree < doc.CriticalPath {
			t.Errorf("%s: schedule %v below the critical path %v", p.Policy, p.FailureFree, doc.CriticalPath)
		}
		if p.Efficiency <= 0 || p.Efficiency > 1 || p.ChainEdges <= 0 {
			t.Errorf("%s: implausible schedule: %+v", p.Policy, p)
		}
		if p.MonteCarlo == nil || p.MonteCarlo.Trials != 2000 || p.MonteCarlo.Mean < p.FailureFree {
			t.Errorf("%s: implausible Monte Carlo: %+v", p.Policy, p.MonteCarlo)
		}
		if len(p.MonteCarlo.Quantiles) != 2 {
			t.Errorf("%s: want 2 quantiles, got %+v", p.Policy, p.MonteCarlo.Quantiles)
		}
	}

	// Warm repeat: byte-identical, served from the cached frozen schedule.
	code, warm := post(t, ts, "/v1/schedule", req)
	if code != http.StatusOK {
		t.Fatalf("warm schedule: %d", code)
	}
	if normalizeTimes(warm) != normalizeTimes(body) {
		t.Error("warm schedule response differs from cold")
	}

	// The registry now holds schedule artifacts for this graph: both
	// policies at one (procs, λ) key each.
	code, sub := post(t, ts, "/v1/graphs", `{"kind":"lu","k":6}`)
	if code != http.StatusOK {
		t.Fatalf("graph lookup: %d %s", code, sub)
	}
	var subDoc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(sub), &subDoc); err != nil {
		t.Fatal(err)
	}
	code, info := get(t, ts, "/v1/graphs/"+subDoc.ID)
	if code != http.StatusOK {
		t.Fatalf("graph get: %d", code)
	}
	var infoDoc struct {
		Cache struct {
			Schedules int `json:"schedules"`
		} `json:"cache"`
	}
	if err := json.Unmarshal([]byte(info), &infoDoc); err != nil {
		t.Fatal(err)
	}
	if infoDoc.Cache.Schedules != 2 {
		t.Fatalf("want 2 cached schedule artifacts, got %d (%s)", infoDoc.Cache.Schedules, info)
	}

	// A different processor count is a different artifact.
	if code, _ := post(t, ts, "/v1/schedule", `{"kind":"lu","k":6,"procs":8,"pfail":0.01,"trials":100,"policies":"cp"}`); code != http.StatusOK {
		t.Fatalf("procs=8 schedule: %d", code)
	}
	_, info = get(t, ts, "/v1/graphs/"+subDoc.ID)
	if err := json.Unmarshal([]byte(info), &infoDoc); err != nil {
		t.Fatal(err)
	}
	if infoDoc.Cache.Schedules != 3 {
		t.Fatalf("want 3 cached schedule artifacts after procs=8, got %d", infoDoc.Cache.Schedules)
	}
}

// Trials 0 returns the committed schedules without Monte Carlo — the
// service convention (an omitted field must not buy a six-figure run).
func TestScheduleWithoutTrials(t *testing.T) {
	ts := newTestServer(t)
	code, body := post(t, ts, "/v1/schedule", `{"kind":"cholesky","k":5,"procs":2}`)
	if code != http.StatusOK {
		t.Fatalf("schedule: %d %s", code, body)
	}
	if strings.Contains(body, `"monte_carlo"`) {
		t.Fatalf("trials=0 must omit monte_carlo: %s", body)
	}
	if !strings.Contains(body, `"failure_free_makespan"`) {
		t.Fatalf("schedule info missing: %s", body)
	}
}

func TestScheduleValidation(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`{"kind":"lu","k":6}`, http.StatusBadRequest},                                         // procs missing
		{`{"kind":"lu","k":6,"procs":0}`, http.StatusBadRequest},                               // procs 0
		{`{"kind":"lu","k":6,"procs":-2}`, http.StatusBadRequest},                              // negative procs
		{`{"kind":"lu","k":6,"procs":4,"trials":-1}`, http.StatusBadRequest},                   // negative trials
		{`{"kind":"lu","k":6,"procs":4,"policies":"heft"}`, http.StatusBadRequest},             // unknown policy
		{`{"kind":"lu","k":6,"procs":4,"quantiles":[1.5],"trials":10}`, http.StatusBadRequest}, // bad quantile
		{`{"kind":"lu","k":6,"procs":4,"quantiles":[0.5]}`, http.StatusBadRequest},             // quantiles need trials
		{`{"kind":"lu","k":6,"procs":4,"pfail":2,"trials":10}`, http.StatusBadRequest},         // bad pfail
		{`{"graph_id":"sha256:gone","procs":4}`, http.StatusNotFound},                          // unknown graph
		{`{"kind":"lu","k":6,"procs":4,"bogus":1}`, http.StatusBadRequest},                     // unknown field
	}
	for _, c := range cases {
		if code, body := post(t, ts, "/v1/schedule", c.body); code != c.want {
			t.Errorf("%s -> %d (%s), want %d", c.body, code, body, c.want)
		}
	}
}

// Concurrent schedule requests must reproduce the serial responses: the
// schedule artifacts are built once per key (singleflight) and shared
// read-only, and the engine is worker-count invariant.
func TestConcurrentScheduleDeterministic(t *testing.T) {
	ts := newTestServer(t)
	reqs := []string{
		`{"kind":"lu","k":6,"procs":4,"pfail":0.01,"trials":1500,"seed":7}`,
		`{"kind":"lu","k":6,"procs":8,"pfail":0.001,"trials":1000,"seed":3,"policies":"fo","quantiles":[0.9]}`,
	}
	want := make([]string, len(reqs))
	for i, r := range reqs {
		code, body := post(t, ts, "/v1/schedule", r)
		if code != http.StatusOK {
			t.Fatalf("ref %d: %d %s", i, code, body)
		}
		want[i] = normalizeTimes(body)
	}
	const perReq = 5
	var wg sync.WaitGroup
	errs := make(chan string, len(reqs)*perReq)
	for i, r := range reqs {
		for j := 0; j < perReq; j++ {
			wg.Add(1)
			go func(i int, r string) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader(r))
				if err != nil {
					errs <- fmt.Sprintf("req %d: %v", i, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("req %d: status %d err %v", i, resp.StatusCode, err)
					return
				}
				if normalizeTimes(string(body)) != want[i] {
					errs <- fmt.Sprintf("req %d: concurrent schedule response diverged", i)
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

// A processor count past the task count is clamped before any
// per-processor state is allocated: procs = 1e8 on LU k=4 answers like
// procs = n, except for the echoed procs, the efficiency charged for the
// requested count and the timings. Unclamped, the list scheduler and the
// freeze would each allocate an 800 MB []int; the request must stay
// under 32 MiB of allocation in total.
func TestScheduleProcsClampedToTasks(t *testing.T) {
	ts := newTestServer(t)
	n := linalg.LUTaskCount(4)
	const huge = 100000000
	for _, extra := range []string{`"trials":2000,"quantiles":[0.5,0.9]`, `"tolerance":0.05`} {
		body := func(procs int) string {
			return fmt.Sprintf(`{"kind":"lu","k":4,"procs":%d,"pfail":0.05,"seed":3,%s}`, procs, extra)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		code, big := post(t, ts, "/v1/schedule", body(huge))
		runtime.ReadMemStats(&after)
		if code != http.StatusOK {
			t.Fatalf("procs=%d: %d %s", huge, code, big)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 32<<20 {
			t.Fatalf("procs=%d allocated %d bytes", huge, alloc)
		}
		code, atN := post(t, ts, "/v1/schedule", body(n))
		if code != http.StatusOK {
			t.Fatalf("procs=%d: %d %s", n, code, atN)
		}
		type policy = map[string]any
		strip := func(s string) (map[string]any, []float64) {
			var doc map[string]any
			if err := json.Unmarshal([]byte(normalizeTimes(s)), &doc); err != nil {
				t.Fatal(err)
			}
			var eff []float64
			for _, p := range doc["policies"].([]any) {
				eff = append(eff, p.(policy)["efficiency"].(float64))
				delete(p.(policy), "efficiency")
			}
			if _, ok := doc["procs"]; !ok {
				t.Fatalf("procs not echoed: %s", s)
			}
			delete(doc, "procs")
			return doc, eff
		}
		bigDoc, bigEff := strip(big)
		nDoc, nEff := strip(atN)
		if !reflect.DeepEqual(bigDoc, nDoc) {
			t.Fatalf("%s: procs=%d body differs from procs=%d:\n%s\n%s", extra, huge, n, big, atN)
		}
		if !strings.Contains(big, fmt.Sprintf(`"procs": %d`, huge)) {
			t.Fatalf("requested procs not echoed: %s", big)
		}
		for i := range bigEff {
			if got, want := bigEff[i]*huge, nEff[i]*float64(n); math.Abs(got-want) > 1e-9*want {
				t.Fatalf("efficiency at procs=%d is %v, want %v·%d/%d", huge, bigEff[i], nEff[i], n, huge)
			}
		}
	}
	// Both counts share one schedule artifact per policy.
	_, sub := post(t, ts, "/v1/graphs", `{"kind":"lu","k":4}`)
	var subDoc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(sub), &subDoc); err != nil {
		t.Fatal(err)
	}
	_, info := get(t, ts, "/v1/graphs/"+subDoc.ID)
	var infoDoc struct {
		Cache struct {
			Schedules int `json:"schedules"`
		} `json:"cache"`
	}
	if err := json.Unmarshal([]byte(info), &infoDoc); err != nil {
		t.Fatal(err)
	}
	if infoDoc.Cache.Schedules != 2 {
		t.Fatalf("want 2 cached schedule artifacts (one per policy), got %d", infoDoc.Cache.Schedules)
	}
}
