package lb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// newTestRouter builds a router with the periodic checker disabled
// (tests drive checkAll directly) and hedging off unless asked.
func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	cfg.CheckInterval = -1
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = -1
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// stubReplica is a swappable-handler fake replica.
type stubReplica struct {
	srv     *httptest.Server
	handler atomic.Value // http.HandlerFunc
	hits    atomic.Int64
}

func newStubReplica(t *testing.T, h http.HandlerFunc) *stubReplica {
	t.Helper()
	s := &stubReplica{}
	s.handler.Store(h)
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.hits.Add(1)
		s.handler.Load().(http.HandlerFunc)(w, r)
	}))
	t.Cleanup(s.srv.Close)
	return s
}

func (s *stubReplica) base() string { return s.srv.URL }

func (s *stubReplica) set(h http.HandlerFunc) { s.handler.Store(h) }

func okJSON(id string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"served_by":%q}`, id)
	}
}

func healthzOK(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, `{"status":"ok"}`)
}

func healthzDraining(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprint(w, `{"status":"draining"}`)
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

const estBody = `{"kind":"lu","k":6,"pfail":0.01,"methods":"First Order"}`

func TestProxyRoutesSameGraphToSameReplica(t *testing.T) {
	a := newStubReplica(t, okJSON("a"))
	b := newStubReplica(t, okJSON("b"))
	rt := newTestRouter(t, Config{Replicas: []string{a.base(), b.base()}})
	var served []string
	for i := 0; i < 5; i++ {
		rec := postJSON(t, rt.Handler(), "/v1/estimate", estBody)
		if rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		served = append(served, rec.Body.String())
	}
	for _, s := range served[1:] {
		if s != served[0] {
			t.Fatalf("same body routed to different replicas: %v", served)
		}
	}
	// The serving replica is the ring owner of the graph key, and it is
	// named in the upstream metrics.
	sel, err := service.ExtractSelector([]byte(estBody))
	if err != nil {
		t.Fatal(err)
	}
	key, err := sel.RoutingKey()
	if err != nil {
		t.Fatal(err)
	}
	owner := rt.candidates(key)[0]
	if n := rt.metrics.upstream.With(owner, "200").Value(); n != 5 {
		t.Fatalf("owner %s served %d upstream requests, want 5", owner, n)
	}
}

func TestProxyNoHealthyReplicas(t *testing.T) {
	rt := newTestRouter(t, Config{})
	rec := postJSON(t, rt.Handler(), "/v1/estimate", estBody)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	hz := getPath(t, rt.Handler(), "/healthz")
	if hz.Code != http.StatusServiceUnavailable || !strings.Contains(hz.Body.String(), "no_healthy_replicas") {
		t.Fatalf("healthz %d %s", hz.Code, hz.Body)
	}
}

func TestDrainFlipsHealthz(t *testing.T) {
	a := newStubReplica(t, okJSON("a"))
	rt := newTestRouter(t, Config{Replicas: []string{a.base()}})
	if rec := getPath(t, rt.Handler(), "/healthz"); rec.Code != 200 {
		t.Fatalf("healthz %d before drain", rec.Code)
	}
	rt.StartDrain()
	rec := getPath(t, rt.Handler(), "/healthz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("healthz after drain: %d %s", rec.Code, rec.Body)
	}
	if !rt.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}
}

func TestRegisterAndDeregister(t *testing.T) {
	a := newStubReplica(t, okJSON("a"))
	b := newStubReplica(t, okJSON("b"))
	rt := newTestRouter(t, Config{Replicas: []string{a.base()}})

	rec := postJSON(t, rt.Handler(), "/v1/replicas", fmt.Sprintf(`{"base":%q}`, b.base()))
	if rec.Code != 200 {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	var list replicasResponse
	if err := json.Unmarshal(getPath(t, rt.Handler(), "/v1/replicas").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Replicas) != 2 || list.RingSize != 2 {
		t.Fatalf("after register: %+v", list)
	}

	rec = postJSON(t, rt.Handler(), "/v1/replicas", fmt.Sprintf(`{"base":%q,"deregister":true}`, b.base()))
	if rec.Code != 200 {
		t.Fatalf("deregister: %d %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(getPath(t, rt.Handler(), "/v1/replicas").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Replicas) != 1 || list.RingSize != 1 {
		t.Fatalf("after deregister: %+v", list)
	}

	if rec = postJSON(t, rt.Handler(), "/v1/replicas", fmt.Sprintf(`{"base":%q,"deregister":true}`, b.base())); rec.Code != 404 {
		t.Fatalf("deregister unknown: %d", rec.Code)
	}
	if rec = postJSON(t, rt.Handler(), "/v1/replicas", `{"base":"not a url"}`); rec.Code != 400 {
		t.Fatalf("register bad base: %d", rec.Code)
	}
}

func TestHealthCheckEjectsDrainingAndReadmits(t *testing.T) {
	a := newStubReplica(t, healthzOK)
	b := newStubReplica(t, healthzOK)
	rt := newTestRouter(t, Config{Replicas: []string{a.base(), b.base()}})
	rt.checkAll()
	if got := ringSize(rt); got != 2 {
		t.Fatalf("ring size %d after healthy sweep", got)
	}

	// b announces shutdown: one draining probe ejects it.
	b.set(healthzDraining)
	rt.checkAll()
	if got := ringSize(rt); got != 1 {
		t.Fatalf("ring size %d after draining sweep, want 1", got)
	}
	if n := rt.metrics.ejects.With(b.base(), "draining").Value(); n != 1 {
		t.Fatalf("draining ejects for %s = %d, want 1", b.base(), n)
	}

	// b restarts: the first healthy probe re-admits it without
	// re-registration.
	b.set(healthzOK)
	rt.checkAll()
	if got := ringSize(rt); got != 2 {
		t.Fatalf("ring size %d after recovery, want 2", got)
	}
}

func TestHealthCheckEjectsDeadAfterThreshold(t *testing.T) {
	a := newStubReplica(t, healthzOK)
	b := newStubReplica(t, healthzOK)
	rt := newTestRouter(t, Config{Replicas: []string{a.base(), b.base()}, FailThreshold: 2})
	rt.checkAll()

	b.set(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	rt.checkAll()
	if got := ringSize(rt); got != 2 {
		t.Fatalf("ejected after one failure, want threshold 2 (ring %d)", got)
	}
	rt.checkAll()
	if got := ringSize(rt); got != 1 {
		t.Fatalf("ring size %d after threshold failures, want 1", got)
	}
	if n := rt.metrics.ejects.With(b.base(), "dead").Value(); n != 1 {
		t.Fatalf("dead ejects = %d, want 1", n)
	}
}

func ringSize(rt *Router) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ring.size()
}

func TestFailoverOnUpstreamError(t *testing.T) {
	a := newStubReplica(t, okJSON("a"))
	b := newStubReplica(t, okJSON("b"))
	rt := newTestRouter(t, Config{Replicas: []string{a.base(), b.base()}})

	sel, err := service.ExtractSelector([]byte(estBody))
	if err != nil {
		t.Fatal(err)
	}
	key, err := sel.RoutingKey()
	if err != nil {
		t.Fatal(err)
	}
	cands := rt.candidates(key)
	// Break the shard owner: the request must fail over to the sibling
	// and still answer 200.
	owner := cands[0]
	for _, s := range []*stubReplica{a, b} {
		if s.base() == owner {
			s.set(func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "boom", http.StatusInternalServerError)
			})
		}
	}
	rec := postJSON(t, rt.Handler(), "/v1/estimate", estBody)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if rt.metrics.failovers.Value() == 0 {
		t.Fatal("failover not counted")
	}
	if rt.metrics.upstreamFailures.With(owner).Value() == 0 {
		t.Fatal("owner failure not counted")
	}
}

func TestForwardedClientErrorsWinImmediately(t *testing.T) {
	// A 4xx is a deterministic verdict on the request — it must be
	// forwarded, not masked by failover to a replica that would answer
	// the same.
	a := newStubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"bad"}`, http.StatusBadRequest)
	})
	b := newStubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"bad"}`, http.StatusBadRequest)
	})
	rt := newTestRouter(t, Config{Replicas: []string{a.base(), b.base()}})
	rec := postJSON(t, rt.Handler(), "/v1/estimate", estBody)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 forwarded", rec.Code)
	}
	if n := a.hits.Load() + b.hits.Load(); n != 1 {
		t.Fatalf("4xx hit %d replicas, want exactly 1 attempt", n)
	}
}

// timingFields zeroes the wall-clock fields so deterministic responses
// compare byte-identically (the convention of the e2e scripts).
var timingFields = regexp.MustCompile(`"(mc_time_seconds|time_seconds|uptime_seconds)": [-+0-9.eE]+`)

func normalize(b []byte) string {
	return timingFields.ReplaceAllString(string(b), `"$1": 0`)
}

func TestHedgedRequestCoalescesToOneKernelRun(t *testing.T) {
	// One in-process makespand service behind two fronts registered as
	// two replicas. The shard owner's front delays every request long
	// enough for the hedge budget to expire, so the router hedges to the
	// sibling front; both forwards land on the same service, where the
	// adaptive coalescer must collapse them onto ONE kernel run: the
	// delayed forward either joins the hedge's in-flight run, is served
	// from the retained snapshot after it completes, or is cancelled
	// when the winner settles the request — every interleaving pays
	// exactly one kernel. (The fixed-trials path cannot be pinned this
	// way: its flights are not retained, so a forward arriving after
	// completion legitimately re-runs.)
	svc := service.New(service.Config{Workers: 2})
	const ownerDelay = 100 * time.Millisecond
	var delayBase atomic.Value // the front to slow down
	delayBase.Store("")
	mkFront := func() *httptest.Server {
		var srv *httptest.Server
		srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if delayBase.Load() == srv.URL {
				select {
				case <-time.After(ownerDelay):
				case <-r.Context().Done():
					return
				}
			}
			svc.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	a, b := mkFront(), mkFront()
	rt := newTestRouter(t, Config{
		Replicas:   []string{a.URL, b.URL},
		HedgeAfter: 25 * time.Millisecond,
	})

	body := `{"kind":"lu","k":10,"pfail":0.01,"methods":"First Order","tolerance":0.01,"seed":7}`
	sel, err := service.ExtractSelector([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	key, err := sel.RoutingKey()
	if err != nil {
		t.Fatal(err)
	}
	cands := rt.candidates(key)
	if len(cands) != 2 {
		t.Fatalf("candidates %v", cands)
	}
	delayBase.Store(cands[0])

	rec := postJSON(t, rt.Handler(), "/v1/estimate", body)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	e, ok := svc.Registry().LookupGenerated(service.GraphMeta{Kind: "lu", K: 10})
	if !ok {
		t.Fatal("graph entry not registered")
	}
	if n := e.KernelRuns(); n != 1 {
		t.Fatalf("KernelRuns = %d, want exactly 1 (hedge must coalesce, never double-run)", n)
	}
	if n := rt.metrics.hedges.With(cands[1]).Value(); n < 1 {
		t.Fatalf("hedges to %s = %d, want >= 1", cands[1], n)
	}

	// The hedged response is byte-identical to an unhedged direct call
	// (timing fields excepted) — which replica answers is unobservable.
	direct := httptest.NewServer(svc.Handler())
	defer direct.Close()
	resp, err := http.Post(direct.URL+"/v1/estimate", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	directBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalize(rec.Body.Bytes()), normalize(directBody); got != want {
		t.Fatalf("hedged response differs from direct:\nhedged: %s\ndirect: %s", got, want)
	}
}

func TestNoHedgeUnderBudget(t *testing.T) {
	a := newStubReplica(t, okJSON("a"))
	b := newStubReplica(t, okJSON("b"))
	rt := newTestRouter(t, Config{Replicas: []string{a.base(), b.base()}, HedgeAfter: 2 * time.Second})
	rec := postJSON(t, rt.Handler(), "/v1/estimate", estBody)
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if n := a.hits.Load() + b.hits.Load(); n != 1 {
		t.Fatalf("fast request hit %d replicas, want 1", n)
	}
}

func TestSweepDefaultSelectorRoutesLikeExplicit(t *testing.T) {
	a := newStubReplica(t, okJSON("a"))
	b := newStubReplica(t, okJSON("b"))
	c := newStubReplica(t, okJSON("c"))
	rt := newTestRouter(t, Config{Replicas: []string{a.base(), b.base(), c.base()}})
	implicit := postJSON(t, rt.Handler(), "/v1/sweep", `{}`)
	explicit := postJSON(t, rt.Handler(), "/v1/sweep", `{"kind":"lu","k":10}`)
	if implicit.Code != 200 || explicit.Code != 200 {
		t.Fatalf("status %d/%d", implicit.Code, explicit.Code)
	}
	if implicit.Body.String() != explicit.Body.String() {
		t.Fatalf("default sweep routed to %s, explicit to %s",
			implicit.Body, explicit.Body)
	}
}

func TestGraphIDPathRoutesWithBodyKey(t *testing.T) {
	// GET /v1/graphs/{id} must route to the same replica as a POST body
	// naming the same graph_id — the id is the shard key either way.
	a := newStubReplica(t, okJSON("a"))
	b := newStubReplica(t, okJSON("b"))
	c := newStubReplica(t, okJSON("c"))
	rt := newTestRouter(t, Config{Replicas: []string{a.base(), b.base(), c.base()}})
	const id = "sha256:0011223344556677"
	get := getPath(t, rt.Handler(), "/v1/graphs/"+id)
	post := postJSON(t, rt.Handler(), "/v1/estimate", fmt.Sprintf(`{"graph_id":%q,"methods":"First Order"}`, id))
	if get.Code != 200 || post.Code != 200 {
		t.Fatalf("status %d/%d", get.Code, post.Code)
	}
	if get.Body.String() != post.Body.String() {
		t.Fatalf("GET routed to %s, POST to %s", get.Body, post.Body)
	}
}

func TestProxyRejectsOversizedBodyWith413(t *testing.T) {
	a := newStubReplica(t, okJSON("a"))
	rt := newTestRouter(t, Config{Replicas: []string{a.base()}})
	body := `{"graph":{"tasks":[],"pad":"` + strings.Repeat("x", service.MaxBodyBytes) + `"}}`
	rec := postJSON(t, rt.Handler(), "/v1/estimate", body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body)
	}
	if n := a.hits.Load(); n != 0 {
		t.Fatalf("oversized body reached the replica %d times", n)
	}
}

func TestGeneratorKeyMemoIsBounded(t *testing.T) {
	rt := newTestRouter(t, Config{Replicas: []string{"http://127.0.0.1:1"}})
	// Every distinct (kind, k) a client sends that generates is a new
	// memo entry; the memo must not grow past its cap however many
	// arrive.
	for i := 0; i < 3*maxGenKeys; i++ {
		rt.rememberGenKey(genKey{kind: "lu", k: 1000 + i}, fmt.Sprintf("graph/junk%d", i))
		rt.mu.Lock()
		n := len(rt.genKeys)
		rt.mu.Unlock()
		if n > maxGenKeys {
			t.Fatalf("memo holds %d keys after %d specs, cap %d", n, i+1, maxGenKeys)
		}
	}
	want, err := service.RoutingSelector{Kind: "lu", K: 3}.RoutingKey()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // a miss, then a memo hit
		got, err := rt.selectorKey(service.RoutingSelector{Kind: "lu", K: 3})
		if err != nil || got != want {
			t.Fatalf("key %q, %v; want %q", got, err, want)
		}
	}
	rt.mu.Lock()
	_, memoized := rt.genKeys[genKey{kind: "lu", k: 3}]
	rt.mu.Unlock()
	if !memoized {
		t.Fatal("a generator key was not memoized after the memo filled up")
	}
}

func TestGeneratorOverCapIsNotGenerated(t *testing.T) {
	// A k over service.MaxGeneratorK gets no routing key: the lb builds
	// no graph for it and routes it by its raw bytes to a replica, which
	// answers the 400.
	a := newStubReplica(t, okJSON("a"))
	rt := newTestRouter(t, Config{Replicas: []string{a.base()}})
	body := fmt.Sprintf(`{"kind":"lu","k":%d}`, service.MaxGeneratorK+1)
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(body))
	if key := rt.bodyRoutingKey(req, []byte(body), false); !strings.HasPrefix(key, "opaque/") {
		t.Fatalf("routing key %q, want an opaque key", key)
	}
	if rec := postJSON(t, rt.Handler(), "/v1/estimate", body); rec.Code != 200 || a.hits.Load() != 1 {
		t.Fatalf("status %d after %d replica hits, want the body proxied once", rec.Code, a.hits.Load())
	}
	rt.mu.Lock()
	n := len(rt.genKeys)
	rt.mu.Unlock()
	if n != 0 {
		t.Fatalf("memo holds %d keys after an over-cap spec", n)
	}
}
