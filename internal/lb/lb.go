// Package lb implements makespan-lb, the cluster front for a fleet of
// makespand replicas. It routes every /v1 request to a replica chosen
// by consistent hash of the request's canonical graph artifact key
// (service.RoutingSelector → "graph/sha256:…"), so all artifacts
// derived from one graph — frozen form, Dodin plan, estimators,
// schedules, snapshots — land in one replica's LRU byte budget and
// fleet cache capacity scales with the replica count. Because the
// estimators are deterministic and worker-invariant, *which* replica
// answers is unobservable: any replica produces the byte-identical
// response, which is what makes hedging and failover safe and is
// pinned by the multi-process e2e tests.
//
// The router keeps a registered-replica set (static -replicas list
// plus the POST /v1/replicas register/deregister route), health-checks
// every replica's /healthz on a period, ejects draining or dead
// replicas from the ring (they rejoin when they probe healthy again),
// hedges a slow request to the next ring sibling past a latency
// budget (first usable response wins, the loser's forward is
// cancelled — the replica aborts its kernels at the next chunk
// boundary via the context plumbing), and fails over immediately on
// transport errors or 5xx/429. Everything is observable: makespanlb_*
// metric families on GET /metrics and one structured access-log line
// per request carrying the serving replica.
package lb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// Config tunes a Router.
type Config struct {
	// Replicas is the static initial replica set (base URLs, e.g.
	// "http://127.0.0.1:8080"). More can register at runtime via
	// POST /v1/replicas.
	Replicas []string
	// HedgeAfter is the latency budget before a request is hedged to
	// the next ring sibling (0 selects 2s; < 0 disables hedging).
	// Each further budget expiry hedges to the next candidate, up to
	// MaxAttempts distinct replicas.
	HedgeAfter time.Duration
	// MaxAttempts caps the distinct replicas one request may touch
	// across hedges and failovers (0 selects 3).
	MaxAttempts int
	// CheckInterval is the health-check period (0 selects 1s; < 0
	// disables the periodic checker — tests drive checks directly).
	CheckInterval time.Duration
	// ProbeTimeout bounds one /healthz probe (0 selects 500ms).
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive failed probes eject a
	// replica as dead (0 selects 2). Draining replicas are ejected on
	// the first draining probe — they told us they are leaving.
	FailThreshold int
	// Vnodes is the ring points per replica (0 selects 64).
	Vnodes int
	// Client issues the proxied upstream requests; nil selects a
	// dedicated client with no overall timeout (request contexts and
	// the hedging budget bound the work instead).
	Client *http.Client
	// AccessLog receives one structured line per front request (route,
	// status, serving replica, hedge/attempt counts, outcome). nil
	// disables access logging; metrics are collected either way.
	AccessLog io.Writer
}

// Router is the makespan-lb HTTP front. Create with New, mount via
// Handler, call Start to begin health checking and Close to stop it.
type Router struct {
	hedgeAfter time.Duration
	maxAtt     int
	checkEvery time.Duration
	probeT     time.Duration
	failThresh int
	vnodes     int

	client    *http.Client
	mux       *http.ServeMux
	handler   http.Handler
	metrics   *lbMetrics
	accessLog *log.Logger
	started   time.Time
	draining  atomic.Bool
	inflight  atomic.Int64

	mu       sync.Mutex
	replicas map[string]*replicaState
	ring     *ring
	genKeys  map[genKey]string // (kind,k) → routing key memo, at most maxGenKeys

	closeOnce sync.Once
	stop      chan struct{}
	checkDone chan struct{}
}

// replicaState tracks one registered replica. A replica leaves the
// ring (but stays registered) while unhealthy or draining; it rejoins
// when a probe answers 200 again — a restarted replica heals without
// re-registration.
type replicaState struct {
	base     string
	static   bool // from Config.Replicas, listed first in GET /v1/replicas
	healthy  bool
	draining bool
	fails    int
	lastErr  string
}

// New builds a router over the static replica set. The periodic health
// checker is not running yet — call Start.
func New(cfg Config) (*Router, error) {
	rt := &Router{
		hedgeAfter: cfg.HedgeAfter,
		maxAtt:     cfg.MaxAttempts,
		checkEvery: cfg.CheckInterval,
		probeT:     cfg.ProbeTimeout,
		failThresh: cfg.FailThreshold,
		vnodes:     cfg.Vnodes,
		client:     cfg.Client,
		mux:        http.NewServeMux(),
		started:    time.Now(),
		replicas:   make(map[string]*replicaState),
		genKeys:    make(map[genKey]string),
		stop:       make(chan struct{}),
	}
	if rt.hedgeAfter == 0 {
		rt.hedgeAfter = 2 * time.Second
	}
	if rt.maxAtt <= 0 {
		rt.maxAtt = 3
	}
	if rt.checkEvery == 0 {
		rt.checkEvery = time.Second
	}
	if rt.probeT <= 0 {
		rt.probeT = 500 * time.Millisecond
	}
	if rt.failThresh <= 0 {
		rt.failThresh = 2
	}
	if rt.vnodes <= 0 {
		rt.vnodes = defaultVnodes
	}
	if rt.client == nil {
		rt.client = &http.Client{}
	}
	if cfg.AccessLog != nil {
		rt.accessLog = log.New(cfg.AccessLog, "", 0)
	}
	rt.metrics = newLBMetrics(rt)
	for _, base := range cfg.Replicas {
		norm, err := normalizeBase(base)
		if err != nil {
			return nil, fmt.Errorf("lb: bad replica %q: %w", base, err)
		}
		rt.replicas[norm] = &replicaState{base: norm, static: true, healthy: true}
	}
	rt.rebuildRingLocked()

	// The proxied routes mirror the makespand API surface, each with a
	// route-specific key extractor; the rest is the router's own.
	rt.route("POST /v1/graphs", "/v1/graphs", rt.proxyBodyKey(false))
	rt.route("GET /v1/graphs/{id}", "/v1/graphs/{id}", rt.proxyGraphID)
	rt.route("POST /v1/estimate", "/v1/estimate", rt.proxyBodyKey(false))
	rt.route("POST /v1/sweep", "/v1/sweep", rt.proxyBodyKey(true))
	rt.route("POST /v1/schedule", "/v1/schedule", rt.proxyBodyKey(false))
	rt.route("GET /v1/cache", "/v1/cache", rt.proxyPathKey)
	rt.route("GET /v1/replicas", "/v1/replicas", rt.handleListReplicas)
	rt.route("POST /v1/replicas", "/v1/replicas", rt.handleUpdateReplicas)
	rt.route("GET /healthz", "/healthz", rt.handleHealthz)
	rt.route("GET /metrics", "/metrics", rt.handleMetrics)
	rt.handler = rt.middleware(rt.mux)
	return rt, nil
}

// normalizeBase validates and canonicalizes a replica base URL so the
// same replica registered with cosmetic differences ("…/", mixed-case
// scheme) collapses onto one ring member.
func normalizeBase(base string) (string, error) {
	u, err := url.Parse(strings.TrimRight(base, "/"))
	if err != nil {
		return "", err
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("want absolute http(s) URL, got %q", base)
	}
	return strings.ToLower(u.Scheme) + "://" + u.Host, nil
}

// Start launches the periodic health checker (one immediate sweep,
// then every CheckInterval). A negative CheckInterval disables it.
func (rt *Router) Start() {
	if rt.checkEvery < 0 {
		return
	}
	rt.checkDone = make(chan struct{})
	go func() {
		defer close(rt.checkDone)
		rt.checkAll()
		t := time.NewTicker(rt.checkEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				rt.checkAll()
			case <-rt.stop:
				return
			}
		}
	}()
}

// Close stops the health checker. Idempotent.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.stop) })
	if rt.checkDone != nil {
		<-rt.checkDone
	}
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.handler }

// StartDrain flips the router into draining: /healthz answers 503 so
// the fleet's own front stops being routed to, while in-flight proxies
// finish. Idempotent, never blocks.
func (rt *Router) StartDrain() { rt.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (rt *Router) Draining() bool { return rt.draining.Load() }

// InFlight reports the requests currently inside the handler stack.
func (rt *Router) InFlight() int64 { return rt.inflight.Load() }

// route registers a handler with a fixed route label for metrics and
// the access log (same bounded-cardinality convention as makespand).
func (rt *Router) route(pattern, label string, h http.HandlerFunc) {
	rt.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if ri := infoFrom(r.Context()); ri != nil {
			ri.route = label
		}
		h(w, r)
	})
}

// reqInfo is the per-request record the middleware logs: route label,
// the replica that served the winning response, and how many upstream
// attempts / hedges the request cost.
type reqInfo struct {
	route    string
	replica  string
	attempts int
	hedges   int
}

type reqInfoCtxKey struct{}

func infoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoCtxKey{}).(*reqInfo)
	return ri
}

// middleware wraps the mux with in-flight accounting and per-request
// observability: every front request lands in the makespanlb_* request
// families and, when configured, one access-log line naming the
// serving replica.
func (rt *Router) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ri := &reqInfo{route: "other"}
		r = r.WithContext(context.WithValue(r.Context(), reqInfoCtxKey{}, ri))
		rt.inflight.Add(1)
		defer rt.inflight.Add(-1)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		rt.metrics.requests.With(ri.route, strconv.Itoa(status)).Inc()
		rt.metrics.latency.With(ri.route).Observe(time.Since(start).Seconds())
		if rt.accessLog != nil {
			outcome := "ok"
			if status >= 400 {
				outcome = "error"
			}
			replica := ri.replica
			if replica == "" {
				replica = "-"
			}
			rt.accessLog.Printf("event=request method=%s route=%s status=%d bytes=%d dur_ms=%.3f replica=%s attempts=%d hedges=%d outcome=%s",
				r.Method, ri.route, status, sw.bytes,
				float64(time.Since(start))/float64(time.Millisecond),
				replica, ri.attempts, ri.hedges, outcome)
		}
	})
}

// statusWriter records status and body bytes for the request metrics
// and access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// proxyBodyKey proxies a POST whose routing key comes from the body's
// graph selector. sweepDefault selects the sweep route's convention:
// an empty selector means the default sweep spec, and must route to
// the replica owning that workload's artifacts.
func (rt *Router) proxyBodyKey(sweepDefault bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// The replica's own cap (service.MaxBodyBytes): a body it would
		// refuse with 413 is refused here, before the routing key is paid.
		body, err := service.ReadBody(w, r)
		if err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			writeError(w, status, fmt.Sprintf("read body: %v", err))
			return
		}
		rt.forward(w, r, body, rt.bodyRoutingKey(r, body, sweepDefault))
	}
}

// bodyRoutingKey computes the shard key for a request body. Bodies the
// replica will reject (no selector, malformed JSON, unknown generator)
// still get a deterministic key — the replica, not the router, owns
// the 400; the router only promises that identical bodies route
// identically.
func (rt *Router) bodyRoutingKey(r *http.Request, body []byte, sweepDefault bool) string {
	sel, err := service.ExtractSelector(body)
	if err == nil && sel.IsZero() && sweepDefault {
		sel = service.DefaultSweepSelector()
	}
	if err == nil && !sel.IsZero() {
		if key, kerr := rt.selectorKey(sel); kerr == nil {
			return key
		}
	}
	return "opaque/" + r.URL.Path + "/" + strconv.FormatUint(hash64(string(body)), 16)
}

// genKey memoizes a generator-spec routing key: the named workloads
// are deterministic, so (kind, k) → key never changes.
type genKey struct {
	kind string
	k    int
}

// maxGenKeys caps the generator-key memo. Specs come from clients, so
// the memo starts over when full rather than grow without bound; the
// few named workloads a fleet serves refill it at one generate each.
const maxGenKeys = 1024

// selectorKey computes a selector's routing key, memoizing generator
// specs so the hot path pays one map probe instead of generate +
// marshal + hash per request.
func (rt *Router) selectorKey(sel service.RoutingSelector) (string, error) {
	memoable := sel.GraphID == "" && sel.Kind != "" // kind outranks an inline graph
	gk := genKey{kind: sel.Kind, k: sel.K}
	if memoable {
		rt.mu.Lock()
		key, ok := rt.genKeys[gk]
		rt.mu.Unlock()
		if ok {
			return key, nil
		}
	}
	key, err := sel.RoutingKey()
	if err != nil {
		return "", err
	}
	if memoable {
		rt.rememberGenKey(gk, key)
	}
	return key, nil
}

// rememberGenKey stores a generator spec's key, first emptying the
// memo when it holds maxGenKeys entries.
func (rt *Router) rememberGenKey(gk genKey, key string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.genKeys) >= maxGenKeys {
		clear(rt.genKeys)
	}
	rt.genKeys[gk] = key
}

// proxyGraphID proxies GET /v1/graphs/{id}: the id *is* the content
// address, so the key is the graph artifact key directly.
func (rt *Router) proxyGraphID(w http.ResponseWriter, r *http.Request) {
	sel := service.RoutingSelector{GraphID: r.PathValue("id")}
	key, err := sel.RoutingKey()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rt.forward(w, r, nil, key)
}

// proxyPathKey proxies graph-less routes (GET /v1/cache) by path: any
// replica answers correctly, the hash only keeps the choice sticky.
func (rt *Router) proxyPathKey(w http.ResponseWriter, r *http.Request) {
	rt.forward(w, r, nil, "path/"+r.URL.Path)
}

// candidates snapshots the hedging/failover candidate list for key:
// the shard owner first, then ring siblings in remap order.
func (rt *Router) candidates(key string) []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ring.successors(key, rt.maxAtt)
}

// upstreamResult is one replica's answer to a forwarded request.
type upstreamResult struct {
	replica     string
	status      int
	contentType string
	retryAfter  string
	body        []byte
	err         error
}

// usable reports whether an upstream response settles the request:
// anything but 5xx and 429. 4xx responses are deterministic verdicts
// on the request itself — every replica would answer the same — so
// they win immediately rather than triggering failover.
func usable(status int) bool {
	return status < 500 && status != http.StatusTooManyRequests
}

// forward routes one request: dispatch to the shard owner, hedge to
// ring siblings past the latency budget, fail over instantly on
// transport errors and retryable statuses, first usable response wins
// and the losers' forwards are cancelled.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, body []byte, key string) {
	cands := rt.candidates(key)
	if len(cands) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no healthy replicas")
		return
	}
	ri := infoFrom(r.Context())
	res := rt.dispatch(r.Context(), r, body, cands, ri)
	if res == nil {
		writeError(w, http.StatusBadGateway, "all replicas failed")
		return
	}
	if res.err != nil {
		writeError(w, http.StatusBadGateway, fmt.Sprintf("replica %s: %v", res.replica, res.err))
		return
	}
	if ri != nil {
		ri.replica = res.replica
	}
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	if res.retryAfter != "" {
		w.Header().Set("Retry-After", res.retryAfter)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// dispatch runs the hedged fan-out over the candidate list. It returns
// the first usable response, or the last failure when every candidate
// failed (so the client sees the upstream verdict, e.g. a fleet-wide
// 429), or nil when no attempt produced a response at all.
func (rt *Router) dispatch(ctx context.Context, r *http.Request, body []byte, cands []string, ri *reqInfo) *upstreamResult {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels every losing forward still in flight
	results := make(chan *upstreamResult, len(cands))
	next, inFlight := 0, 0
	launch := func() {
		replica := cands[next]
		next++
		inFlight++
		if ri != nil {
			ri.attempts++
		}
		go rt.attempt(ctx, r, body, replica, results)
	}
	launch()
	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if rt.hedgeAfter > 0 {
		hedgeTimer = time.NewTimer(rt.hedgeAfter)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}
	var last *upstreamResult
	for {
		select {
		case res := <-results:
			inFlight--
			if res.err == nil && usable(res.status) {
				return res
			}
			rt.metrics.upstreamFailures.With(res.replica).Inc()
			last = res
			if next < len(cands) {
				rt.metrics.failovers.Inc()
				launch()
			} else if inFlight == 0 {
				return last
			}
		case <-hedgeC:
			if next < len(cands) {
				rt.metrics.hedges.With(cands[next]).Inc()
				if ri != nil {
					ri.hedges++
				}
				launch()
			}
			// Rearm: each further budget expiry hedges one step deeper
			// into the candidate list (a no-op once it is exhausted).
			hedgeTimer.Reset(rt.hedgeAfter)
		case <-ctx.Done():
			return &upstreamResult{replica: cands[0], err: ctx.Err()}
		}
	}
}

// attempt forwards the request to one replica and reports the result.
// The body is replayed from memory, so hedged duplicates are exact —
// and harmless: the estimation routes are deterministic, a duplicate
// can only warm a cache.
func (rt *Router) attempt(ctx context.Context, r *http.Request, body []byte, replica string, results chan<- *upstreamResult) {
	out := &upstreamResult{replica: replica}
	defer func() { results <- out }()
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, replica+r.URL.RequestURI(), reader)
	if err != nil {
		out.err = err
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		out.err = err
		return
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		out.err = err
		return
	}
	out.status = resp.StatusCode
	out.contentType = resp.Header.Get("Content-Type")
	out.retryAfter = resp.Header.Get("Retry-After")
	out.body = b
	rt.metrics.upstream.With(replica, strconv.Itoa(resp.StatusCode)).Inc()
}

// rebuildRingLocked rebuilds the ring over the healthy, non-draining
// members. Caller holds rt.mu.
func (rt *Router) rebuildRingLocked() {
	members := make([]string, 0, len(rt.replicas))
	for base, st := range rt.replicas {
		if st.healthy && !st.draining {
			members = append(members, base)
		}
	}
	sort.Strings(members)
	rt.ring = newRing(members, rt.vnodes)
}

// register adds (or revives) a replica, optimistically healthy — the
// next health sweep demotes it if it is not. Reports whether the
// membership changed.
func (rt *Router) register(base string, static bool) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st, ok := rt.replicas[base]
	if !ok {
		st = &replicaState{base: base, static: static}
		rt.replicas[base] = st
	}
	changed := !ok || !st.healthy || st.draining
	st.healthy = true
	st.draining = false
	st.fails = 0
	st.lastErr = ""
	if changed {
		rt.rebuildRingLocked()
	}
	return changed
}

// deregister removes a replica entirely. Reports whether it existed.
func (rt *Router) deregister(base string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.replicas[base]; !ok {
		return false
	}
	delete(rt.replicas, base)
	rt.rebuildRingLocked()
	return true
}

// checkAll probes every registered replica once and applies the
// verdicts: draining probes eject immediately, transport failures and
// bad statuses eject after failThresh consecutive misses, and a 200
// from an ejected replica re-admits it.
func (rt *Router) checkAll() {
	rt.mu.Lock()
	bases := make([]string, 0, len(rt.replicas))
	for base := range rt.replicas {
		bases = append(bases, base)
	}
	rt.mu.Unlock()
	sort.Strings(bases)
	for _, base := range bases {
		verdict, errMsg := rt.probe(base)
		rt.apply(base, verdict, errMsg)
	}
}

// probeVerdict classifies one health probe.
type probeVerdict int

const (
	probeHealthy probeVerdict = iota
	probeDraining
	probeFailed
)

// probe issues one GET /healthz against a replica.
func (rt *Router) probe(base string) (probeVerdict, string) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.probeT)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return probeFailed, err.Error()
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return probeFailed, err.Error()
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode == http.StatusOK {
		return probeHealthy, ""
	}
	var h struct {
		Status string `json:"status"`
	}
	if resp.StatusCode == http.StatusServiceUnavailable &&
		json.Unmarshal(body, &h) == nil && h.Status == "draining" {
		return probeDraining, "draining"
	}
	return probeFailed, fmt.Sprintf("healthz status %d", resp.StatusCode)
}

// apply folds one probe verdict into the replica's state, rebuilding
// the ring and bumping the eject counter on transitions out.
func (rt *Router) apply(base string, verdict probeVerdict, errMsg string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st, ok := rt.replicas[base]
	if !ok {
		return // deregistered while we probed
	}
	switch verdict {
	case probeHealthy:
		changed := !st.healthy || st.draining
		st.healthy, st.draining, st.fails, st.lastErr = true, false, 0, ""
		if changed {
			rt.rebuildRingLocked()
		}
	case probeDraining:
		if st.healthy && !st.draining {
			rt.metrics.ejects.With(base, "draining").Inc()
		}
		st.healthy, st.draining, st.lastErr = false, true, errMsg
		rt.rebuildRingLocked()
	case probeFailed:
		st.fails++
		st.lastErr = errMsg
		if st.fails >= rt.failThresh && st.healthy {
			st.healthy = false
			rt.metrics.ejects.With(base, "dead").Inc()
			rt.rebuildRingLocked()
		}
	}
}

// replicaJSON is one row of GET /v1/replicas.
type replicaJSON struct {
	Base     string `json:"base"`
	Static   bool   `json:"static"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining"`
	LastErr  string `json:"last_error,omitempty"`
}

// replicasResponse is the GET /v1/replicas body.
type replicasResponse struct {
	Replicas []replicaJSON `json:"replicas"`
	RingSize int           `json:"ring_size"`
}

func (rt *Router) handleListReplicas(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	out := replicasResponse{RingSize: rt.ring.size()}
	for _, st := range rt.replicas {
		out.Replicas = append(out.Replicas, replicaJSON{
			Base: st.base, Static: st.static, Healthy: st.healthy,
			Draining: st.draining, LastErr: st.lastErr,
		})
	}
	rt.mu.Unlock()
	sort.Slice(out.Replicas, func(i, j int) bool { return out.Replicas[i].Base < out.Replicas[j].Base })
	writeJSON(w, http.StatusOK, out)
}

// replicaUpdateRequest is the POST /v1/replicas body: register a base
// URL, or deregister it when deregister is true.
type replicaUpdateRequest struct {
	Base       string `json:"base"`
	Deregister bool   `json:"deregister,omitempty"`
}

func (rt *Router) handleUpdateReplicas(w http.ResponseWriter, r *http.Request) {
	var req replicaUpdateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	base, err := normalizeBase(req.Base)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad replica base: %v", err))
		return
	}
	if req.Deregister {
		if !rt.deregister(base) {
			writeError(w, http.StatusNotFound, fmt.Sprintf("replica %q not registered", base))
			return
		}
	} else {
		rt.register(base, false)
	}
	rt.mu.Lock()
	resp := struct {
		Base       string `json:"base"`
		Registered bool   `json:"registered"`
		RingSize   int    `json:"ring_size"`
	}{Base: base, RingSize: rt.ring.size()}
	_, resp.Registered = rt.replicas[base]
	rt.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// lbHealthz is the GET /healthz body. Status is "ok", "draining"
// (SIGTERM received: stop routing here) or "no_healthy_replicas" (the
// front is up but the ring is empty — retryable, the fleet may still
// be starting).
type lbHealthz struct {
	Status             string `json:"status"`
	ReplicasRegistered int    `json:"replicas_registered"`
	RingReplicas       int    `json:"ring_replicas"`
	UptimeSeconds      int64  `json:"uptime_seconds"`
	Service            string `json:"service"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	registered, ringSize := len(rt.replicas), rt.ring.size()
	rt.mu.Unlock()
	status, state := http.StatusOK, "ok"
	switch {
	case rt.draining.Load():
		status, state = http.StatusServiceUnavailable, "draining"
	case ringSize == 0:
		status, state = http.StatusServiceUnavailable, "no_healthy_replicas"
	}
	writeJSON(w, status, lbHealthz{
		Status:             state,
		ReplicasRegistered: registered,
		RingReplicas:       ringSize,
		UptimeSeconds:      int64(time.Since(rt.started).Seconds()),
		Service:            "makespan-lb/v1",
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
