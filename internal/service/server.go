package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/linalg"
	"repro/internal/montecarlo"
	"repro/internal/report"
	"repro/internal/schedmc"
)

// Config tunes a Server.
type Config struct {
	// Workers is the server-wide CPU budget shared by every estimation
	// request: Monte Carlo engines and the sweep cell scheduler run with
	// this many workers, and heavy compute sections of concurrent
	// requests serialize on a gate so the process never runs more than
	// Workers estimation goroutines at once. 0 selects GOMAXPROCS.
	// Results are identical for every value (the engines are worker-count
	// invariant); only latency changes.
	Workers int
	// CacheBytes is the graph registry's byte budget (<= 0: unlimited).
	CacheBytes int64

	// MaxInFlight caps the estimation requests (estimate, schedule,
	// sweep) admitted at once; excess requests wait in a bounded queue
	// and are shed with 429 + Retry-After when it overflows or QueueWait
	// expires. 0 disables admission control (the compute gate still
	// serializes kernels).
	MaxInFlight int
	// MaxQueue bounds the admission wait queue (used only when
	// MaxInFlight > 0). 0 means no queue: a full server sheds instantly.
	MaxQueue int
	// QueueWait is how long a queued request waits for an admission slot
	// before 429 (default 1s when queuing is enabled).
	QueueWait time.Duration

	// DefaultTimeout is the per-request deadline applied when the client
	// sends no timeout_ms (0 = none). MaxTimeout clamps client-requested
	// deadlines (0 = unclamped). An expired deadline aborts the request's
	// kernels at the next chunk boundary and answers 504.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// AccessLog receives one structured log line per request (route,
	// status, bytes, duration, deadline used, outcome). nil disables
	// access logging; metrics are collected either way. The daemon wires
	// stderr here (-access-log); tests pass a buffer.
	AccessLog io.Writer
}

// Server is the makespand HTTP service. Create with New, mount via
// Handler.
type Server struct {
	reg       *Registry
	workers   int
	gate      chan struct{} // serializes heavy compute across requests
	mux       *http.ServeMux
	handler   http.Handler // mux wrapped in recovery/accounting middleware
	limit     *limiter     // nil: admission control disabled
	metrics   *serverMetrics
	accessLog *log.Logger // nil: access logging disabled
	started   time.Time
	defaultT  time.Duration
	maxT      time.Duration
	draining  atomic.Bool
	inflight  atomic.Int64
}

// New builds a server with a fresh registry.
func New(cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		reg:      NewRegistry(cfg.CacheBytes),
		workers:  workers,
		gate:     make(chan struct{}, 1),
		mux:      http.NewServeMux(),
		started:  time.Now(),
		defaultT: cfg.DefaultTimeout,
		maxT:     cfg.MaxTimeout,
	}
	if cfg.MaxInFlight > 0 {
		wait := cfg.QueueWait
		if wait <= 0 {
			wait = time.Second
		}
		s.limit = newLimiter(cfg.MaxInFlight, cfg.MaxQueue, wait)
	}
	s.metrics = newServerMetrics(s)
	if cfg.AccessLog != nil {
		s.accessLog = log.New(cfg.AccessLog, "", 0)
	}
	s.route("POST /v1/graphs", "/v1/graphs", s.handleSubmitGraph)
	s.route("GET /v1/graphs/{id}", "/v1/graphs/{id}", s.handleGetGraph)
	s.route("POST /v1/estimate", "/v1/estimate", s.handleEstimate)
	s.route("POST /v1/sweep", "/v1/sweep", s.handleSweep)
	s.route("POST /v1/schedule", "/v1/schedule", s.handleSchedule)
	s.route("GET /v1/cache", "/v1/cache", s.handleCache)
	s.route("GET /healthz", "/healthz", s.handleHealthz)
	s.route("GET /metrics", "/metrics", s.handleMetrics)
	s.handler = s.middleware(s.mux)
	return s
}

// route registers a handler under its mux pattern and stamps the
// request-scoped info with a fixed route label, so metrics and access
// logs carry the bounded pattern ("/v1/graphs/{id}"), never the raw
// path — label cardinality stays constant under arbitrary traffic.
// Requests no pattern matches keep the label "other".
func (s *Server) route(pattern, label string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if ri := infoFrom(r.Context()); ri != nil {
			ri.route = label
		}
		h(w, r)
	})
}

// routeOther labels requests that matched no registered pattern (the
// mux's own 404/405 responses).
const routeOther = "other"

// reqInfo is the middleware's per-request record: the route label set
// at dispatch, the effective deadline requestCtx applied, and a forced
// outcome (panic) the status code cannot express. All writes happen on
// the request's own goroutine.
type reqInfo struct {
	route    string
	deadline time.Duration // effective deadline applied; 0 = none
	outcome  string        // set only for panic; otherwise derived from status
}

// outcomeOr classifies the request for the access log: ok, shed (429),
// timeout (504), cancelled (499, client went away), panic (recovered
// handler) or error (remaining 4xx/5xx).
func (ri *reqInfo) outcomeOr(status int) string {
	if ri.outcome != "" {
		return ri.outcome
	}
	switch {
	case status == http.StatusTooManyRequests:
		return "shed"
	case status == http.StatusGatewayTimeout:
		return "timeout"
	case status == statusClientClosedRequest:
		return "cancelled"
	case status < 400:
		return "ok"
	default:
		return "error"
	}
}

type reqInfoCtxKey struct{}

// infoFrom retrieves the middleware's per-request record (nil when the
// handler runs outside the middleware, e.g. direct unit-test calls).
func infoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoCtxKey{}).(*reqInfo)
	return ri
}

// Handler returns the service's HTTP handler (the routes wrapped in the
// in-flight accounting and panic-recovery middleware).
func (s *Server) Handler() http.Handler { return s.handler }

// Registry exposes the server's graph registry (tests and stats).
func (s *Server) Registry() *Registry { return s.reg }

// StartDrain flips the server into draining: /healthz answers 503 so
// load balancers and probes stop routing here, while in-flight requests
// keep being served until the caller shuts the HTTP server down. It is
// idempotent and never blocks.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight reports the requests currently inside the handler stack.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// middleware wraps the route mux with per-request accounting, panic
// recovery and observability: a panicking handler answers 500 (when
// nothing was written yet) and emits one structured log line plus the
// stack, instead of killing the daemon and every sibling request with
// it; and every request — panicking, shed or fine — lands in the
// request metrics and, when configured, one access-log line.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ri := &reqInfo{route: routeOther}
		r = r.WithContext(context.WithValue(r.Context(), reqInfoCtxKey{}, ri))
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				ri.outcome = "panic"
				log.Printf("level=error event=panic method=%s path=%s panic=%q\n%s",
					r.Method, r.URL.Path, fmt.Sprint(p), debug.Stack())
				if !sw.wrote {
					writeError(sw, &httpError{status: http.StatusInternalServerError,
						msg: fmt.Sprintf("internal error: %v", p)})
				}
			}
			s.observe(r, sw, ri, time.Since(start))
		}()
		if faultinject.Enabled() {
			faultinject.MaybePanic("service.panic." + r.URL.Path)
		}
		next.ServeHTTP(sw, r)
	})
}

// observe records one finished request into the metric families and,
// when access logging is on, emits the structured request line — the
// counterpart of the middleware's event=panic convention:
//
//	event=request method=POST route=/v1/estimate status=200 bytes=841
//	dur_ms=1.292 deadline_ms=0 outcome=ok
//
// route is the registered pattern (bounded cardinality), bytes the
// response body size, deadline_ms the effective deadline requestCtx
// applied (0 = unbounded), outcome one of ok / shed / timeout /
// cancelled / panic / error.
func (s *Server) observe(r *http.Request, sw *statusWriter, ri *reqInfo, dur time.Duration) {
	status := sw.status
	if status == 0 {
		// The handler never called WriteHeader: net/http answered 200.
		status = http.StatusOK
	}
	s.metrics.requests.With(ri.route, strconv.Itoa(status)).Inc()
	s.metrics.latency.With(ri.route).Observe(dur.Seconds())
	s.metrics.respBytes.With(ri.route).Add(sw.bytes)
	if s.accessLog != nil {
		s.accessLog.Printf("event=request method=%s route=%s status=%d bytes=%d dur_ms=%.3f deadline_ms=%d outcome=%s",
			r.Method, ri.route, status, sw.bytes,
			float64(dur)/float64(time.Millisecond), ri.deadline.Milliseconds(), ri.outcomeOr(status))
	}
}

// statusWriter records whether a response has started (so the panic
// handler knows if a 500 can still be written), the status code and
// the body bytes written, for the request metrics and access log.
type statusWriter struct {
	http.ResponseWriter
	wrote  bool
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.wrote = true
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// limiter is the admission controller: a slot channel caps in-flight
// estimation requests, a token channel bounds the wait queue.
type limiter struct {
	slots chan struct{}
	queue chan struct{} // nil: no queue, shed instantly when full
	wait  time.Duration
}

func newLimiter(inflight, queueLen int, wait time.Duration) *limiter {
	l := &limiter{slots: make(chan struct{}, inflight), wait: wait}
	if queueLen > 0 {
		l.queue = make(chan struct{}, queueLen)
	}
	return l
}

// acquire claims an admission slot, queueing up to l.wait when the
// server is full. It returns the release func, or a 429 httpError with
// a Retry-After hint when the queue is full or the wait expires, or
// ctx's error when the request dies first.
func (l *limiter) acquire(ctx context.Context) (func(), error) {
	select {
	case l.slots <- struct{}{}:
		return func() { <-l.slots }, nil
	default:
	}
	if l.queue == nil {
		return nil, errTooBusy(l.wait)
	}
	select {
	case l.queue <- struct{}{}:
	default:
		return nil, errTooBusy(l.wait)
	}
	defer func() { <-l.queue }()
	t := time.NewTimer(l.wait)
	defer t.Stop()
	select {
	case l.slots <- struct{}{}:
		return func() { <-l.slots }, nil
	case <-t.C:
		return nil, errTooBusy(l.wait)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// admit runs the admission controller for one estimation request; the
// returned release must be called when the request finishes. Sheds are
// counted here — the only place 429s originate — so the shed series can
// never include admission-bypassed probe routes.
func (s *Server) admit(ctx context.Context) (func(), error) {
	if s.limit == nil {
		return func() {}, nil
	}
	release, err := s.limit.acquire(ctx)
	if err != nil {
		var he *httpError
		if errors.As(err, &he) && he.status == http.StatusTooManyRequests {
			s.metrics.shed.Inc()
		}
	}
	return release, err
}

// errTooBusy is the 429 shed response; Retry-After hints at the queue
// wait (rounded up to a whole second).
func errTooBusy(wait time.Duration) error {
	retry := int((wait + time.Second - 1) / time.Second)
	if retry < 1 {
		retry = 1
	}
	return &httpError{
		status:     http.StatusTooManyRequests,
		msg:        "server at capacity; retry later",
		retryAfter: retry,
	}
}

// heavy runs fn while holding the compute gate: requests overlap at the
// HTTP layer, but estimation work — which already spreads across the
// worker budget internally — runs one request at a time, keeping the
// process at ~Workers estimation goroutines under any client load. A
// context that dies while waiting for the gate abandons the wait.
func (s *Server) heavy(ctx context.Context, fn func() error) error {
	if done := ctx.Done(); done != nil {
		select {
		case s.gate <- struct{}{}:
		case <-done:
			return ctx.Err()
		}
	} else {
		s.gate <- struct{}{}
	}
	defer func() { <-s.gate }()
	return fn()
}

// requestCtx derives a request's working context: the client's
// timeout_ms, clamped by Config.MaxTimeout, with Config.DefaultTimeout
// applied when the client sets none. The base is r.Context(), so a
// dropped connection or server-wide force-cancel also aborts the work.
func (s *Server) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc, error) {
	if timeoutMS < 0 {
		return nil, nil, errBadRequest("negative timeout_ms %d", timeoutMS)
	}
	d := time.Duration(timeoutMS) * time.Millisecond
	if d == 0 {
		d = s.defaultT
	}
	if s.maxT > 0 && (d == 0 || d > s.maxT) {
		d = s.maxT
	}
	if ri := infoFrom(r.Context()); ri != nil {
		ri.deadline = d // the access log's deadline_ms field
	}
	if d <= 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// isCtxErr reports whether err is a context cancellation or deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// httpError carries a status code with a request-level failure.
type httpError struct {
	status     int
	msg        string
	retryAfter int // seconds; emitted as Retry-After when > 0
}

func (e *httpError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func errNotFound(format string, args ...any) error {
	return &httpError{status: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// reqErr classifies an estimation-phase failure: context errors pass
// through untouched (writeError maps them to 504/499), injected faults
// and other server-side failures stay 500, and anything else — engine
// config validation, bad parameters — is the client's 400.
func reqErr(err error, format string, args ...any) error {
	if isCtxErr(err) || faultinject.IsFault(err) {
		return fmt.Errorf(format+": %w", append(args, err)...)
	}
	return errBadRequest(format+": %v", append(args, err)...)
}

// statusClientClosedRequest is nginx's non-standard 499: the client
// went away before the response; nobody reads it, but the access log
// should not claim a server error.
const statusClientClosedRequest = 499

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	switch {
	case errors.As(err, &he):
		status = he.status
		if he.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
		}
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = statusClientClosedRequest
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// MaxBodyBytes bounds a /v1 request body, inline graphs included. The
// daemon answers a larger body with 413 before decoding it; makespan-lb
// applies the same cap before computing a routing key.
const MaxBodyBytes = 8 << 20

// ReadBody reads a request body of at most MaxBodyBytes into a buffer
// sized once from Content-Length; a longer body fails with
// *http.MaxBytesError.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	size := int64(0)
	if r.ContentLength > 0 {
		size = min(r.ContentLength, MaxBodyBytes)
	}
	// The MinRead spare lets ReadFrom's last read, the one that sees
	// EOF, go without growing the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	return buf.Bytes(), err
}

// decodeJSON reads and decodes a /v1 request body (see decodeRequest).
// The body must be exactly one JSON value with no unknown fields.
func decodeJSON(w http.ResponseWriter, r *http.Request, v requestBody) error {
	body, err := ReadBody(w, r)
	if err == nil {
		err = decodeRequest(body, v, true)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &httpError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return errBadRequest("bad request body: %v", err)
	}
	return nil
}

// graphRef selects a graph: a registry id, a generator spec, or an
// inline DAG in the dag JSON schema. Exactly one of graph_id, kind and
// graph must be set (k rides along with kind). It is the selector the
// lb routes by, so both hops read a body the same way.
type graphRef = RoutingSelector

// resolve turns a graphRef into a registry entry, registering generated
// or inline graphs on the fly (warm resubmissions dedup by content
// hash). A cancelled ctx aborts an in-flight freeze without caching the
// failure — the reference stays resolvable by the next request.
func (s *Server) resolve(ctx context.Context, ref graphRef) (*Entry, bool, error) {
	set := 0
	if ref.GraphID != "" {
		set++
	}
	if ref.Kind != "" {
		set++
	}
	if ref.hasInline() {
		set++
	}
	if set != 1 {
		return nil, false, errBadRequest("exactly one of graph_id, kind or graph must be given")
	}
	switch {
	case ref.GraphID != "":
		e, ok := s.reg.Get(ref.GraphID)
		if !ok {
			return nil, false, errNotFound("unknown graph %q (expired from the cache or never submitted)", ref.GraphID)
		}
		return e, false, nil
	case ref.Kind != "":
		k := ref.K
		if err := checkGeneratorK(ref.Kind, k); err != nil {
			return nil, false, errBadRequest("%v", err)
		}
		meta := GraphMeta{Kind: ref.Kind, K: k}
		if e, ok := s.reg.LookupGenerated(meta); ok {
			return e, false, nil
		}
		g, err := linalg.Generate(linalg.Factorization(ref.Kind), k, linalg.KernelTimes{})
		if err != nil {
			return nil, false, errBadRequest("%v", err)
		}
		e, created, err := s.reg.AddContext(ctx, g, meta)
		if err != nil {
			return nil, false, reqErr(err, "register graph")
		}
		return e, created, nil
	default:
		g, err := ref.inline()
		if err != nil {
			return nil, false, errBadRequest("bad graph: %v", err)
		}
		e, created, err := s.reg.AddContext(ctx, g, GraphMeta{Kind: "custom"})
		if err != nil {
			// Aside from cancellation and injected faults (which reqErr
			// keeps server-side), Add fails only on the submitted content
			// (a cyclic DAG is first caught by Freeze): the client's
			// fault, not ours.
			return nil, false, reqErr(err, "bad graph")
		}
		return e, created, nil
	}
}

// graphSummary is the response body of POST /v1/graphs and the header of
// GET /v1/graphs/{id}.
type graphSummary struct {
	ID                  string     `json:"id"`
	Created             bool       `json:"created"`
	Tasks               int        `json:"tasks"`
	Edges               int        `json:"edges"`
	MeanWeight          float64    `json:"mean_weight"`
	FailureFreeMakespan float64    `json:"failure_free_makespan"`
	Cache               *cacheJSON `json:"cache,omitempty"`
}

type cacheJSON struct {
	Bytes         int64 `json:"bytes"`
	DodinPlans    int   `json:"dodin_plans"`
	Estimators    int   `json:"mc_estimators"`
	Schedules     int   `json:"schedules"`
	AdaptiveSnaps int   `json:"adaptive_snapshots"`
}

func summarize(e *Entry, created bool, withCache bool) graphSummary {
	out := graphSummary{
		ID:                  e.ID,
		Created:             created,
		Tasks:               e.G.NumTasks(),
		Edges:               e.G.NumEdges(),
		MeanWeight:          e.G.MeanWeight(),
		FailureFreeMakespan: e.D0,
	}
	if withCache {
		ci := e.Cache()
		out.Cache = &cacheJSON{
			Bytes:         ci.Bytes,
			DodinPlans:    ci.DodinPlans,
			Estimators:    ci.Estimators,
			Schedules:     ci.Schedules,
			AdaptiveSnaps: ci.AdaptiveSnaps,
		}
	}
	return out
}

func (s *Server) handleSubmitGraph(w http.ResponseWriter, r *http.Request) {
	var ref graphRef
	if err := decodeJSON(w, r, &ref); err != nil {
		writeError(w, err)
		return
	}
	if ref.GraphID != "" {
		writeError(w, errBadRequest("POST /v1/graphs submits a graph; use GET /v1/graphs/{id} to look one up"))
		return
	}
	e, created, err := s.resolve(r.Context(), ref)
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, summarize(e, created, false))
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := s.reg.Get(id)
	if !ok {
		writeError(w, errNotFound("unknown graph %q", id))
		return
	}
	writeJSON(w, http.StatusOK, summarize(e, false, true))
}

// estimateRequest mirrors cmd/makespan's flags: the same defaults (pfail
// 0.001, seed 42, Dodin cap 64, methods "all") except -trials, which
// defaults to 0 (skip Monte Carlo) rather than the CLI's 300,000 — a
// service should not run a six-figure simulation because a field was
// omitted.
type estimateRequest struct {
	graphRef
	PFail      float64   `json:"pfail,omitempty"`
	Lambda     float64   `json:"lambda,omitempty"`
	Methods    string    `json:"methods,omitempty"`
	Trials     int       `json:"trials,omitempty"`
	Seed       *uint64   `json:"seed,omitempty"`
	DodinAtoms int       `json:"dodin_atoms,omitempty"`
	Bounds     bool      `json:"bounds,omitempty"`
	Quantiles  []float64 `json:"quantiles,omitempty"`

	// Tolerance > 0 selects adaptive Monte Carlo (trials must then be
	// omitted): run until the target statistic's CI half-width is within
	// tolerance, capped by max_trials. Exactly montecarlo.Config's
	// semantics; concurrent adaptive requests for the same stream
	// coalesce into one kernel run (see coalesce.go).
	Tolerance      float64 `json:"tolerance,omitempty"`
	TargetQuantile float64 `json:"target_quantile,omitempty"`
	Confidence     float64 `json:"confidence,omitempty"`
	MaxTrials      int     `json:"max_trials,omitempty"`

	// TimeoutMS bounds the whole request: on expiry every kernel aborts
	// at its next chunk boundary and the response is 504. Clamped by the
	// server's -max-timeout; 0 selects the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req estimateRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel, err := s.requestCtx(r, req.TimeoutMS)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	e, _, err := s.resolve(ctx, req.graphRef)
	if err != nil {
		writeError(w, err)
		return
	}
	model, err := buildModel(e.G, req.PFail, req.Lambda)
	if err != nil {
		writeError(w, errBadRequest("%v", err))
		return
	}
	// No outer gate here: buildEstimate takes the compute gate around its
	// heavy phases itself, so the Monte Carlo phase can go through the
	// coalescers (whose leaders acquire the gate) without deadlocking.
	est, err := s.buildEstimate(ctx, e, model, req)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = report.WriteEstimateJSON(w, est)
}

// buildModel mirrors cmd/makespan: an explicit λ wins, otherwise pfail —
// defaulting to the CLI's 0.001 — is calibrated on the mean task weight.
// A negative or non-finite λ is rejected instead of silently falling
// back to the pfail path.
func buildModel(g *dag.Graph, pfail, lambda float64) (failure.Model, error) {
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return failure.Model{}, fmt.Errorf("bad lambda %g (must be a finite rate >= 0)", lambda)
	}
	if lambda > 0 {
		return failure.New(lambda)
	}
	if pfail == 0 {
		pfail = 0.001
	}
	return failure.FromPfail(pfail, g.MeanWeight())
}

// buildEstimate is the warm counterpart of cmd/makespan's buildEstimate:
// identical document assembly, with construction skipped wherever the
// registry already holds the artifact — the frozen graph (always), the
// Dodin reduction plan (replayed instead of re-reduced), the Monte Carlo
// estimator snapshot (reconfigured instead of rebuilt) and the bounds
// sweeper scratch. Every substitution is bit-identical by construction,
// which the e2e suite verifies against the CLI byte for byte.
func (s *Server) buildEstimate(ctx context.Context, e *Entry, model failure.Model, req estimateRequest) (report.Estimate, error) {
	est := report.Estimate{
		Graph: report.GraphInfo{Tasks: e.G.NumTasks(), Edges: e.G.NumEdges(), MeanWeight: e.G.MeanWeight()},
		Model: report.ModelInfo{
			Lambda:        model.Lambda,
			PFailMeanTask: model.PFail(e.G.MeanWeight()),
			MTBF:          model.MTBF(),
		},
		FailureFree: e.D0,
	}
	methods, err := experiments.ParseMethods(req.Methods)
	if err != nil {
		return est, errBadRequest("%v", err)
	}
	if err := report.ValidateQuantiles(req.Quantiles); err != nil {
		return est, errBadRequest("%v", err)
	}
	if req.Trials == 0 && req.Tolerance == 0 {
		if len(req.Quantiles) > 0 {
			return est, errBadRequest("quantiles need Monte Carlo trials (trials > 0 or tolerance > 0)")
		}
		if req.MaxTrials != 0 || req.TargetQuantile != 0 || req.Confidence != 0 {
			return est, errBadRequest("monte carlo: max_trials, target_quantile and confidence need tolerance > 0")
		}
	}
	// Bounds and analytic methods run under the compute gate; the Monte
	// Carlo phase below takes it through the coalescers instead, so
	// requests sharing a trial stream don't each occupy a gate slot.
	if err := s.heavy(ctx, func() error {
		if req.Bounds {
			sw := e.Sweeper()
			lo, hi, err := sw.Bracket(model, req.DodinAtoms)
			e.PutSweeper(sw)
			if err != nil {
				return errBadRequest("bounds: %v", err)
			}
			est.Bracket = &report.BracketInfo{Lower: lo, Upper: hi}
		}
		for _, m := range methods {
			var v float64
			var dt time.Duration
			switch m {
			case experiments.MethodDodin:
				// Warm: replay the cached reduction schedule instead of
				// re-running the series-parallel reduction.
				plan, err := e.PlanContext(ctx, req.DodinAtoms, model)
				if err != nil {
					return reqErr(err, "%s", m)
				}
				t0 := time.Now()
				res, err := plan.Run(model)
				if err != nil {
					return errBadRequest("%s: %v", m, err)
				}
				v, dt = res.Estimate, time.Since(t0)
			case experiments.MethodFirstOrder:
				// Warm: evaluate on a pooled PathEvaluator over the shared
				// frozen graph instead of re-freezing per call.
				pe := e.PathEvaluator()
				t0 := time.Now()
				res := core.FirstOrderWith(pe, model)
				v, dt = res.Estimate, time.Since(t0)
				e.PutPathEvaluator(pe)
			default:
				var err error
				v, dt, err = experiments.Estimate(m, e.G, model, req.DodinAtoms)
				if err != nil {
					return errBadRequest("%s: %v", m, err)
				}
			}
			est.Methods = append(est.Methods, report.MethodEstimate{Method: string(m), Estimate: v, Time: dt})
		}
		return nil
	}); err != nil {
		return est, err
	}
	if req.Trials == 0 && req.Tolerance == 0 {
		return est, nil
	}
	seed := uint64(42)
	if req.Seed != nil {
		seed = *req.Seed
	}
	t0 := time.Now()
	warm, err := e.EstimatorContext(ctx, model, montecarlo.FullReexecution)
	if err != nil {
		return est, reqErr(err, "monte carlo")
	}
	var mc *report.MonteCarloInfo
	if req.Tolerance != 0 {
		run, err := warm.WithConfig(montecarlo.Config{
			Trials:         req.Trials, // nonzero: rejected by the engine
			Seed:           seed,
			Workers:        s.workers,
			Tolerance:      req.Tolerance,
			TargetQuantile: req.TargetQuantile,
			Confidence:     req.Confidence,
			MaxTrials:      req.MaxTrials,
		})
		if err != nil {
			return est, errBadRequest("monte carlo: %v", err)
		}
		key := adaptiveKey{lambda: model.Lambda, mode: montecarlo.FullReexecution, seed: seed}
		res, snap, err := s.coalesceAdaptive(ctx, e, key, run)
		if err != nil {
			return est, reqErr(err, "monte carlo")
		}
		mc = report.MonteCarloInfoFrom(res, seed)
		mc.Adaptive = report.AdaptiveInfoFrom(res, req.Tolerance, req.TargetQuantile, req.Confidence)
		if len(req.Quantiles) > 0 {
			sketch := snap.Sketch()
			for _, q := range req.Quantiles {
				mc.Quantiles = append(mc.Quantiles, report.QuantileValue{Q: q, Value: sketch.Quantile(q)})
			}
		}
	} else {
		run, err := warm.WithConfig(montecarlo.Config{
			Trials:         req.Trials,
			Seed:           seed,
			Workers:        s.workers,
			TargetQuantile: req.TargetQuantile,
			Confidence:     req.Confidence,
			MaxTrials:      req.MaxTrials,
		})
		if err != nil {
			return est, errBadRequest("monte carlo: %v", err)
		}
		key := fixedKey{
			lambda: model.Lambda, mode: montecarlo.FullReexecution,
			seed: seed, trials: req.Trials, sketch: len(req.Quantiles) > 0,
		}
		res, sketch, err := s.coalesceFixed(ctx, e, key, func(fctx context.Context) (montecarlo.Result, *montecarlo.QuantileSketch, error) {
			var res montecarlo.Result
			var sk *montecarlo.QuantileSketch
			err := s.heavy(fctx, func() error {
				var err error
				if key.sketch {
					res, sk, err = run.RunQuantilesContext(fctx)
				} else {
					res, err = run.RunContext(fctx)
				}
				return err
			})
			return res, sk, err
		})
		if err != nil {
			return est, reqErr(err, "monte carlo")
		}
		mc = report.MonteCarloInfoFrom(res, seed)
		for _, q := range req.Quantiles {
			mc.Quantiles = append(mc.Quantiles, report.QuantileValue{Q: q, Value: sketch.Quantile(q)})
		}
	}
	mc.Time = time.Since(t0)
	est.MonteCarlo = mc
	return est, nil
}

// scheduleRequest mirrors cmd/schedsim's flags with the service's
// defaults: policies "both", pfail 0.001, seed 42 — and trials 0 skips
// Monte Carlo (the estimate-endpoint convention: a service should not
// run a six-figure simulation because a field was omitted; schedsim's
// -trials 0 selects the engine default instead).
type scheduleRequest struct {
	graphRef
	Procs     int       `json:"procs"`
	Policies  string    `json:"policies,omitempty"`
	PFail     float64   `json:"pfail,omitempty"`
	Lambda    float64   `json:"lambda,omitempty"`
	Trials    int       `json:"trials,omitempty"`
	Seed      *uint64   `json:"seed,omitempty"`
	Quantiles []float64 `json:"quantiles,omitempty"`

	// Adaptive stopping, per policy, with the estimate endpoint's
	// semantics: tolerance > 0 runs each policy's trial stream until its
	// CI is within tolerance (trials must then be omitted).
	Tolerance      float64 `json:"tolerance,omitempty"`
	TargetQuantile float64 `json:"target_quantile,omitempty"`
	Confidence     float64 `json:"confidence,omitempty"`
	MaxTrials      int     `json:"max_trials,omitempty"`

	// TimeoutMS bounds the whole request (see estimateRequest.TimeoutMS).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var req scheduleRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Procs < 1 {
		writeError(w, errBadRequest("procs must be >= 1, got %d", req.Procs))
		return
	}
	if req.Trials < 0 {
		writeError(w, errBadRequest("negative trials %d", req.Trials))
		return
	}
	policies, err := schedmc.ParsePolicies(req.Policies)
	if err != nil {
		writeError(w, errBadRequest("%v", err))
		return
	}
	if err := report.ValidateQuantiles(req.Quantiles); err != nil {
		writeError(w, errBadRequest("%v", err))
		return
	}
	if req.Trials == 0 && req.Tolerance == 0 {
		if len(req.Quantiles) > 0 {
			writeError(w, errBadRequest("quantiles need Monte Carlo trials (trials > 0 or tolerance > 0)"))
			return
		}
		if req.MaxTrials != 0 || req.TargetQuantile != 0 || req.Confidence != 0 {
			writeError(w, errBadRequest("max_trials, target_quantile and confidence need tolerance > 0"))
			return
		}
	}
	ctx, cancel, err := s.requestCtx(r, req.TimeoutMS)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	e, _, err := s.resolve(ctx, req.graphRef)
	if err != nil {
		writeError(w, err)
		return
	}
	model, err := buildModel(e.G, req.PFail, req.Lambda)
	if err != nil {
		writeError(w, errBadRequest("%v", err))
		return
	}
	// Like handleEstimate: buildSchedule gates its own heavy phases so
	// the Monte Carlo runs can coalesce across requests.
	doc, err := s.buildSchedule(ctx, e, model, policies, req)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = report.WriteScheduleJSON(w, doc)
}

// buildSchedule is the warm counterpart of schedsim's document assembly:
// identical field for field, except the frozen schedule and compiled
// estimator come from the registry when a previous request already built
// them (ScheduleEstimator), so a warm request pays only the O(1)
// reconfiguration plus the trials themselves.
func (s *Server) buildSchedule(ctx context.Context, e *Entry, model failure.Model, policies []schedmc.Policy, req scheduleRequest) (report.Schedule, error) {
	doc := report.Schedule{
		Graph: report.GraphInfo{Tasks: e.G.NumTasks(), Edges: e.G.NumEdges(), MeanWeight: e.G.MeanWeight()},
		Model: report.ModelInfo{
			Lambda:        model.Lambda,
			PFailMeanTask: model.PFail(e.G.MeanWeight()),
			MTBF:          model.MTBF(),
		},
		Procs:        req.Procs,
		CriticalPath: e.D0,
	}
	seed := uint64(42)
	if req.Seed != nil {
		seed = *req.Seed
	}
	// List scheduling never uses more processors than tasks, so every
	// count past n shares the schedule, its artifacts and its Monte Carlo
	// runs with procs = n; only the echoed procs and efficiency use the
	// requested count.
	procs := min(req.Procs, max(e.G.NumTasks(), 1))
	for _, pol := range policies {
		// Schedule freezing and estimator compilation are heavy; gate
		// them. The Monte Carlo phase goes through the coalescers.
		var warm *schedmc.Estimator
		if err := s.heavy(ctx, func() error {
			var err error
			warm, err = e.ScheduleEstimatorContext(ctx, pol, procs, model)
			if err != nil {
				return reqErr(err, "%s", pol)
			}
			return nil
		}); err != nil {
			return doc, err
		}
		fs := warm.Schedule()
		p := report.SchedulePolicy{
			Policy:      string(pol),
			Label:       pol.Label(),
			FailureFree: fs.Makespan,
			Efficiency:  fs.EfficiencyOn(req.Procs),
			ChainEdges:  fs.ChainEdges,
		}
		if req.Trials > 0 || req.Tolerance != 0 {
			t0 := time.Now()
			var mc *report.MonteCarloInfo
			if req.Tolerance != 0 {
				run, err := warm.WithConfig(schedmc.Config{
					Trials:         req.Trials, // nonzero: rejected by the engine
					Seed:           seed,
					Workers:        s.workers,
					Tolerance:      req.Tolerance,
					TargetQuantile: req.TargetQuantile,
					Confidence:     req.Confidence,
					MaxTrials:      req.MaxTrials,
				})
				if err != nil {
					return doc, errBadRequest("%s: %v", pol, err)
				}
				key := adaptiveKey{
					sched: true, policy: pol, procs: procs,
					lambda: model.Lambda, mode: montecarlo.FullReexecution, seed: seed,
				}
				res, snap, err := s.coalesceAdaptive(ctx, e, key, run)
				if err != nil {
					return doc, reqErr(err, "%s", pol)
				}
				mc = report.MonteCarloInfoFrom(res, seed)
				mc.Adaptive = report.AdaptiveInfoFrom(res, req.Tolerance, req.TargetQuantile, req.Confidence)
				if len(req.Quantiles) > 0 {
					sketch := snap.Sketch()
					for _, q := range req.Quantiles {
						mc.Quantiles = append(mc.Quantiles, report.QuantileValue{Q: q, Value: sketch.Quantile(q)})
					}
				}
			} else {
				run, err := warm.WithConfig(schedmc.Config{
					Trials:         req.Trials,
					Seed:           seed,
					Workers:        s.workers,
					TargetQuantile: req.TargetQuantile,
					Confidence:     req.Confidence,
					MaxTrials:      req.MaxTrials,
				})
				if err != nil {
					return doc, errBadRequest("%s: %v", pol, err)
				}
				key := fixedKey{
					sched: true, policy: pol, procs: procs,
					lambda: model.Lambda, mode: montecarlo.FullReexecution,
					seed: seed, trials: req.Trials, sketch: len(req.Quantiles) > 0,
				}
				res, sketch, err := s.coalesceFixed(ctx, e, key, func(fctx context.Context) (montecarlo.Result, *montecarlo.QuantileSketch, error) {
					var res montecarlo.Result
					var sk *montecarlo.QuantileSketch
					err := s.heavy(fctx, func() error {
						var err error
						if key.sketch {
							res, sk, err = run.RunQuantilesContext(fctx)
						} else {
							res, err = run.RunContext(fctx)
						}
						return err
					})
					return res, sk, err
				})
				if err != nil {
					return doc, reqErr(err, "%s", pol)
				}
				mc = report.MonteCarloInfoFrom(res, seed)
				for _, q := range req.Quantiles {
					mc.Quantiles = append(mc.Quantiles, report.QuantileValue{Q: q, Value: sketch.Quantile(q)})
				}
			}
			mc.Time = time.Since(t0)
			p.MonteCarlo = mc
		}
		doc.Policies = append(doc.Policies, p)
	}
	return doc, nil
}

// sweepRequest mirrors `experiments -sweep`: LU k=10 across five pfail
// decades by default, methods defaulting to the paper's three, trials 0
// selecting the paper's 300,000.
type sweepRequest struct {
	graphRef
	PFails     []float64 `json:"pfails,omitempty"`
	Methods    string    `json:"methods,omitempty"`
	Trials     int       `json:"trials,omitempty"`
	Seed       *uint64   `json:"seed,omitempty"`
	DodinAtoms int       `json:"dodin_atoms,omitempty"`

	// TimeoutMS bounds the whole request (see estimateRequest.TimeoutMS).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel, err := s.requestCtx(r, req.TimeoutMS)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	def := experiments.DefaultSweep()
	if req.IsZero() {
		// Zero-config parity with `experiments -sweep`.
		req.Kind, req.K = string(def.Fact), def.K
	}
	e, _, err := s.resolve(ctx, req.graphRef)
	if err != nil {
		writeError(w, err)
		return
	}
	meta := e.Meta()
	spec := experiments.SweepSpec{
		Fact:   linalg.Factorization(meta.Kind),
		K:      meta.K,
		PFails: req.PFails,
	}
	if len(spec.PFails) == 0 {
		spec.PFails = def.PFails
	}
	for _, pf := range spec.PFails {
		if pf <= 0 || pf >= 1 {
			writeError(w, errBadRequest("sweep pfail %g outside (0,1)", pf))
			return
		}
	}
	var methods []experiments.Method
	if req.Methods != "" && req.Methods != "paper" {
		methods, err = experiments.ParseMethods(req.Methods)
		if err != nil {
			writeError(w, errBadRequest("%v", err))
			return
		}
	}
	seed := uint64(42)
	if req.Seed != nil {
		seed = *req.Seed
	}
	opts := experiments.Options{
		Trials:        req.Trials,
		Seed:          seed,
		Methods:       methods,
		DodinMaxAtoms: req.DodinAtoms,
		Workers:       s.workers,
		Context:       ctx,
	}
	// The sweep resolves its shared artifacts — Dodin plan, per-λ Monte
	// Carlo estimators — through the registry's store, so repeat sweeps
	// (and estimates touching the same artifacts) stay warm.
	opts.Artifacts = s.reg.Store()
	var res experiments.SweepResult
	if err := s.heavy(ctx, func() error {
		var err error
		res, err = experiments.RunSweepGraph(e.Artifact(), spec, opts)
		if err != nil {
			return reqErr(err, "sweep")
		}
		return nil
	}); err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = report.WriteSweepJSON(w, res, opts.Methods)
}

// kindStatsJSON is one artifact kind's row in GET /v1/cache.
type kindStatsJSON struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Resident      int64 `json:"resident"`
	ResidentBytes int64 `json:"resident_bytes"`
}

// cacheStatsResponse is the GET /v1/cache body: the artifact store's
// per-kind resolver statistics plus overall occupancy and the requests
// currently inside the handler stack (drain observability).
type cacheStatsResponse struct {
	UsedBytes   int64                    `json:"used_bytes"`
	BudgetBytes int64                    `json:"budget_bytes"`
	InFlight    int64                    `json:"in_flight"`
	Kinds       map[string]kindStatsJSON `json:"kinds"`
}

// handleCache serves the resolver's per-kind hit/miss/eviction and
// residency counters. Every declared kind is always present (zeroed
// before first use) so clients can rely on the shape.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	st := s.reg.Store()
	stats := st.Stats()
	out := cacheStatsResponse{
		UsedBytes:   st.UsedBytes(),
		BudgetBytes: st.Budget(),
		InFlight:    s.inflight.Load(),
		Kinds:       make(map[string]kindStatsJSON, len(artifact.Kinds())),
	}
	for _, kind := range artifact.Kinds() {
		ks := stats[kind]
		out.Kinds[kind] = kindStatsJSON{
			Hits:          ks.Hits,
			Misses:        ks.Misses,
			Evictions:     ks.Evictions,
			Resident:      ks.Resident,
			ResidentBytes: ks.ResidentBytes,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

type healthzResponse struct {
	Status          string `json:"status"`
	Graphs          int    `json:"graphs"`
	CacheUsedBytes  int64  `json:"cache_used_bytes"`
	CacheBudget     int64  `json:"cache_budget_bytes"`
	Workers         int    `json:"workers"`
	CacheHits       int64  `json:"cache_hits"`
	CacheMisses     int64  `json:"cache_misses"`
	CacheEvictions  int64  `json:"cache_evictions"`
	UptimeSeconds   int64  `json:"uptime_seconds"`
	GoMaxProcs      int    `json:"gomaxprocs"`
	ServiceRevision string `json:"service"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.reg.Stats()
	// Draining flips the probe to 503 so load balancers stop routing
	// here; requests already in flight keep being served.
	status, state := http.StatusOK, "ok"
	if s.draining.Load() {
		status, state = http.StatusServiceUnavailable, "draining"
	}
	writeJSON(w, status, healthzResponse{
		Status:          state,
		Graphs:          st.Graphs,
		CacheUsedBytes:  st.UsedBytes,
		CacheBudget:     st.Budget,
		Workers:         s.workers,
		CacheHits:       st.Hits,
		CacheMisses:     st.Misses,
		CacheEvictions:  st.Evictions,
		UptimeSeconds:   int64(time.Since(s.started).Seconds()),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		ServiceRevision: "makespand/v1",
	})
}
