package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/linalg"
	"repro/internal/montecarlo"
	"repro/internal/query"
	"repro/internal/report"
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
	case status == query.StatusClientClosedRequest:
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
	return query.Gated(ctx, runner{s}, fn)
}

// acquire takes the compute gate; release it with <-s.gate.
func (s *Server) acquire(ctx context.Context) error {
	if done := ctx.Done(); done != nil {
		select {
		case s.gate <- struct{}{}:
			return nil
		case <-done:
			return ctx.Err()
		}
	}
	s.gate <- struct{}{}
	return nil
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

// writeError answers err as a JSON error document: an httpError with
// its own status, anything else — query, resolution and admission
// failures — with the status query.Status maps it to.
func writeError(w http.ResponseWriter, err error) {
	var status int
	var he *httpError
	if errors.As(err, &he) {
		status = he.status
		if he.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
		}
	} else {
		status = query.Status(err)
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
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
			return nil, false, fmt.Errorf("register graph: %w", err)
		}
		return e, created, nil
	default:
		g, err := ref.inline()
		if err != nil {
			return nil, false, errBadRequest("bad graph: %v", err)
		}
		e, created, err := s.reg.AddContext(ctx, g, GraphMeta{Kind: "custom"})
		if err != nil {
			// Aside from cancellation and injected faults (which
			// query.Status keeps server-side), Add fails only on the
			// submitted content (a cyclic DAG is first caught by Freeze):
			// the client's fault, not ours.
			return nil, false, fmt.Errorf("bad graph: %w", err)
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

// estimateRequest is POST /v1/estimate's body: a graph selector, the
// query.Estimate parameters cmd/makespan fills from its flags, and the
// request deadline. The service's defaults differ from the CLI's in two
// places: an omitted pfail is query.DefaultPFail, and trials 0 skips
// Monte Carlo — a service should not run a six-figure simulation
// because a field was omitted.
type estimateRequest struct {
	graphRef
	query.Estimate

	// TimeoutMS bounds the whole request: on expiry every kernel aborts
	// at its next chunk boundary and the response is 504. Clamped by the
	// server's -max-timeout; 0 selects the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// scheduleRequest is POST /v1/schedule's body, cmd/schedsim's flags
// with the estimate route's defaults (schedsim's -trials 0 selects the
// engine default instead).
type scheduleRequest struct {
	graphRef
	query.Schedule

	// TimeoutMS bounds the whole request (see estimateRequest.TimeoutMS).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// sweepRequest is POST /v1/sweep's body, `experiments -sweep`'s flags:
// LU k=10 across five pfail decades when no graph is named.
type sweepRequest struct {
	graphRef
	query.Sweep

	// TimeoutMS bounds the whole request (see estimateRequest.TimeoutMS).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// start runs the steps every query route shares after decoding and
// validating: the request deadline, admission and graph resolution.
// On success the caller must call release and then cancel when the
// request finishes.
func (s *Server) start(r *http.Request, ref graphRef, timeoutMS int64) (ctx context.Context, e *Entry, release, cancel func(), err error) {
	if ctx, cancel, err = s.requestCtx(r, timeoutMS); err != nil {
		return nil, nil, nil, nil, err
	}
	if release, err = s.admit(ctx); err != nil {
		cancel()
		return nil, nil, nil, nil, err
	}
	if e, _, err = s.resolve(ctx, ref); err != nil {
		release()
		cancel()
		return nil, nil, nil, nil, err
	}
	return ctx, e, release, cancel, nil
}

// queryRequest is an estimate or schedule request body, answered with
// a document of type D.
type queryRequest[D any] interface {
	requestBody
	FillDefaults()
	Validate() error
	Model(*dag.Graph) (failure.Model, error)
	Run(context.Context, query.Graph, failure.Model, query.Runner) (D, error)
	target() (graphRef, int64)
}

func (q *estimateRequest) target() (graphRef, int64) { return q.graphRef, q.TimeoutMS }
func (q *scheduleRequest) target() (graphRef, int64) { return q.graphRef, q.TimeoutMS }

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	serveQuery(s, w, r, &estimateRequest{}, report.WriteEstimateJSON)
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	serveQuery(s, w, r, &scheduleRequest{}, report.WriteScheduleJSON)
}

// serveQuery is the estimate and schedule routes' one path: decode,
// default and validate req, admit and resolve its graph, build the
// failure model, run the query and render its document.
func serveQuery[D any](s *Server, w http.ResponseWriter, r *http.Request, req queryRequest[D], render func(io.Writer, D) error) {
	if err := decodeJSON(w, r, req); err != nil {
		writeError(w, err)
		return
	}
	req.FillDefaults()
	if err := req.Validate(); err != nil {
		writeError(w, err)
		return
	}
	ref, timeoutMS := req.target()
	ctx, e, release, cancel, err := s.start(r, ref, timeoutMS)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	defer release()
	model, err := req.Model(e.G)
	if err != nil {
		writeError(w, err)
		return
	}
	doc, err := req.Run(ctx, e, model, runner{s})
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = render(w, doc)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	// The sweep resolves its shared artifacts — Dodin plan, per-λ Monte
	// Carlo estimators — through the registry's store, so repeat sweeps
	// (and estimates touching the same artifacts) stay warm.
	opts, err := req.Options(experiments.Options{Workers: s.workers, Artifacts: s.reg.Store()})
	if err != nil {
		writeError(w, err)
		return
	}
	if req.IsZero() {
		// Zero-config parity with `experiments -sweep`.
		req.graphRef = DefaultSweepSelector()
	}
	ctx, e, release, cancel, err := s.start(r, req.graphRef, req.TimeoutMS)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	defer release()
	meta := e.Meta()
	opts.Context = ctx
	var res experiments.SweepResult
	if err := s.heavy(ctx, func() error {
		var err error
		if res, err = experiments.RunSweepGraph(e.Artifact(), req.Spec(meta.Kind, meta.K), opts); err != nil {
			return fmt.Errorf("sweep: %w", err)
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

// runner is makespand's query.Runner: heavy phases hold the compute
// gate, and Monte Carlo runs go through the entry's coalescers (whose
// kernels take the gate themselves), so requests sharing a trial stream
// share one kernel run. The graphs it is handed are registry entries.
type runner struct{ s *Server }

func (r runner) Workers() int                      { return r.s.workers }
func (r runner) Acquire(ctx context.Context) error { return r.s.acquire(ctx) }
func (r runner) Release()                          { <-r.s.gate }

func (r runner) Fixed(ctx context.Context, g query.Graph, key query.FixedKey, k query.Kernel) (montecarlo.Result, *montecarlo.QuantileSketch, error) {
	return r.s.coalesceFixed(ctx, g.(*Entry), key, k)
}

func (r runner) Adaptive(ctx context.Context, g query.Graph, key artifact.SnapshotKey, k query.Kernel) (montecarlo.Result, *montecarlo.Snapshot, error) {
	return r.s.coalesceAdaptive(ctx, g.(*Entry), key, k)
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
