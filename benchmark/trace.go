package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/lb"
	"repro/internal/linalg"
	"repro/internal/montecarlo"
	"repro/internal/report"
	"repro/internal/schedmc"
	"repro/internal/service"
	"repro/internal/spgraph"
)

// span is one timed call of the traced replay. Spans of one request
// share Req (priming requests count down from -1); Parent is the
// enclosing span's ID (-1 at the top).
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Miss marks an artifact.<kind> call whose store built the artifact.
	Miss bool `json:"miss,omitempty"`
	// Probe marks a layer call the replay timed on its own, after the
	// request, on the request's inputs (see replayer.probe).
	Probe bool `json:"probe,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the replay's spans in memory; they are written out once
// the replay ends.
type tracer struct {
	t0    time.Time
	req   int
	spans []span
	stack []int
}

// do runs fn inside a span named name and returns the span's ID.
func (t *tracer) do(name string, fn func() error) (int, error) {
	id := len(t.spans)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Req: t.req, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	err := fn()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = int64(time.Since(t.t0))
	return id, err
}

// split ends span id at t and records the rest of its interval as a
// sibling span named name.
func (t *tracer) split(id int, at int64, name string) {
	sp := t.spans[id]
	t.spans[id].End = at
	t.spans = append(t.spans, span{Req: sp.Req, ID: len(t.spans), Parent: sp.Parent, Name: name, Start: at, End: sp.End})
}

// replayer answers a workload's requests by calling, in the order the
// daemon's estimate and schedule handlers call them, the same public
// functions, each inside a span named after its layer. Artifacts are
// resolved through a service.Registry per replica with the replica's
// byte budget, so hits, builds and evictions are the daemon's own.
type replayer struct {
	tr      *tracer
	workers int
	regs    []*service.Registry // one per replica
	reg     *service.Registry   // the replica serving the current request

	// probes are the current request's layer probes, run once it ends.
	probes []func()
	// graphBuilt reports whether the current request's graph was built.
	graphBuilt bool

	mcTrials       int64 // trials run by montecarlo.run spans
	adaptiveTrials []float64
	renderBytes    []float64
}

func newReplayer(w workload) *replayer {
	rp := &replayer{tr: &tracer{t0: time.Now()}, workers: serverWorkers}
	for i := 0; i < w.replicas; i++ {
		rp.regs = append(rp.regs, service.NewRegistry(w.cacheBytes))
	}
	rp.reg = rp.regs[0]
	return rp
}

// serve answers r on replica i's registry, then runs the request's
// probes.
func (rp *replayer) serve(r request, replica int) ([]byte, error) {
	rp.reg, rp.graphBuilt = rp.regs[replica], false
	var body []byte
	_, err := rp.tr.do("service.request", func() (err error) {
		if r.Route == "/v1/schedule" {
			body, err = rp.schedule(r.Body)
		} else {
			body, err = rp.estimate(r.Body)
		}
		return err
	})
	for _, p := range rp.probes {
		p()
	}
	rp.probes = rp.probes[:0]
	return body, err
}

// probe queues fn, a direct call of the layer function the store's
// build rule (or the graph key) wraps, to be timed as a span of its own
// once the request ends. The replay cannot time inside a store call, so
// probes give the layer's own share of an artifact.<kind> span; they
// redo that work, so they stay outside every request's time.
func (rp *replayer) probe(name string, fn func() error) {
	req := rp.tr.req
	rp.probes = append(rp.probes, func() {
		t := rp.tr
		s := span{Req: req, ID: len(t.spans), Parent: -1, Name: name, Probe: true, Start: int64(time.Since(t.t0))}
		_ = fn() // the same call just succeeded inside the store
		s.End = int64(time.Since(t.t0))
		t.spans = append(t.spans, s)
	})
}

// artifactCall runs fn, one registry call resolving an artifact of the
// given kind, inside a span named artifact.<kind>, and reports whether
// the store built it: its miss counter for the kind moved.
func (rp *replayer) artifactCall(kind string, fn func() error) (bool, error) {
	before := rp.reg.Store().Stats()[kind].Misses
	id, err := rp.tr.do("artifact."+kind, fn)
	miss := rp.reg.Store().Stats()[kind].Misses > before
	rp.tr.spans[id].Miss = miss
	return miss, err
}

// resolve mirrors the daemon's graph resolution: a generator spec is
// looked up by (kind, k) and generated only on a miss; an inline graph
// is decoded; either is then registered, which content-hashes it and
// freezes it only when new.
func (rp *replayer) resolve(kind string, k int, inline json.RawMessage) (*service.Entry, error) {
	var e *service.Entry
	_, err := rp.tr.do("artifact.resolve", func() error {
		var g *dag.Graph
		meta := service.GraphMeta{Kind: "custom"}
		if kind != "" {
			meta = service.GraphMeta{Kind: kind, K: k}
			var ok bool
			_, _ = rp.tr.do("artifact.lookup", func() error {
				e, ok = rp.reg.LookupGenerated(meta)
				return nil
			})
			if ok {
				return nil
			}
			if _, err := rp.tr.do("linalg.generate", func() (err error) {
				g, err = linalg.Generate(linalg.Factorization(kind), k, linalg.KernelTimes{})
				return err
			}); err != nil {
				return err
			}
		} else {
			g = new(dag.Graph)
			if _, err := rp.tr.do("dag.decode", func() error { return json.Unmarshal(inline, g) }); err != nil {
				return err
			}
		}
		miss, err := rp.artifactCall(artifact.KindGraph, func() (err error) {
			e, _, err = rp.reg.AddContext(context.Background(), g, meta)
			return err
		})
		if err != nil {
			return err
		}
		rp.graphBuilt = miss
		rp.probe("artifact.graph_key", func() error {
			canonical, err := json.Marshal(g)
			_ = artifact.GraphID(canonical)
			return err
		})
		if miss {
			rp.probe("dag.freeze", func() error {
				_, err := dag.Freeze(g)
				return err
			})
		}
		return nil
	})
	return e, err
}

// model mirrors the daemon's failure model: pfail (default 0.001)
// calibrated on the mean task weight.
func model(g *dag.Graph, pfail float64) (failure.Model, error) {
	if pfail == 0 {
		pfail = 0.001
	}
	return failure.FromPfail(pfail, g.MeanWeight())
}

func seedOr42(s *uint64) uint64 {
	if s != nil {
		return *s
	}
	return 42
}

// methodSpan names the span of an analytic method the daemon computes
// from scratch on every request.
func methodSpan(m experiments.Method) string {
	if m == experiments.MethodNormal {
		return "normal.estimate"
	}
	return "experiments.estimate"
}

func (rp *replayer) estimate(body []byte) ([]byte, error) {
	ctx := context.Background()
	var req estimateBody
	if _, err := rp.tr.do("service.decode", func() error { return json.Unmarshal(body, &req) }); err != nil {
		return nil, err
	}
	e, err := rp.resolve(req.Kind, req.K, req.Graph)
	if err != nil {
		return nil, err
	}
	m, err := model(e.G, req.PFail)
	if err != nil {
		return nil, err
	}
	est := report.Estimate{
		Graph:       report.GraphInfo{Tasks: e.G.NumTasks(), Edges: e.G.NumEdges(), MeanWeight: e.G.MeanWeight()},
		Model:       report.ModelInfo{Lambda: m.Lambda, PFailMeanTask: m.PFail(e.G.MeanWeight()), MTBF: m.MTBF()},
		FailureFree: e.D0,
	}
	methods, err := experiments.ParseMethods(req.Methods)
	if err != nil {
		return nil, err
	}
	if req.Bounds {
		if _, err := rp.tr.do("bounds.bracket", func() error {
			sw := e.Sweeper()
			lo, hi, err := sw.Bracket(m, 0)
			e.PutSweeper(sw)
			est.Bracket = &report.BracketInfo{Lower: lo, Upper: hi}
			return err
		}); err != nil {
			return nil, err
		}
	}
	for _, meth := range methods {
		var v float64
		var err error
		switch meth {
		case experiments.MethodDodin:
			var plan *spgraph.Plan
			var miss bool
			miss, err = rp.artifactCall(artifact.KindPlan, func() (err error) {
				plan, err = e.PlanContext(ctx, 0, m)
				return err
			})
			if miss {
				rp.probe("spgraph.plan_build", func() error {
					_, _, _, err := spgraph.DodinPlan(e.G, m, 0)
					return err
				})
			}
			if err == nil {
				_, err = rp.tr.do("spgraph.replay", func() error {
					res, err := plan.Run(m)
					v = res.Estimate
					return err
				})
			}
		case experiments.MethodFirstOrder:
			_, err = rp.tr.do("core.first_order", func() error {
				pe := e.PathEvaluator()
				v = core.FirstOrderWith(pe, m).Estimate
				e.PutPathEvaluator(pe)
				return nil
			})
		default:
			_, err = rp.tr.do(methodSpan(meth), func() (err error) {
				v, _, err = experiments.Estimate(meth, e.G, m, 0)
				return err
			})
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", meth, err)
		}
		est.Methods = append(est.Methods, report.MethodEstimate{Method: string(meth), Estimate: v})
	}
	if req.Trials > 0 || req.Tolerance > 0 {
		mc, err := rp.monteCarlo(ctx, e, m, req)
		if err != nil {
			return nil, err
		}
		est.MonteCarlo = mc
	}
	return rp.render(func(w *bytes.Buffer) error { return report.WriteEstimateJSON(w, est) })
}

// monteCarlo is the estimate's Monte Carlo phase: the compiled
// estimator from the store, then a fixed-budget run, or an adaptive run
// from the stored snapshot of its seed (none for a fresh seed) whose
// result is stored back, as the daemon's coalescers do.
func (rp *replayer) monteCarlo(ctx context.Context, e *service.Entry, m failure.Model, req estimateBody) (*report.MonteCarloInfo, error) {
	var warm *montecarlo.Estimator
	miss, err := rp.artifactCall(artifact.KindEstimator, func() (err error) {
		warm, err = e.EstimatorContext(ctx, m, montecarlo.FullReexecution)
		return err
	})
	if err != nil {
		return nil, err
	}
	if miss {
		rp.probe("montecarlo.estimator_build", func() error {
			_, err := montecarlo.NewEstimatorFrozen(e.Frozen, m, montecarlo.Config{Trials: 1, Workers: 1, Mode: montecarlo.FullReexecution})
			return err
		})
	}
	seed := seedOr42(req.Seed)
	run, err := warm.WithConfig(montecarlo.Config{Trials: req.Trials, Seed: seed, Workers: rp.workers, Tolerance: req.Tolerance})
	if err != nil {
		return nil, err
	}
	store := rp.reg.Store()
	snapKey := artifact.SnapshotKey{Lambda: m.Lambda, Mode: montecarlo.FullReexecution, Seed: seed}
	var prev *montecarlo.Snapshot
	if req.Tolerance > 0 {
		_, _ = rp.tr.do("artifact.snap", func() error {
			if snap, ok := store.Snapshot(e.Artifact(), snapKey); ok && run.SnapshotConverged(snap) {
				prev = snap
			} else {
				prev, _ = store.PeekSnapshot(e.Artifact(), snapKey)
			}
			return nil
		})
	}
	var res montecarlo.Result
	var snap *montecarlo.Snapshot
	var decided int64 // when the adaptive stopping rule fired
	runSpan, err := rp.tr.do("montecarlo.run", func() (err error) {
		if req.Tolerance > 0 {
			// The daemon's adaptive flight, stopped by the request's own
			// rule. The daemon answers as soon as the rule fires, while
			// the flight drains the chunk its worker started
			// speculatively, still holding the compute gate; that drain
			// is split off into a span of its own.
			res, snap, err = run.ResumeAdaptiveContext(ctx, prev, func(s *montecarlo.Snapshot) bool {
				ok := run.SnapshotConverged(s)
				if ok && decided == 0 {
					decided = int64(time.Since(rp.tr.t0))
				}
				return ok
			})
			return err
		}
		res, err = run.RunContext(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	if decided != 0 {
		rp.tr.split(runSpan, decided, "montecarlo.drain")
	}
	rp.mcTrials += int64(res.TrialsRun)
	mc := report.MonteCarloInfoFrom(res, seed)
	if req.Tolerance > 0 {
		_, _ = rp.tr.do("artifact.snap", func() error {
			if old, ok := store.PeekSnapshot(e.Artifact(), snapKey); store.Resident(e.Artifact()) && (!ok || snap.Chunks() > old.Chunks()) {
				store.PutSnapshot(e.Artifact(), snapKey, snap)
			}
			return nil
		})
		mc.Adaptive = report.AdaptiveInfoFrom(res, req.Tolerance, 0, 0)
		rp.adaptiveTrials = append(rp.adaptiveTrials, float64(res.TrialsRun))
	}
	return mc, nil
}

func (rp *replayer) schedule(body []byte) ([]byte, error) {
	ctx := context.Background()
	var req scheduleBody
	if _, err := rp.tr.do("service.decode", func() error { return json.Unmarshal(body, &req) }); err != nil {
		return nil, err
	}
	e, err := rp.resolve(req.Kind, req.K, nil)
	if err != nil {
		return nil, err
	}
	m, err := model(e.G, req.PFail)
	if err != nil {
		return nil, err
	}
	doc := report.Schedule{
		Graph:        report.GraphInfo{Tasks: e.G.NumTasks(), Edges: e.G.NumEdges(), MeanWeight: e.G.MeanWeight()},
		Model:        report.ModelInfo{Lambda: m.Lambda, PFailMeanTask: m.PFail(e.G.MeanWeight()), MTBF: m.MTBF()},
		Procs:        req.Procs,
		CriticalPath: e.D0,
	}
	policies, err := schedmc.ParsePolicies("")
	if err != nil {
		return nil, err
	}
	seed := seedOr42(req.Seed)
	for _, pol := range policies {
		var warm *schedmc.Estimator
		miss, err := rp.artifactCall(artifact.KindSchedule, func() (err error) {
			warm, err = e.ScheduleEstimatorContext(ctx, pol, req.Procs, m)
			return err
		})
		if err != nil {
			return nil, err
		}
		if miss {
			rp.probe("schedmc.freeze", func() error {
				fs, err := schedmc.Freeze(e.G, pol, req.Procs, m)
				if err != nil {
					return err
				}
				_, err = schedmc.NewEstimator(fs, m, schedmc.Config{Trials: 1, Workers: 1})
				return err
			})
		}
		fs := warm.Schedule()
		p := report.SchedulePolicy{Policy: string(pol), Label: pol.Label(), FailureFree: fs.Makespan,
			Efficiency: fs.Efficiency(), ChainEdges: fs.ChainEdges}
		if req.Trials > 0 {
			var res montecarlo.Result
			if _, err := rp.tr.do("schedmc.run", func() error {
				run, err := warm.WithConfig(schedmc.Config{Trials: req.Trials, Seed: seed, Workers: rp.workers})
				if err != nil {
					return err
				}
				res, err = run.RunContext(ctx)
				return err
			}); err != nil {
				return nil, err
			}
			p.MonteCarlo = report.MonteCarloInfoFrom(res, seed)
		}
		doc.Policies = append(doc.Policies, p)
	}
	return rp.render(func(w *bytes.Buffer) error { return report.WriteScheduleJSON(w, doc) })
}

func (rp *replayer) render(write func(*bytes.Buffer) error) ([]byte, error) {
	var buf bytes.Buffer
	_, err := rp.tr.do("report.render", func() error { return write(&buf) })
	rp.renderBytes = append(rp.renderBytes, float64(buf.Len()))
	return buf.Bytes(), err
}

// timedHandler accumulates the time its handler spends serving, so the
// lb's own share of a proxied request can be separated out.
type timedHandler struct {
	h  http.Handler
	ns atomic.Int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	t.ns.Add(int64(time.Since(t0)))
}

// inProcessFront is the traced run's stand-in for the workload's
// servers: the service handler itself, or, for fleet workloads, the lb
// handler over in-process replicas on loopback listeners.
type inProcessFront struct {
	h        http.Handler
	replicas []*timedHandler
	servers  []*httptest.Server
	router   *lb.Router
}

func newInProcessFront(w workload) (*inProcessFront, error) {
	cfg := service.Config{Workers: serverWorkers, CacheBytes: w.cacheBytes}
	if !w.lb {
		return &inProcessFront{h: service.New(cfg).Handler()}, nil
	}
	f := &inProcessFront{}
	var urls []string
	for i := 0; i < w.replicas; i++ {
		th := &timedHandler{h: service.New(cfg).Handler()}
		srv := httptest.NewServer(th)
		f.replicas = append(f.replicas, th)
		f.servers = append(f.servers, srv)
		urls = append(urls, srv.URL)
	}
	rt, err := lb.New(lb.Config{Replicas: urls, HedgeAfter: -1, CheckInterval: -1})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router, f.h = rt, rt.Handler()
	return f, nil
}

// serve answers r and returns the body, the service handler's time,
// (fleet only) the time the lb added on top of it, and the replica the
// lb routed it to.
func (f *inProcessFront) serve(r request) (status int, body []byte, handler, proxy time.Duration, replica int) {
	for _, th := range f.replicas {
		th.ns.Store(0)
	}
	status, body, total := serveInProcess(f.h, r)
	if f.router == nil {
		return status, body, total, 0, 0
	}
	for i, th := range f.replicas {
		if ns := time.Duration(th.ns.Load()); ns > 0 {
			handler += ns
			replica = i
		}
	}
	return status, body, handler, total - handler, replica
}

func (f *inProcessFront) close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

// Bounds of one traced replay, so a trace run stays well inside the
// benchmark's per-run time limit.
const (
	maxTracedRequests = 150
	maxTraceTime      = 30 * time.Second
)

// traceResult is what the traced replay measured.
type traceResult struct {
	spans      []span
	requests   int
	handlerMS  []float64            // service handler time per request
	coveredMS  []float64            // handler-side time the replay's spans account for
	proxyMS    []float64            // lb time on top of the replica (fleet only)
	classMS    map[string][]float64 // handler time per request class
	reads      int                  // "read" requests (graphs repeated from a pool)
	readMisses int                  // reads whose graph the store built again
	mismatches int                  // replay bodies that differ from the handler's
	rp         *replayer
}

// traceReplay replays the priming set and the stream, each request
// twice: once through the replayer, spanning every layer call, and once
// through the in-process service handler (behind the lb for fleet
// workloads), timing the whole call. The replay's rendered body must
// equal the handler's, which shows both did the same work; the two
// serve the same sequence with the same budgets, so their caches hit,
// build and evict alike.
func traceReplay(w workload, in inputs) (*traceResult, error) {
	front, err := newInProcessFront(w)
	if err != nil {
		return nil, err
	}
	defer front.close()
	rp := newReplayer(w)
	for i, r := range in.prime {
		rp.tr.req = -1 - i
		status, body, _, _, replica := front.serve(r)
		if status/100 != 2 {
			return nil, fmt.Errorf("in-process prime: status %d: %s", status, bytes.TrimSpace(body))
		}
		if _, err := rp.serve(r, replica); err != nil {
			return nil, fmt.Errorf("replay prime: %w", err)
		}
	}
	rp.mcTrials, rp.adaptiveTrials, rp.renderBytes = 0, nil, nil
	res := &traceResult{classMS: map[string][]float64{}, rp: rp}
	start := time.Now()
	for i, r := range in.stream {
		if i == maxTracedRequests || time.Since(start) > maxTraceTime {
			break
		}
		rp.tr.req = i
		var (
			status         int
			hbody          []byte
			handler, proxy time.Duration
			replica        int
		)
		handlerCall := func() {
			_, _ = rp.tr.do("service.handler", func() error {
				status, hbody, handler, proxy, replica = front.serve(r)
				return nil
			})
		}
		// Whichever of the two runs second finds warmer CPU caches, so
		// they alternate; on a fleet the handler runs first, since the
		// replay needs the replica the lb picked.
		handlerFirst := w.lb || i%2 == 1
		if handlerFirst {
			handlerCall()
		}
		if w.lb {
			if _, err := rp.tr.do("lb.routing_key", func() error {
				sel, err := service.ExtractSelector(r.Body)
				if err != nil {
					return err
				}
				_, err = sel.RoutingKey()
				return err
			}); err != nil {
				return nil, err
			}
		}
		root := len(rp.tr.spans)
		body, err := rp.serve(r, replica)
		if err != nil {
			return nil, fmt.Errorf("replay request %d: %w", i, err)
		}
		covered := time.Duration(0)
		for _, s := range rp.tr.spans[root+1:] {
			if s.Parent == root && s.Name != "montecarlo.drain" {
				covered += s.dur()
			}
		}
		if !handlerFirst {
			handlerCall()
		}
		if status/100 != 2 {
			return nil, fmt.Errorf("in-process request %d: status %d: %s", i, status, bytes.TrimSpace(hbody))
		}
		want, err1 := normalize(hbody)
		got, err2 := normalize(body)
		if err1 != nil || err2 != nil || got != want {
			res.mismatches++
			fmt.Printf("trace: request %d (%s): replay body differs from the service handler's\n", i, r.Class)
		}
		if r.Class == "read" {
			res.reads++
			if rp.graphBuilt {
				res.readMisses++
			}
		}
		res.requests++
		res.handlerMS = append(res.handlerMS, ms(handler))
		res.coveredMS = append(res.coveredMS, ms(covered))
		res.classMS[r.Class] = append(res.classMS[r.Class], ms(handler))
		if w.lb {
			res.proxyMS = append(res.proxyMS, ms(proxy))
		}
	}
	res.spans = rp.tr.spans
	return res, nil
}

// spanMS returns the durations, in ms, of the stream's spans named
// name; with priming true, of the priming requests' spans too.
func (t *traceResult) spanMS(name string, priming bool) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (priming || s.Req >= 0) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// buildMS returns the durations, in ms, of the artifact.<kind> calls,
// priming included, whose store built the artifact.
func (t *traceResult) buildMS(kind string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == "artifact."+kind && s.Miss {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// medianOr0 is the median, or 0 for a layer the workload never reached.
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
