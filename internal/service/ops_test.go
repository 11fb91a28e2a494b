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
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/linalg"
	"repro/internal/montecarlo"
	"repro/internal/query"
	"repro/internal/schedmc"
	"repro/internal/spgraph"
)

// This file tests the production-hardening surface: admission control
// (429 + Retry-After), request deadlines (timeout_ms → 504), panic
// isolation, draining observability and cancellation hand-off in the
// coalescing layer. Tests that arm failpoints must not run in parallel
// (faultinject state is process-global); none of them call t.Parallel.

func opsServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// A full server with no queue sheds instantly: 429 with a Retry-After
// hint, and the slot's release restores service.
func TestAdmissionSheds429(t *testing.T) {
	s, ts := opsServer(t, Config{Workers: 2, MaxInFlight: 1, QueueWait: 2 * time.Second})

	// Occupy the only admission slot directly; the next estimation
	// request must shed without waiting (no queue is configured).
	s.limit.slots <- struct{}{}
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json",
		strings.NewReader(`{"kind":"lu","k":4}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full server: %d %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want %q", ra, "2")
	}
	// Non-estimation routes are not admission-controlled: health and
	// cache stats must answer even when the server is saturated.
	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz behind full server: %d", code)
	}
	<-s.limit.slots
	if code, body := post(t, ts, "/v1/estimate", `{"kind":"lu","k":4}`); code != http.StatusOK {
		t.Fatalf("after release: %d %s", code, body)
	}
}

// With a queue, a waiting request is admitted when a slot frees within
// QueueWait; one that overflows the queue sheds instantly; one whose
// wait expires sheds with 429.
func TestAdmissionQueue(t *testing.T) {
	s, _ := opsServer(t, Config{Workers: 2, MaxInFlight: 1, MaxQueue: 1, QueueWait: 5 * time.Second})
	l := s.limit

	// Fill the slot, then queue one waiter.
	release, err := l.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan error, 1)
	go func() {
		r2, err := l.acquire(context.Background())
		if err == nil {
			r2()
		}
		admitted <- err
	}()
	waitFor(t, "queued waiter", func() bool { return len(l.queue) == 1 })

	// The queue is full: a third arrival sheds instantly with 429.
	if _, err := l.acquire(context.Background()); err == nil {
		t.Fatal("overflowing the queue did not shed")
	} else {
		var he *httpError
		if !errors.As(err, &he) || he.status != http.StatusTooManyRequests || he.retryAfter < 1 {
			t.Fatalf("overflow error: %v", err)
		}
	}

	// Releasing the slot admits the queued waiter.
	release()
	if err := <-admitted; err != nil {
		t.Fatalf("queued waiter not admitted: %v", err)
	}

	// An expired wait sheds: with the slot held and a tiny QueueWait the
	// queued request gets its 429 instead of hanging.
	short := newLimiter(1, 1, 20*time.Millisecond)
	short.slots <- struct{}{}
	if _, err := short.acquire(context.Background()); err == nil {
		t.Fatal("expired queue wait did not shed")
	}

	// A request whose context dies while queued returns the context
	// error, not a 429.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	short2 := newLimiter(1, 1, time.Minute)
	short2.slots <- struct{}{}
	if _, err := short2.acquire(ctx); err != context.Canceled {
		t.Fatalf("cancelled queued request: %v", err)
	}
}

// timeout_ms bounds the whole request: kernels abort at the next chunk
// boundary and the response is 504. A negative timeout is a 400.
func TestRequestTimeout504(t *testing.T) {
	_, ts := opsServer(t, Config{Workers: 2})

	// Slow every Monte Carlo chunk so the 25ms deadline reliably expires
	// mid-run regardless of machine speed.
	if err := faultinject.Arm("mc.chunk=delay:50ms"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()

	code, body := post(t, ts, "/v1/estimate",
		`{"kind":"lu","k":4,"pfail":0.05,"methods":"First Order","trials":20000,"timeout_ms":25}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: %d %s", code, body)
	}
	if !strings.Contains(body, "deadline") {
		t.Fatalf("504 body: %s", body)
	}
	faultinject.Disarm()

	// The failed run was not cached: the same request without the fault
	// and deadline completes.
	if code, body := post(t, ts, "/v1/estimate",
		`{"kind":"lu","k":4,"pfail":0.05,"methods":"First Order","trials":20000}`); code != http.StatusOK {
		t.Fatalf("retry after timeout: %d %s", code, body)
	}

	if code, body := post(t, ts, "/v1/estimate",
		`{"kind":"lu","k":4,"timeout_ms":-1}`); code != http.StatusBadRequest {
		t.Fatalf("negative timeout_ms: %d %s", code, body)
	}
}

// requestCtx applies the server default and clamps client requests by
// MaxTimeout.
func TestRequestCtxClamping(t *testing.T) {
	s := New(Config{Workers: 1, DefaultTimeout: time.Minute, MaxTimeout: 50 * time.Millisecond})
	r := httptest.NewRequest("POST", "/v1/estimate", nil)

	for _, tc := range []struct {
		timeoutMS int64
		max       time.Duration
	}{
		{0, 50 * time.Millisecond},        // default applied, then clamped
		{3600_000, 50 * time.Millisecond}, // explicit huge request clamped
		{10, 10 * time.Millisecond},       // under the clamp: honored
	} {
		ctx, cancel, err := s.requestCtx(r, tc.timeoutMS)
		if err != nil {
			t.Fatalf("timeout_ms=%d: %v", tc.timeoutMS, err)
		}
		dl, ok := ctx.Deadline()
		if !ok || time.Until(dl) > tc.max {
			t.Fatalf("timeout_ms=%d: deadline %v (ok=%v), want within %v", tc.timeoutMS, time.Until(dl), ok, tc.max)
		}
		cancel()
	}
	if _, _, err := s.requestCtx(r, -7); err == nil {
		t.Fatal("negative timeout accepted")
	}

	// No default, no clamp, no request: the context is unbounded.
	s2 := New(Config{Workers: 1})
	ctx, cancel, err := s2.requestCtx(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Fatal("unbounded request got a deadline")
	}
}

// A panicking handler answers 500 with one structured log line; the
// daemon and its sibling requests keep running.
func TestPanicRecoveryIsolation(t *testing.T) {
	_, ts := opsServer(t, Config{Workers: 2})

	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)

	if err := faultinject.Arm("service.panic./v1/estimate=panic:boom*1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()

	code, body := post(t, ts, "/v1/estimate", `{"kind":"lu","k":4}`)
	if code != http.StatusInternalServerError || !strings.Contains(body, "internal error") {
		t.Fatalf("panicking request: %d %s", code, body)
	}
	logged := buf.String()
	if !strings.Contains(logged, "event=panic") || !strings.Contains(logged, "path=/v1/estimate") {
		t.Fatalf("panic log line missing: %q", logged)
	}

	// The point was single-shot: the identical request now succeeds, and
	// an untouched route was never affected.
	if code, body := post(t, ts, "/v1/estimate", `{"kind":"lu","k":4}`); code != http.StatusOK {
		t.Fatalf("request after panic: %d %s", code, body)
	}
	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after panic: %d", code)
	}
}

// panicGraph is a registry entry whose Dodin plan and frozen schedules
// panic as they are built, inside the queries' gated phases.
type panicGraph struct{ *Entry }

func (panicGraph) PlanContext(context.Context, int, failure.Model) (*spgraph.Plan, error) {
	panic("boom")
}

func (panicGraph) ScheduleEstimatorContext(context.Context, schedmc.Policy, int, failure.Model) (*schedmc.Estimator, error) {
	panic("boom")
}

// A panic inside a gated phase — bounds, an analytic method, schedule
// freezing — gives the compute gate back as it unwinds, so the requests
// after it are served instead of waiting out their deadlines.
func TestPanicInGatedPhaseReleasesGate(t *testing.T) {
	s, ts := opsServer(t, Config{Workers: 1})
	// A leaked gate fails the next phase at this deadline, not never.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e, _, err := s.resolve(ctx, graphRef{Kind: "lu", K: 4})
	if err != nil {
		t.Fatal(err)
	}
	model, err := failure.New(0.01)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(){
		"estimate": func() {
			p := query.Estimate{Methods: "Dodin"}
			_, _ = p.Run(ctx, panicGraph{e}, model, runner{s})
		},
		"schedule": func() {
			p := query.Schedule{Procs: 2}
			_, _ = p.Run(ctx, panicGraph{e}, model, runner{s})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: gated phase did not panic", name)
				}
			}()
			run()
		}()
	}

	for _, c := range []struct{ path, body string }{
		{"/v1/estimate", `{"kind":"lu","k":4,"bounds":true,"timeout_ms":5000}`},
		{"/v1/schedule", `{"kind":"lu","k":4,"procs":2,"timeout_ms":5000}`},
	} {
		if code, body := post(t, ts, c.path, c.body); code != http.StatusOK {
			t.Fatalf("%s after a gated panic: %d %s", c.path, code, body)
		}
	}
}

// Draining flips /healthz to 503 while in-flight and even new requests
// keep being served (the listener is the caller's to close); /v1/cache
// reports the in-flight count.
func TestDrainingHealthzAndInFlight(t *testing.T) {
	s, ts := opsServer(t, Config{Workers: 2})

	code, body := get(t, ts, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	// The cache endpoint counts itself: exactly one request in flight.
	code, body = get(t, ts, "/v1/cache")
	if code != http.StatusOK {
		t.Fatalf("cache: %d %s", code, body)
	}
	var cs struct {
		InFlight int64 `json:"in_flight"`
	}
	if err := json.Unmarshal([]byte(body), &cs); err != nil {
		t.Fatal(err)
	}
	if cs.InFlight != 1 {
		t.Fatalf("in_flight = %d, want 1", cs.InFlight)
	}

	s.StartDrain()
	code, body = get(t, ts, "/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"status": "draining"`) {
		t.Fatalf("draining healthz: %d %s", code, body)
	}
	// StartDrain is advisory: requests still in the handler stack (and
	// new arrivals, until the listener closes) complete normally.
	if code, body := post(t, ts, "/v1/graphs", `{"kind":"lu","k":4}`); code != http.StatusCreated {
		t.Fatalf("submit while draining: %d %s", code, body)
	}
	if !s.Draining() {
		t.Fatal("Draining() = false after StartDrain")
	}
}

// A cancelled coalescing creator hands the in-flight adaptive run off to
// a live waiter: the waiter's request completes from the shared stream,
// the flight is not restarted, and the key stays retryable afterwards.
func TestAdaptiveLeaderCancelHandsOffToWaiter(t *testing.T) {
	s, ts, id, tol := coalesceFixture(t)
	e := entryFor(t, s, id)
	g, err := linalg.LU(6, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	model, err := failure.FromPfail(0.05, g.MeanWeight())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := e.EstimatorContext(context.Background(), model, montecarlo.FullReexecution)
	if err != nil {
		t.Fatal(err)
	}
	// The creator's rule is tight (many chunks to converge) so the flight
	// is reliably still running when it cancels; the waiter's rule is
	// loose (a chunk or two) so it is released mid-run.
	tight, err := warm.WithConfig(montecarlo.Config{Seed: 42, Workers: 2, Tolerance: tol / 50, MaxTrials: 4_000_000})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := warm.WithConfig(montecarlo.Config{Seed: 42, Workers: 2, Tolerance: tol * 2})
	if err != nil {
		t.Fatal(err)
	}
	// Slow the chunks down so the hand-off window is wide on any machine.
	if err := faultinject.Arm("mc.chunk=delay:10ms"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()

	key := artifact.SnapshotKey{Lambda: model.Lambda, Mode: montecarlo.FullReexecution, Seed: 42}
	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := s.coalesceAdaptive(lctx, e, key, tight)
		leaderErr <- err
	}()
	slot := e.adaptiveSlotFor(key)
	waitFor(t, "flight creation", func() bool {
		slot.mu.Lock()
		defer slot.mu.Unlock()
		return slot.run != nil
	})

	// The waiter joins the leader's flight and is released mid-run.
	res, snap, err := s.coalesceAdaptive(context.Background(), e, key, loose)
	if err != nil {
		t.Fatalf("waiter: %v", err)
	}
	if res.Trials == 0 || snap == nil || !loose.SnapshotConverged(snap) {
		t.Fatalf("waiter result: %+v converged=%v", res, loose.SnapshotConverged(snap))
	}
	if runs := e.KernelRuns(); runs != 1 {
		t.Fatalf("waiter triggered %d kernel runs, want 1 shared flight", runs)
	}

	// Cancel the creator: it was the last interest, so the flight dies at
	// the next chunk boundary and the creator sees its own cancellation.
	lcancel()
	select {
	case err := <-leaderErr:
		if err != context.Canceled {
			t.Fatalf("cancelled leader: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled leader did not return")
	}
	waitFor(t, "flight teardown", func() bool {
		slot.mu.Lock()
		defer slot.mu.Unlock()
		return slot.run == nil
	})

	// Nothing poisonous was cached: the same key answers a fresh HTTP
	// request (a new kernel run extends or redoes the stream).
	faultinject.Disarm()
	req := fmt.Sprintf(`{"graph_id":%q,"pfail":0.05,"methods":"First Order","tolerance":%g}`, id, tol)
	if code, body := post(t, ts, "/v1/estimate", req); code != http.StatusOK {
		t.Fatalf("retry after cancelled flight: %d %s", code, body)
	}
}

// StartDrain while a request is mid-kernel: the request runs to
// completion and answers 200 even though /healthz already advertises
// draining.
func TestDrainWithInFlightRequest(t *testing.T) {
	s, ts := opsServer(t, Config{Workers: 2})
	if err := faultinject.Arm("mc.chunk=delay:20ms"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()

	done := make(chan struct {
		code int
		body string
	}, 1)
	go func() {
		code, body := post(t, ts, "/v1/estimate",
			`{"kind":"lu","k":4,"pfail":0.05,"methods":"First Order","trials":40960}`)
		done <- struct {
			code int
			body string
		}{code, body}
	}()
	waitFor(t, "request in flight", func() bool { return s.InFlight() >= 1 })
	s.StartDrain()
	if code, _ := get(t, ts, "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d", code)
	}
	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: %d %s", r.code, r.body)
	}
}

// waitFor polls cond with a hard deadline, failing the test with name on
// expiry — no fixed sleeps.
func waitFor(t *testing.T, name string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", name)
		}
		time.Sleep(time.Millisecond)
	}
}

// A body whose Monte Carlo knobs the engine rejects answers 400 before
// the compute gate: with the gate held by someone else, a request that
// reached Runner.Acquire would wait out its deadline instead.
func TestBadMonteCarloKnobsRejectedBeforeGate(t *testing.T) {
	s, ts := opsServer(t, Config{Workers: 1})
	s.gate <- struct{}{}
	defer func() { <-s.gate }()
	for _, body := range []string{
		`{"kind":"lu","k":4,"methods":"all","trials":-5,"timeout_ms":3000}`,
		`{"kind":"lu","k":4,"methods":"all","tolerance":0.1,"target_quantile":1,"timeout_ms":3000}`,
	} {
		start := time.Now()
		code, resp := post(t, ts, "/v1/estimate", body)
		if code != http.StatusBadRequest || !strings.Contains(resp, "montecarlo:") {
			t.Fatalf("%s: %d %s", body, code, resp)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%s: answered after %v, behind the held gate", body, d)
		}
	}
}
