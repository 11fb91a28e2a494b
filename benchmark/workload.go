package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/dag"
)

// request is one generated HTTP request of a workload's stream.
type request struct {
	Class string        // request class (for the per-class server-time check)
	Route string        // "/v1/estimate" or "/v1/schedule"
	Body  []byte        // JSON body, generated before any clock starts
	Due   time.Duration // Poisson send time, as an offset from the stream start

	// What the output check expects of every 2xx body.
	Trials   int  // fixed Monte Carlo trials per document (0: none or adaptive)
	Adaptive bool // adaptive (tolerance) Monte Carlo
}

// estimateBody is the POST /v1/estimate body the generators write and
// the traced replay decodes: the subset of the daemon's request fields
// the workloads use, with the daemon's JSON names.
type estimateBody struct {
	Kind      string          `json:"kind,omitempty"`
	K         int             `json:"k,omitempty"`
	Graph     json.RawMessage `json:"graph,omitempty"`
	PFail     float64         `json:"pfail"`
	Methods   string          `json:"methods"`
	Bounds    bool            `json:"bounds,omitempty"`
	Trials    int             `json:"trials,omitempty"`
	Tolerance float64         `json:"tolerance,omitempty"`
	Seed      *uint64         `json:"seed,omitempty"`
}

// scheduleBody is the POST /v1/schedule body (see estimateBody).
type scheduleBody struct {
	Kind   string  `json:"kind"`
	K      int     `json:"k"`
	Procs  int     `json:"procs"`
	PFail  float64 `json:"pfail"`
	Trials int     `json:"trials,omitempty"`
	Seed   *uint64 `json:"seed,omitempty"`
}

// workload is one traffic mix: the server topology it runs on, its
// offered rate and latency limit, and a seeded generator of its primed
// working set and request stream.
type workload struct {
	name       string
	replicas   int     // makespand processes
	lb         bool    // front the replicas with makespan-lb
	cacheBytes int64   // replica -cache-bytes
	rate       float64 // offered requests per second, Poisson
	sloMS      float64 // latency limit of slo_met_ratio
	// build returns, for one seed's rng, the requests that prime the
	// working set and the generator of the measured stream.
	build func(rng *rand.Rand) (prime []request, next func(*rand.Rand) request)
}

// workloads is the benchmark's traffic, in BENCHMARK.json order. The
// sizes keep every request class between ~5 and ~30 ms of server time
// with the class medians of one workload within 2× of each other, and
// the rates keep the servers busy a sixth to a quarter of the time
// (one request at a time, since each daemon's compute gate admits one
// kernel; the lb hop of inline-fleet runs beside it). Each SLO
// is about five times the workload's unloaded median latency.
var workloads = []workload{
	{name: "mc-sampling", replicas: 1, cacheBytes: defaultCacheBytes, rate: 16, sloMS: 75, build: mcSampling},
	{name: "inline-fleet", replicas: 2, lb: true, cacheBytes: 3 << 20, rate: 10, sloMS: 120, build: inlineFleet},
	{name: "paper-methods", replicas: 1, cacheBytes: defaultCacheBytes, rate: 12, sloMS: 75, build: paperMethods},
}

// defaultCacheBytes is makespand's default -cache-bytes.
const defaultCacheBytes = 256 << 20

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs are one run's generated requests: the priming set and the
// Poisson-timed stream.
type inputs struct {
	prime  []request
	stream []request
}

// makeInputs is a pure function of (workload, seed, seconds): the same
// seed always yields byte-identical bodies at identical send times.
func makeInputs(w workload, seed int64, seconds float64) inputs {
	rng := rand.New(rand.NewSource(seed))
	prime, next := w.build(rng)
	var stream []request
	for t := rng.ExpFloat64() / w.rate; t < seconds; t += rng.ExpFloat64() / w.rate {
		r := next(rng)
		r.Due = time.Duration(t * float64(time.Second))
		stream = append(stream, r)
	}
	return inputs{prime: prime, stream: stream}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the body types always marshal
	}
	return b
}

// freshSeed draws a Monte Carlo seed no other request of the run shares,
// so no two requests can coalesce onto one kernel run.
func freshSeed(rng *rand.Rand) *uint64 {
	s := uint64(rng.Int63())
	return &s
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// genSpec names a linear-algebra generator graph.
type genSpec struct {
	kind string
	k    int
}

// roundTrials rounds a trial budget to a multiple of 100 (at least 100).
func roundTrials(x float64) int { return int(math.Max(1, math.Round(x/100))) * 100 }

// mcSampling: named generator graphs at low pfail with fixed trial
// budgets and fresh seeds, so the Monte Carlo sampler and its
// single-failure fast path do nearly all the work. Each graph's budget is
// its class's kernel time divided by its measured cost per trial, so
// every request costs about the same and no graph forms a latency mode
// of its own.
func mcSampling(rng *rand.Rand) ([]request, func(*rand.Rand) request) {
	// Single-worker µs per trial at pfail 1e-3 and 1e-4 (Xeon, go1.24);
	// only the ratios between graphs matter.
	graphs := []struct {
		genSpec
		usPerTrial [2]float64
	}{
		{genSpec{"lu", 12}, [2]float64{1.24, 0.105}}, {genSpec{"lu", 13}, [2]float64{1.30, 0.12}},
		{genSpec{"lu", 14}, [2]float64{2.69, 0.105}}, {genSpec{"qr", 12}, [2]float64{0.77, 0.094}},
		{genSpec{"qr", 13}, [2]float64{1.20, 0.119}}, {genSpec{"qr", 14}, [2]float64{1.90, 0.151}},
		{genSpec{"cholesky", 14}, [2]float64{0.47, 0.078}}, {genSpec{"cholesky", 15}, [2]float64{0.82, 0.066}},
		{genSpec{"cholesky", 16}, [2]float64{1.11, 0.082}},
	}
	classes := []struct {
		name     string
		pfail    float64
		kernelUS float64 // target kernel time per request
	}{{"pfail-1e-3", 1e-3, 16000}, {"pfail-1e-4", 1e-4, 16000}}
	// Priming runs one full-size request per (graph, class), so set-up
	// is mostly the builds and kernel runs a cold daemon pays rather than
	// the few milliseconds of process start-up, which vary far more.
	one := uint64(1)
	var prime []request
	for _, g := range graphs {
		for ci, c := range classes {
			trials := roundTrials(c.kernelUS / g.usPerTrial[ci])
			prime = append(prime, request{Class: "prime", Route: "/v1/estimate", Trials: trials, Body: mustJSON(estimateBody{
				Kind: g.kind, K: g.k, PFail: c.pfail, Methods: "First Order", Trials: trials, Seed: &one})})
		}
	}
	next := func(rng *rand.Rand) request {
		g, ci := pick(rng, graphs), rng.Intn(len(classes))
		c := classes[ci]
		trials := roundTrials(c.kernelUS / g.usPerTrial[ci])
		return request{Class: c.name, Route: "/v1/estimate", Trials: trials, Body: mustJSON(estimateBody{
			Kind: g.kind, K: g.k, PFail: c.pfail, Methods: "First Order", Trials: trials, Seed: freshSeed(rng)})}
	}
	return prime, next
}

// inlineGraph draws a seeded Erdős–Rényi DAG with the given task count;
// at 200–400 tasks its JSON body is 50–250 KB.
func inlineGraph(rng *rand.Rand, tasks int) json.RawMessage {
	g, err := dag.ErdosRenyiDAG(dag.RandomConfig{
		Tasks: tasks, MinWeight: 0.5, MaxWeight: 2, EdgeProb: 0.15,
	}, rng)
	if err != nil {
		panic(err) // the config is valid
	}
	return mustJSON(g)
}

// inlineFleet: inline graphs through makespan-lb over two replicas whose
// caches are smaller than the working set. About 75% of requests repeat a
// graph from a fixed pool, the rest send a never-seen graph, so decode,
// canonical hashing (at the lb and again at the replica), freeze,
// estimator builds and eviction dominate; the kernel runs 1000 trials.
// Graph sizes step evenly through 200–400 tasks rather than being drawn,
// so every seed offers the same mix of body sizes.
func inlineFleet(rng *rand.Rand) ([]request, func(*rand.Rand) request) {
	const poolSize = 24
	size := func(i, n int) int { return 200 + 200*(i%n)/(n-1) }
	pool := make([]json.RawMessage, poolSize)
	for i := range pool {
		pool[i] = inlineGraph(rng, size(i, poolSize))
	}
	body := func(g json.RawMessage, seed *uint64) []byte {
		return mustJSON(estimateBody{Graph: g, PFail: 1e-3, Methods: "First Order", Trials: 1000, Seed: seed})
	}
	one := uint64(1)
	prime := make([]request, len(pool))
	for i, g := range pool {
		prime[i] = request{Class: "prime", Route: "/v1/estimate", Trials: 1000, Body: body(g, &one)}
	}
	writes := 0
	next := func(rng *rand.Rand) request {
		if rng.Float64() < 0.25 {
			writes++
			return request{Class: "write", Route: "/v1/estimate", Trials: 1000, Body: body(inlineGraph(rng, size(writes, 9)), freshSeed(rng))}
		}
		return request{Class: "read", Route: "/v1/estimate", Trials: 1000, Body: body(pick(rng, pool), freshSeed(rng))}
	}
	return prime, next
}

// paperMethods: the paper's estimators on small generator graphs at high
// pfail, in three equally likely classes — analytic methods plus bounds,
// adaptive Monte Carlo, and scheduled makespan — with every artifact
// primed, so the multi-failure eval phase, Dodin replay, bounds, Normal
// and schedmc carry the load. Each class costs about 10 ms of server
// time. An adaptive run drains the chunk its worker started before the
// stopping rule fired, still holding the daemon's compute gate, so the
// adaptive class uses small graphs whose 4096-trial chunks cost 2–4 ms
// and needs three to four of them: the drain, which delays any request
// arriving behind it, stays short.
func paperMethods(rng *rand.Rand) ([]request, func(*rand.Rand) request) {
	analyticGraphs := []genSpec{{"lu", 8}, {"lu", 9}, {"qr", 8}, {"qr", 9}}
	analyticPFails := []float64{0.01, 0.02, 0.03, 0.05}
	// Tolerances put every adaptive (graph, pfail) at 11k–13k trials.
	adaptive := []struct {
		g     genSpec
		pfail float64
		tol   float64
	}{
		{genSpec{"cholesky", 5}, 0.05, 0.004}, {genSpec{"cholesky", 6}, 0.05, 0.005},
		{genSpec{"cholesky", 5}, 0.08, 0.006}, {genSpec{"cholesky", 6}, 0.1, 0.007},
		{genSpec{"lu", 5}, 0.08, 0.0125}, {genSpec{"lu", 5}, 0.1, 0.015},
	}
	schedGraphs := []genSpec{{"lu", 8}, {"lu", 9}, {"qr", 8}, {"qr", 9}}
	schedProcs := []int{4, 8}
	const schedTrials = 1500

	one := uint64(1)
	var prime []request
	for _, g := range analyticGraphs {
		for _, pf := range analyticPFails {
			prime = append(prime, request{Class: "prime", Route: "/v1/estimate", Body: mustJSON(estimateBody{
				Kind: g.kind, K: g.k, PFail: pf, Methods: "First Order,Dodin,Normal", Bounds: true})})
		}
	}
	for _, a := range adaptive {
		prime = append(prime, request{Class: "prime", Route: "/v1/estimate", Trials: 100, Body: mustJSON(estimateBody{
			Kind: a.g.kind, K: a.g.k, PFail: a.pfail, Methods: "First Order", Trials: 100, Seed: &one})})
	}
	for _, g := range schedGraphs {
		for _, procs := range schedProcs {
			for _, pf := range analyticPFails {
				prime = append(prime, request{Class: "prime", Route: "/v1/schedule", Body: mustJSON(scheduleBody{
					Kind: g.kind, K: g.k, Procs: procs, PFail: pf})})
			}
		}
	}
	next := func(rng *rand.Rand) request {
		switch rng.Intn(3) {
		case 0:
			g := pick(rng, analyticGraphs)
			return request{Class: "analytic", Route: "/v1/estimate", Body: mustJSON(estimateBody{
				Kind: g.kind, K: g.k, PFail: pick(rng, analyticPFails), Methods: "First Order,Dodin,Normal", Bounds: true})}
		case 1:
			a := pick(rng, adaptive)
			return request{Class: "adaptive", Route: "/v1/estimate", Adaptive: true, Body: mustJSON(estimateBody{
				Kind: a.g.kind, K: a.g.k, PFail: a.pfail, Methods: "First Order", Tolerance: a.tol, Seed: freshSeed(rng)})}
		default:
			g := pick(rng, schedGraphs)
			return request{Class: "schedule", Route: "/v1/schedule", Trials: schedTrials, Body: mustJSON(scheduleBody{
				Kind: g.kind, K: g.k, Procs: pick(rng, schedProcs), PFail: pick(rng, analyticPFails), Trials: schedTrials, Seed: freshSeed(rng)})}
		}
	}
	return prime, next
}

// serverWorkers is every makespand's -workers: one CPU for the server,
// leaving the other to the load generator on a 2-CPU machine, so a
// request's wall time tracks its CPU time instead of how two kernel
// workers happen to be scheduled next to the client.
const serverWorkers = 1
