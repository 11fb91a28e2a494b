// Command benchmark is the repository's end-to-end benchmark. It starts
// real makespand (and, for the fleet workload, makespan-lb) processes
// from prebuilt binaries, primes their working set, drives them open
// loop with a seeded Poisson request stream from this one process,
// checks every response, and prints every metric by name and unit. With
// -trace 1 it also replays the stream in-process with a span around
// every layer call and prints the per-layer metrics instead.
//
// Usage (from the repository root, after run.sh has built the binaries):
//
//	benchmark -workload mc-sampling -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/artifact"
)

// metricDef is one printed metric: its name and unit, as BENCHMARK.json
// lists them.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics of a -trace 0 run.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"slo_met_ratio", "ratio"},
	{"cpu_ms_per_req", "ms"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a -trace 1 run. *_ms are medians over
// the replay's spans of that name; layers a workload never reaches
// read 0.
var perLayer = []metricDef{
	{"client.lag_p90_ms", "ms"},
	{"client.sent", "count"},
	{"client.ok", "count"},
	{"client.failed", "count"},
	{"service.handler_p50_ms", "ms"},
	{"service.unattributed_share", "ratio"},
	{"service.kernel_runs_per_req", "count"},
	{"service.class_p50_min_ms", "ms"},
	{"service.class_p50_max_over_min", "ratio"},
	{"dag.decode_ms", "ms"},
	{"dag.freeze_ms", "ms"},
	{"artifact.graph_key_ms", "ms"},
	{"artifact.hit_ratio.graph", "ratio"},
	{"artifact.hit_ratio.mc", "ratio"},
	{"artifact.hit_ratio.plan", "ratio"},
	{"artifact.hit_ratio.sched", "ratio"},
	{"artifact.hit_ratio.snap", "ratio"},
	{"artifact.evictions", "count"},
	{"artifact.read_miss_ratio", "ratio"},
	{"artifact.build_ms.graph", "ms"},
	{"artifact.build_ms.mc", "ms"},
	{"artifact.build_ms.plan", "ms"},
	{"artifact.build_ms.sched", "ms"},
	{"linalg.generate_ms", "ms"},
	{"montecarlo.estimator_build_ms", "ms"},
	{"montecarlo.run_ms", "ms"},
	{"montecarlo.drain_ms", "ms"},
	{"montecarlo.trials_per_s", "1/s"},
	{"montecarlo.adaptive_trials", "count"},
	{"spgraph.plan_build_ms", "ms"},
	{"spgraph.replay_ms", "ms"},
	{"core.first_order_ms", "ms"},
	{"bounds.bracket_ms", "ms"},
	{"normal.estimate_ms", "ms"},
	{"schedmc.freeze_ms", "ms"},
	{"schedmc.run_ms", "ms"},
	{"report.render_ms", "ms"},
	{"report.bytes", "count"},
	{"lb.routing_key_ms", "ms"},
	{"lb.proxy_ms", "ms"},
	{"lb.attempts_per_req", "count"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	binDir   string
	outDir   string
}

// setupsPerRun is how many times an untraced run sets up; setup_s is
// the median, since one set-up of well under a second is dominated by
// noise.
const setupsPerRun = 5

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (mc-sampling, inline-fleet, paper-methods)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the request stream is a pure function of it")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the measured request stream")
	flag.IntVar(&trace, "trace", 0, "1: print per-layer metrics from a traced in-process replay")
	flag.StringVar(&o.binDir, "bin", ".bench_build/bin", "directory holding the makespand and makespan-lb binaries")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory the traced replay writes its spans to")
	flag.Parse()
	o.trace = trace == 1
	correct, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "benchmark: output check failed")
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envRecord is printed with every result, so drift between runs is
// visible rather than silent.
type envRecord struct {
	Workload      string    `json:"workload"`
	Seed          int64     `json:"seed"`
	NProc         int       `json:"nproc"`
	GoMaxProcs    int       `json:"gomaxprocs"`
	CPUModel      string    `json:"cpu_model"`
	GoVersion     string    `json:"go_version"`
	LoadAvg       string    `json:"loadavg_at_start"`
	OfferedRPS    float64   `json:"offered_rps"`
	AchievedRPS   float64   `json:"achieved_rps"`
	ClientLagP90  float64   `json:"client_lag_p90_ms"`
	Requests      int       `json:"requests"`
	FailedRatio   float64   `json:"failed_ratio"`
	SetupsSeconds []float64 `json:"setups_s,omitempty"`
	StealShare    float64   `json:"steal_share"`
}

func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo") // absent off Linux: recorded as ""
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func loadAvg() string {
	b, _ := os.ReadFile("/proc/loadavg") // absent off Linux: recorded as ""
	return strings.TrimSpace(string(b))
}

// run runs one workload and prints its result; it reports whether
// every output passed the check.
func run(o options) (bool, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return false, err
	}
	for _, bin := range []string{"makespand", "makespan-lb"} {
		if _, err := os.Stat(filepath.Join(o.binDir, bin)); err != nil {
			return false, fmt.Errorf("server binary missing (build with run.sh): %w", err)
		}
	}
	env := envRecord{Workload: w.name, Seed: o.seed, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), LoadAvg: loadAvg()}
	in := makeInputs(w, o.seed, o.seconds)
	if len(in.stream) == 0 {
		return false, fmt.Errorf("no requests in %gs at %g rps", o.seconds, w.rate)
	}
	slots := runtime.GOMAXPROCS(0)
	client := newClient(slots)
	defer client.CloseIdleConnections()

	setups := setupsPerRun
	if o.trace {
		setups = 1
	}
	var f *fleet
	for i := 0; i < setups; i++ {
		if f != nil {
			f.stop()
			client.CloseIdleConnections()
		}
		t0 := time.Now()
		if f, err = startFleet(w, o.binDir); err != nil {
			return false, err
		}
		if err := prime(client, f.front(), in.prime); err != nil {
			f.stop()
			return false, err
		}
		env.SetupsSeconds = append(env.SetupsSeconds, time.Since(t0).Seconds())
	}
	stopped := false
	stopFleet := func() {
		if !stopped {
			stopped = true
			f.stop()
		}
	}
	defer stopFleet()

	var cache0 map[string]kindStats
	var lb0 string
	if o.trace {
		if cache0, lb0, err = scrape(client, f); err != nil {
			return false, err
		}
	}
	steal0, total0, err := cpuStolen()
	if err != nil {
		return false, err
	}
	cpu0, err := sumProcs(f.procs(), cpuSeconds)
	if err != nil {
		return false, err
	}
	outs, elapsed := drive(client, f.front(), in.stream, slots)
	cpu1, err := sumProcs(f.procs(), cpuSeconds)
	if err != nil {
		return false, err
	}
	steal1, total1, err := cpuStolen()
	if err != nil {
		return false, err
	}
	if total1 > total0 {
		env.StealShare = (steal1 - steal0) / (total1 - total0)
	}
	rss, err := sumProcs(f.procs(), peakRSSMiB)
	if err != nil {
		return false, err
	}
	var cache1 map[string]kindStats
	var lb1 string
	if o.trace {
		if cache1, lb1, err = scrape(client, f); err != nil {
			return false, err
		}
	}
	stopFleet()

	bad, err := checkOutputs(in.stream, outs, o.seed)
	if err != nil {
		return false, err
	}
	sent := len(outs)
	lat := make([]float64, sent)
	lags := make([]float64, sent)
	okCount, sloMet, mismatches := 0, 0, 0
	byClass := map[string][]float64{}
	for i, out := range outs {
		lags[i] = ms(out.lag)
		lat[i] = math.Inf(1)
		if bad[i] {
			mismatches++
		}
		if out.ok() && !bad[i] {
			okCount++
			lat[i] = ms(out.lat)
			if lat[i] <= w.sloMS {
				sloMet++
			}
		} else if out.err != nil {
			fmt.Printf("request %d (%s): %v\n", i, in.stream[i].Class, out.err)
		} else if !out.ok() {
			fmt.Printf("request %d (%s): status %d: %s\n", i, in.stream[i].Class, out.status, strings.TrimSpace(string(out.body)))
		}
		byClass[in.stream[i].Class] = append(byClass[in.stream[i].Class], lat[i])
	}
	failed := sent - okCount
	completed := 0
	for _, out := range outs {
		if out.ok() {
			completed++
		}
	}
	if completed == 0 {
		return false, fmt.Errorf("no request completed")
	}
	env.OfferedRPS = w.rate
	env.AchievedRPS = float64(completed) / elapsed.Seconds()
	env.ClientLagP90 = percentile(lags, 0.9)
	env.Requests = sent
	env.FailedRatio = float64(failed) / float64(sent)
	printJSONLine("env", env)
	for _, c := range sortedKeys(byClass) {
		fmt.Printf("class %-10s n=%-4d latency_p50_ms=%.3f latency_p90_ms=%.3f\n",
			c, len(byClass[c]), finite(median(byClass[c])), finite(percentile(byClass[c], 0.9)))
	}

	res := result{Correct: mismatches == 0, Attempted: sent, Failed: failed, Metrics: map[string]metricValue{}}
	if !o.trace {
		vals := map[string]float64{
			"latency_p50_ms": finite(windowed(lat, in.stream, o.seconds, 0.5)),
			"latency_p90_ms": finite(windowed(lat, in.stream, o.seconds, 0.9)),
			"slo_met_ratio":  float64(sloMet) / float64(sent),
			"cpu_ms_per_req": (cpu1 - cpu0) * 1000 / float64(completed),
			"peak_rss_mb":    rss,
			"setup_s":        median(env.SetupsSeconds),
		}
		fmt.Printf("metric %-16s %.6g ratio (not in BENCHMARK.json: it is 0 on a healthy run)\n", "failed_ratio", env.FailedRatio)
		emit(res, endToEnd, vals)
		return res.Correct, nil
	}

	tr, err := traceReplay(w, in)
	if err != nil {
		return false, err
	}
	if tr.mismatches > 0 {
		res.Correct = false
	}
	spanPath := filepath.Join(o.outDir, "traces", fmt.Sprintf("%s-%d.jsonl", w.name, o.seed))
	if err := writeSpans(spanPath, tr.spans); err != nil {
		return false, err
	}
	fmt.Printf("trace: %d requests replayed, %d spans written to %s\n", tr.requests, len(tr.spans), spanPath)
	vals := layerValues(tr, cache0, cache1, lb0, lb1)
	vals["client.lag_p90_ms"] = env.ClientLagP90
	vals["client.sent"] = float64(sent)
	vals["client.ok"] = float64(okCount)
	vals["client.failed"] = float64(failed)
	for _, c := range sortedKeys(tr.classMS) {
		fmt.Printf("trace class %-10s n=%-4d server_p50_ms=%.3f\n", c, len(tr.classMS[c]), median(tr.classMS[c]))
	}
	emit(res, perLayer, vals)
	return res.Correct, nil
}

// latencyWindows is how many equal stretches of the stream the latency
// percentiles are taken over; the reported figure is their median, so
// one disturbed stretch of a run (a burst of hypervisor steal, say)
// does not carry it.
const latencyWindows = 3

// windowed is the median over the stream's latencyWindows stretches, by
// due time, of each stretch's q-quantile of lat.
func windowed(lat []float64, reqs []request, seconds, q float64) float64 {
	parts := make([][]float64, latencyWindows)
	for i, x := range lat {
		w := min(int(reqs[i].Due.Seconds()/seconds*latencyWindows), latencyWindows-1)
		parts[w] = append(parts[w], x)
	}
	var ps []float64
	for _, p := range parts {
		if len(p) > 0 {
			ps = append(ps, percentile(p, q))
		}
	}
	return median(ps)
}

// scrape reads the replicas' artifact counters and the lb's metrics.
func scrape(c *http.Client, f *fleet) (map[string]kindStats, string, error) {
	cache, err := cacheTotals(c, f)
	if err != nil || f.lb == nil {
		return cache, "", err
	}
	text, err := getText(c, f.lb.url()+"/metrics")
	return cache, text, err
}

// layerValues derives the per-layer metrics from the traced replay and
// the counter deltas scraped around the measured window.
func layerValues(tr *traceResult, cache0, cache1 map[string]kindStats, lb0, lb1 string) map[string]float64 {
	v := map[string]float64{}
	v["service.handler_p50_ms"] = medianOr0(tr.handlerMS)
	if h := sum(tr.handlerMS); h > 0 {
		v["service.unattributed_share"] = (h - sum(tr.coveredMS)) / h
	}
	runs := len(tr.spanMS("montecarlo.run", false)) + len(tr.spanMS("schedmc.run", false))
	v["service.kernel_runs_per_req"] = float64(runs) / float64(max(tr.requests, 1))
	var classP50 []float64
	for _, xs := range tr.classMS {
		classP50 = append(classP50, median(xs))
	}
	sort.Float64s(classP50)
	if len(classP50) > 0 {
		v["service.class_p50_min_ms"] = classP50[0]
		v["service.class_p50_max_over_min"] = classP50[len(classP50)-1] / classP50[0]
	}
	// Request-path layers, over the stream.
	for metric, spanName := range map[string]string{
		"dag.decode_ms":         "dag.decode",
		"artifact.graph_key_ms": "artifact.graph_key",
		"montecarlo.run_ms":     "montecarlo.run",
		"montecarlo.drain_ms":   "montecarlo.drain",
		"spgraph.replay_ms":     "spgraph.replay",
		"core.first_order_ms":   "core.first_order",
		"bounds.bracket_ms":     "bounds.bracket",
		"normal.estimate_ms":    "normal.estimate",
		"schedmc.run_ms":        "schedmc.run",
		"report.render_ms":      "report.render",
		"lb.routing_key_ms":     "lb.routing_key",
	} {
		v[metric] = medianOr0(tr.spanMS(spanName, false))
	}
	// Builds, over priming and the stream: on the generator workloads
	// they happen only while priming.
	for metric, spanName := range map[string]string{
		"dag.freeze_ms":                 "dag.freeze",
		"linalg.generate_ms":            "linalg.generate",
		"montecarlo.estimator_build_ms": "montecarlo.estimator_build",
		"spgraph.plan_build_ms":         "spgraph.plan_build",
		"schedmc.freeze_ms":             "schedmc.freeze",
	} {
		v[metric] = medianOr0(tr.spanMS(spanName, true))
	}
	for _, kind := range []string{artifact.KindGraph, artifact.KindEstimator, artifact.KindPlan, artifact.KindSchedule} {
		v["artifact.build_ms."+kind] = medianOr0(tr.buildMS(kind))
	}
	if tr.reads > 0 {
		v["artifact.read_miss_ratio"] = float64(tr.readMisses) / float64(tr.reads)
	}
	if runMS := sum(tr.spanMS("montecarlo.run", false)); runMS > 0 {
		v["montecarlo.trials_per_s"] = float64(tr.rp.mcTrials) / (runMS / 1000)
	}
	v["montecarlo.adaptive_trials"] = medianOr0(tr.rp.adaptiveTrials)
	v["report.bytes"] = medianOr0(tr.rp.renderBytes)
	v["lb.proxy_ms"] = medianOr0(tr.proxyMS)

	var evictions int64
	for kind, s1 := range cache1 {
		s0 := cache0[kind]
		hits, misses := s1.Hits-s0.Hits, s1.Misses-s0.Misses
		if hits+misses > 0 {
			v["artifact.hit_ratio."+kind] = float64(hits) / float64(hits+misses)
		}
		evictions += s1.Evictions - s0.Evictions
	}
	v["artifact.evictions"] = float64(evictions)
	if lb1 != "" {
		front := promSum(lb1, "makespanlb_http_requests_total", `route="/v1/estimate"`) -
			promSum(lb0, "makespanlb_http_requests_total", `route="/v1/estimate"`)
		attempts := promSum(lb1, "makespanlb_upstream_requests_total", "") -
			promSum(lb0, "makespanlb_upstream_requests_total", "")
		if front > 0 {
			v["lb.attempts_per_req"] = attempts / front
		}
	}
	return v
}

// emit prints every metric of defs as a human-readable line, then the
// result object as the last line of standard output.
func emit(res result, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		x := vals[d.name] // a layer the workload never reaches reads 0
		fmt.Printf("metric %-32s %.6g %s\n", d.name, x, d.unit)
		res.Metrics[d.name] = metricValue{Value: x, Unit: d.unit}
	}
	printJSONLine("", res)
}

func printJSONLine(prefix string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of finite numbers always marshal
	}
	if prefix != "" {
		fmt.Printf("%s %s\n", prefix, b)
		return
	}
	fmt.Println(string(b))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
