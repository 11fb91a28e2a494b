package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// TestInputsArePureFunctionOfSeed: the Poisson schedule and every body
// depend on the seed alone.
func TestInputsArePureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := makeInputs(w, 7, 3), makeInputs(w, 7, 3)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", w.name)
		}
		if len(a.stream) == 0 || len(a.prime) == 0 {
			t.Fatalf("%s: empty inputs", w.name)
		}
		c := makeInputs(w, 8, 3)
		if reflect.DeepEqual(a.stream, c.stream) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.name)
		}
		for i := 1; i < len(a.stream); i++ {
			if a.stream[i].Due < a.stream[i-1].Due {
				t.Fatalf("%s: send times not increasing at %d", w.name, i)
			}
		}
		if last := a.stream[len(a.stream)-1].Due; last >= 3*time.Second {
			t.Errorf("%s: request due at %v, past the 3s stream", w.name, last)
		}
	}
}

// TestPoissonRate: over a long stream the arrival count matches the
// offered rate.
func TestPoissonRate(t *testing.T) {
	w := workloads[0]
	n := len(makeInputs(w, 3, 200).stream)
	want := w.rate * 200
	if math.Abs(float64(n)-want) > 4*math.Sqrt(want) {
		t.Errorf("%d arrivals in 200s, want about %.0f", n, want)
	}
}

// TestPercentileCountsFailuresAsInfinite: a failed request is +Inf, so
// enough failures push a percentile to +Inf, and finite maps that to a
// JSON-safe number.
func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	inf := math.Inf(1)
	xs := []float64{5, 1, inf, 3, 2, 4, 6, 7, 8, inf}
	if got := percentile(xs, 0.5); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := percentile(xs, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 = %g, want +Inf (two of ten failed)", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, inf}, 0.9); got != 9 {
		t.Errorf("p90 with one failure in ten = %g, want 9", got)
	}
	if got := finite(inf); got != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %g", got)
	}
	if _, err := json.Marshal(finite(percentile(xs, 0.9))); err != nil {
		t.Errorf("marshal: %v", err)
	}
}

// TestWindowedIsMedianOfStretches: each stretch of the stream gets its
// own percentile, and one outlying stretch does not move the result.
func TestWindowedIsMedianOfStretches(t *testing.T) {
	var reqs []request
	var lat []float64
	for i := 0; i < 30; i++ {
		reqs = append(reqs, request{Due: time.Duration(i) * time.Second})
		x := 10.0
		if i >= 20 {
			x = 100 // a disturbed last stretch
		}
		lat = append(lat, x+float64(i%10))
	}
	if got := windowed(lat, reqs, 30, 0.5); got != 14 {
		t.Errorf("windowed p50 = %g, want 14 (the stretches read 14, 14, 104)", got)
	}
	if got := windowed(lat, reqs, 30, 0.9); got != 18 {
		t.Errorf("windowed p90 = %g, want 18 (the stretches read 18, 18, 108)", got)
	}
	if got := percentile(lat, 0.9); got != 106 {
		t.Errorf("whole-run p90 = %g, want 106, carried by the disturbed stretch", got)
	}
}

// TestProcReadersOnChild: the /proc CPU and peak-RSS readers see a child
// that burns CPU and touches memory.
func TestProcReadersOnChild(t *testing.T) {
	if os.Getenv("BENCH_TEST_CHILD") == "1" {
		buf := make([]byte, 32<<20)
		for i := range buf {
			buf[i] = byte(i)
		}
		x := 0
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			x += int(buf[x%len(buf)])
		}
		os.Stdout.WriteString("ready\n")
		time.Sleep(time.Minute) // killed by the parent
		return
	}
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestProcReadersOnChild$")
	cmd.Env = append(os.Environ(), "BENCH_TEST_CHILD=1")
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()
	line := make([]byte, 6)
	if _, err := out.Read(line); err != nil || !bytes.HasPrefix(line, []byte("ready")) {
		t.Fatalf("child not ready: %q, %v", line, err)
	}
	cpu, err := cpuSeconds(cmd.Process.Pid)
	if err != nil {
		t.Fatal(err)
	}
	if cpu < 0.1 {
		t.Errorf("child CPU %gs, want >= 0.1s after a 0.3s busy loop", cpu)
	}
	rss, err := peakRSSMiB(cmd.Process.Pid)
	if err != nil {
		t.Fatal(err)
	}
	if rss < 32 {
		t.Errorf("child peak RSS %g MiB, want >= 32 MiB after touching 32 MiB", rss)
	}
}

// TestMetricNamesMatchBenchmarkJSON: the benchmark prints exactly the
// metrics BENCHMARK.json lists, with the same units, and every name and
// unit fits the benchmark grammar.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, want []struct{ Name, Unit string }, got []metricDef) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(want), len(got))
			return
		}
		for i, d := range got {
			if want[i].Name != d.name || want[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, want[i].Name, want[i].Unit, d.name, d.unit)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s: %q (%q) breaks the name or unit grammar", kind, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestNormalizeZeroesOnlyTimes: the output check ignores timing fields
// and nothing else, keeping every other digit.
func TestNormalizeZeroesOnlyTimes(t *testing.T) {
	a, err := normalize([]byte(`{"mean":1.0000000000000002,"time_seconds":0.5,"mc":{"mc_time_seconds":3,"trials":7}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := normalize([]byte(`{"mc":{"trials":7,"mc_time_seconds":9},"time_seconds":0.25,"mean":1.0000000000000002}`))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("bodies differing only in timing normalize differently:\n%s\n%s", a, b)
	}
	c, _ := normalize([]byte(`{"mean":1,"time_seconds":0.5,"mc":{"mc_time_seconds":3,"trials":7}}`))
	if a == c {
		t.Errorf("a changed mean normalizes equal")
	}
}

// TestInvariants: the per-response checks accept a sound document and
// reject wrong trial counts and a mean below the failure-free makespan.
func TestInvariants(t *testing.T) {
	r := request{Route: "/v1/estimate", Trials: 100}
	good := `{"failure_free_makespan":10,"methods":[{"method":"First Order","estimate":10.1}],"monte_carlo":{"mean":10.2,"ci95":0.01,"trials":100}}`
	if err := invariants(r, []byte(good)); err != nil {
		t.Errorf("sound document rejected: %v", err)
	}
	for _, bad := range []string{
		`{"failure_free_makespan":10,"methods":[{"method":"First Order","estimate":10.1}],"monte_carlo":{"mean":10.2,"ci95":0.01,"trials":99}}`,
		`{"failure_free_makespan":10,"methods":[{"method":"First Order","estimate":10.1}],"monte_carlo":{"mean":9.9,"ci95":0.01,"trials":100}}`,
		`{"failure_free_makespan":10,"methods":[{"method":"First Order","estimate":10.1}]}`,
	} {
		if invariants(r, []byte(bad)) == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}
