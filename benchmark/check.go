package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"repro/internal/service"
)

// normalize re-encodes a response body with every *time_seconds field
// zeroed, keeping every other number's digits exactly as sent.
func normalize(body []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "", err
	}
	zeroTimes(v)
	b, err := json.Marshal(v)
	return string(b), err
}

func zeroTimes(v any) {
	switch t := v.(type) {
	case map[string]any:
		for k, x := range t {
			if strings.HasSuffix(k, "time_seconds") {
				t[k] = json.Number("0")
			} else {
				zeroTimes(x)
			}
		}
	case []any:
		for _, x := range t {
			zeroTimes(x)
		}
	}
}

// serveInProcess answers one request on an in-process service handler.
func serveInProcess(h http.Handler, r request) (int, []byte, time.Duration) {
	rec := httptest.NewRecorder()
	hr := httptest.NewRequest(http.MethodPost, r.Route, bytes.NewReader(r.Body))
	hr.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	h.ServeHTTP(rec, hr)
	return rec.Code, rec.Body.Bytes(), time.Since(t0)
}

// referenceSample is how many 2xx bodies per run are compared byte for
// byte with the in-process handler; the invariants run on all of them.
const referenceSample = 48

// checkOutputs marks in bad every 2xx response that breaks an invariant
// or, for a seeded sample, differs from the in-process service
// handler's body for the same request (time fields zeroed). It runs
// after the measured window, with the servers stopped.
func checkOutputs(reqs []request, outs []outcome, seed int64) (bad []bool, err error) {
	bad = make([]bool, len(reqs))
	for i, o := range outs {
		if !o.ok() {
			continue
		}
		if err := invariants(reqs[i], o.body); err != nil {
			bad[i] = true
			fmt.Printf("output check: request %d (%s): %v\n", i, reqs[i].Class, err)
		}
	}
	h := service.New(service.Config{Workers: serverWorkers}).Handler()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	sample := rng.Perm(len(reqs))
	if len(sample) > referenceSample {
		sample = sample[:referenceSample]
	}
	sort.Ints(sample) // replay in stream order, as the daemon saw them
	for _, i := range sample {
		if !outs[i].ok() || bad[i] {
			continue
		}
		status, ref, _ := serveInProcess(h, reqs[i])
		if status != http.StatusOK {
			return nil, fmt.Errorf("reference for request %d: status %d: %s", i, status, bytes.TrimSpace(ref))
		}
		want, err := normalize(ref)
		if err != nil {
			return nil, fmt.Errorf("reference for request %d: %w", i, err)
		}
		got, err := normalize(outs[i].body)
		if err != nil || got != want {
			bad[i] = true
			fmt.Printf("output check: request %d (%s) differs from the in-process reference\n", i, reqs[i].Class)
		}
	}
	return bad, nil
}

type mcDoc struct {
	Mean     float64   `json:"mean"`
	CI95     float64   `json:"ci95"`
	Trials   int       `json:"trials"`
	Adaptive *struct{} `json:"adaptive"`
}

type estimateDoc struct {
	FailureFree float64 `json:"failure_free_makespan"`
	Bracket     *struct {
		Lower float64 `json:"lower"`
		Upper float64 `json:"upper"`
	} `json:"bracket"`
	Methods []struct {
		Method   string  `json:"method"`
		Estimate float64 `json:"estimate"`
	} `json:"methods"`
	MonteCarlo *mcDoc `json:"monte_carlo"`
}

type scheduleDoc struct {
	Policies []struct {
		FailureFree float64 `json:"failure_free_makespan"`
		MonteCarlo  *mcDoc  `json:"monte_carlo"`
	} `json:"policies"`
}

// checkMC: trials as requested, mean at least the failure-free
// makespan (failures only add time), and a finite CI.
func checkMC(r request, mc *mcDoc, d0 float64) error {
	if mc == nil {
		return fmt.Errorf("no monte_carlo result")
	}
	switch {
	case r.Adaptive && (mc.Adaptive == nil || mc.Trials < 1):
		return fmt.Errorf("adaptive run missing its diagnostics (trials %d)", mc.Trials)
	case !r.Adaptive && mc.Trials != r.Trials:
		return fmt.Errorf("trials %d, requested %d", mc.Trials, r.Trials)
	case !(mc.Mean >= d0*(1-1e-12)):
		return fmt.Errorf("mean %g below the failure-free makespan %g", mc.Mean, d0)
	case math.IsNaN(mc.CI95) || math.IsInf(mc.CI95, 0) || mc.CI95 < 0:
		return fmt.Errorf("ci95 %g not finite", mc.CI95)
	}
	return nil
}

// invariants checks a 2xx body against what its request asked for.
func invariants(r request, body []byte) error {
	if r.Route == "/v1/schedule" {
		var doc scheduleDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			return err
		}
		if len(doc.Policies) == 0 {
			return fmt.Errorf("no policies")
		}
		for _, p := range doc.Policies {
			if err := checkMC(r, p.MonteCarlo, p.FailureFree); err != nil {
				return err
			}
		}
		return nil
	}
	var doc estimateDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	if len(doc.Methods) == 0 {
		return fmt.Errorf("no method estimates")
	}
	for _, m := range doc.Methods {
		if math.IsNaN(m.Estimate) || math.IsInf(m.Estimate, 0) {
			return fmt.Errorf("%s estimate %g not finite", m.Method, m.Estimate)
		}
	}
	if b := doc.Bracket; b != nil && !(b.Lower <= b.Upper) {
		return fmt.Errorf("bracket [%g, %g] inverted", b.Lower, b.Upper)
	}
	if r.Trials == 0 && !r.Adaptive {
		return nil
	}
	return checkMC(r, doc.MonteCarlo, doc.FailureFree)
}

// percentile is the nearest-rank q-quantile of xs, where +Inf stands
// for a failed request; the result is +Inf when the rank lands on a
// failure.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// finite maps +Inf (a percentile landing on a failure) to the largest
// float, which JSON can carry.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
