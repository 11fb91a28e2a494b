package service

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/httpx"
	"repro/internal/linalg"
)

// This file is the in-tree end-to-end parity suite: it builds the real
// cmd/makespand, cmd/makespan and cmd/experiments binaries, drives the
// daemon over HTTP and diffs its responses byte for byte against the CLI
// output for the same inputs, after zeroing wall-clock fields. The CI
// smoke job (scripts/e2e_smoke.sh) exercises the same case table with
// curl; docs/E2E.md documents it.

var (
	e2eOnce sync.Once
	e2eDir  string
	e2eErr  error
)

// buildBinaries compiles the three binaries once per test process.
func buildBinaries(t *testing.T) string {
	t.Helper()
	e2eOnce.Do(func() {
		dir, err := os.MkdirTemp("", "makespand-e2e-*")
		if err != nil {
			e2eErr = err
			return
		}
		cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
			"./cmd/makespand", "./cmd/makespan", "./cmd/experiments", "./cmd/schedsim")
		cmd.Dir = "../.." // module root
		if out, err := cmd.CombinedOutput(); err != nil {
			e2eErr = fmt.Errorf("go build: %v\n%s", err, out)
			return
		}
		e2eDir = dir
	})
	if e2eErr != nil {
		t.Skipf("cannot build binaries: %v", e2eErr)
	}
	return e2eDir
}

// daemon is one running makespand process under test.
type daemon struct {
	base   string // http://host:port
	cmd    *exec.Cmd
	waitc  chan error // closed result of cmd.Wait (buffered 1)
	stderr *bytes.Buffer
	mu     *sync.Mutex // guards stderr
}

// stderrTail returns what the daemon has written so far (for failure
// dumps).
func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// startDaemonProc launches makespand on a free port and returns once
// /healthz answers. It fails fast — with the daemon's stderr — when the
// process dies during startup instead of sitting out the full deadline,
// and never uses a fixed sleep: readiness is the scraped listening line
// plus a retrying probe with a hard deadline.
func startDaemonProc(t *testing.T, bin string, env []string, extraArgs ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, extraArgs...)
	cmd := exec.Command(filepath.Join(bin, "makespand"), args...)
	cmd.Env = append(os.Environ(), env...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, waitc: make(chan error, 1), stderr: &bytes.Buffer{}, mu: &sync.Mutex{}}

	addrRe := regexp.MustCompile(`listening on (\S+)`)
	addrc := make(chan string, 1)
	go func() {
		lines := bufio.NewScanner(stderr)
		for lines.Scan() {
			line := lines.Text()
			d.mu.Lock()
			d.stderr.WriteString(line)
			d.stderr.WriteByte('\n')
			d.mu.Unlock()
			if m := addrRe.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
		// Pipe EOF: the process is exiting; reap it exactly once.
		d.waitc <- cmd.Wait()
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		select {
		case <-d.waitc:
		case <-time.After(10 * time.Second):
		}
	})

	select {
	case addr := <-addrc:
		d.base = "http://" + addr
	case err := <-d.waitc:
		t.Fatalf("makespand died during startup (%v); stderr:\n%s", err, d.stderrTail())
	case <-time.After(30 * time.Second):
		t.Fatalf("makespand did not report a listening address; stderr:\n%s", d.stderrTail())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpx.WaitReady(ctx, d.base+"/healthz", nil); err != nil {
		t.Fatalf("makespand never became ready (%v); stderr:\n%s", err, d.stderrTail())
	}
	return d
}

// startDaemon is the plain-URL variant for tests that only speak HTTP.
func startDaemon(t *testing.T, bin string, extraArgs ...string) string {
	t.Helper()
	return startDaemonProc(t, bin, nil, extraArgs...).base
}

func httpPost(t *testing.T, url, body string) string {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, b)
	}
	return string(b)
}

func runCLI(t *testing.T, bin, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, name), args...)
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = io.Discard
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v", name, args, err)
	}
	return out.String()
}

// The headline acceptance criterion: service responses byte-identical to
// the CLIs for the same graph/method/seed (timing fields normalized).
func TestE2EServiceMatchesCLIs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildBinaries(t)
	base := startDaemon(t, bin)

	t.Run("estimate", func(t *testing.T) {
		svc := httpPost(t, base+"/v1/estimate",
			`{"kind":"lu","k":8,"pfail":0.001,"methods":"paper","trials":2000,"seed":7,"bounds":true,"quantiles":[0.5,0.95]}`)
		cli := runCLI(t, bin, "makespan", "-kind", "lu", "-k", "8", "-pfail", "0.001",
			"-methods", "paper", "-trials", "2000", "-seed", "7", "-bounds",
			"-quantiles", "0.5,0.95", "-format", "json")
		if normalizeTimes(svc) != normalizeTimes(cli) {
			t.Errorf("estimate differs from CLI:\nservice:\n%s\ncli:\n%s", svc, cli)
		}
		// Warm repeat stays identical.
		warm := httpPost(t, base+"/v1/estimate",
			`{"kind":"lu","k":8,"pfail":0.001,"methods":"paper","trials":2000,"seed":7,"bounds":true,"quantiles":[0.5,0.95]}`)
		if normalizeTimes(warm) != normalizeTimes(svc) {
			t.Error("warm estimate differs from cold")
		}
	})

	t.Run("estimate-all-methods-lambda", func(t *testing.T) {
		svc := httpPost(t, base+"/v1/estimate",
			`{"kind":"qr","k":6,"lambda":0.002,"methods":"all","trials":1000,"seed":11}`)
		cli := runCLI(t, bin, "makespan", "-kind", "qr", "-k", "6", "-lambda", "0.002",
			"-methods", "all", "-trials", "1000", "-seed", "11", "-format", "json")
		if normalizeTimes(svc) != normalizeTimes(cli) {
			t.Errorf("lambda estimate differs:\nservice:\n%s\ncli:\n%s", svc, cli)
		}
	})

	t.Run("sweep", func(t *testing.T) {
		svc := httpPost(t, base+"/v1/sweep", `{"trials":2000,"seed":7}`)
		cli := runCLI(t, bin, "experiments", "-sweep", "-format", "json", "-trials", "2000", "-seed", "7")
		if normalizeTimes(svc) != normalizeTimes(cli) {
			t.Errorf("sweep differs from CLI:\nservice:\n%s\ncli:\n%s", svc, cli)
		}
	})

	t.Run("sweep-custom-spec", func(t *testing.T) {
		svc := httpPost(t, base+"/v1/sweep",
			`{"kind":"cholesky","k":6,"pfails":[0.1,0.01,0.001],"trials":1500,"seed":3,"methods":"all"}`)
		cli := runCLI(t, bin, "experiments", "-sweep", "-sweep-kind", "cholesky", "-sweep-k", "6",
			"-sweep-pfails", "0.1,0.01,0.001", "-format", "json", "-trials", "1500", "-seed", "3", "-all-methods")
		if normalizeTimes(svc) != normalizeTimes(cli) {
			t.Errorf("custom sweep differs:\nservice:\n%s\ncli:\n%s", svc, cli)
		}
	})

	t.Run("schedule", func(t *testing.T) {
		req := `{"kind":"lu","k":8,"procs":4,"pfail":0.01,"trials":2000,"seed":7,"quantiles":[0.5,0.99]}`
		svc := httpPost(t, base+"/v1/schedule", req)
		cli := runCLI(t, bin, "schedsim", "-kind", "lu", "-k", "8", "-procs", "4", "-pfail", "0.01",
			"-trials", "2000", "-seed", "7", "-quantiles", "0.5,0.99", "-format", "json")
		if normalizeTimes(svc) != normalizeTimes(cli) {
			t.Errorf("schedule differs from CLI:\nservice:\n%s\ncli:\n%s", svc, cli)
		}
		// Warm repeat (cached frozen schedule) stays identical.
		warm := httpPost(t, base+"/v1/schedule", req)
		if normalizeTimes(warm) != normalizeTimes(svc) {
			t.Error("warm schedule differs from cold")
		}
	})

	t.Run("schedule-single-policy-lambda", func(t *testing.T) {
		svc := httpPost(t, base+"/v1/schedule",
			`{"kind":"qr","k":6,"procs":8,"lambda":0.003,"policies":"fo","trials":1000,"seed":11}`)
		cli := runCLI(t, bin, "schedsim", "-kind", "qr", "-k", "6", "-procs", "8", "-lambda", "0.003",
			"-policies", "fo", "-trials", "1000", "-seed", "11", "-format", "json")
		if normalizeTimes(svc) != normalizeTimes(cli) {
			t.Errorf("schedule (fo, λ) differs from CLI:\nservice:\n%s\ncli:\n%s", svc, cli)
		}
	})

	t.Run("estimate-adaptive-quantiles", func(t *testing.T) {
		svc := httpPost(t, base+"/v1/estimate",
			`{"kind":"lu","k":6,"pfail":0.01,"methods":"paper","seed":9,"tolerance":0.05,"target_quantile":0.9,"quantiles":[0.5,0.9]}`)
		cli := runCLI(t, bin, "makespan", "-kind", "lu", "-k", "6", "-pfail", "0.01",
			"-methods", "paper", "-seed", "9", "-tolerance", "0.05", "-target-quantile", "0.9",
			"-quantiles", "0.5,0.9", "-format", "json")
		if normalizeTimes(svc) != normalizeTimes(cli) {
			t.Errorf("adaptive estimate differs from CLI:\nservice:\n%s\ncli:\n%s", svc, cli)
		}
	})

	t.Run("schedule-adaptive", func(t *testing.T) {
		svc := httpPost(t, base+"/v1/schedule",
			`{"kind":"lu","k":6,"procs":3,"pfail":0.02,"seed":5,"tolerance":0.05}`)
		cli := runCLI(t, bin, "schedsim", "-kind", "lu", "-k", "6", "-procs", "3", "-pfail", "0.02",
			"-seed", "5", "-tolerance", "0.05", "-format", "json")
		if normalizeTimes(svc) != normalizeTimes(cli) {
			t.Errorf("adaptive schedule differs from CLI:\nservice:\n%s\ncli:\n%s", svc, cli)
		}
	})

	t.Run("schedule-procs-past-tasks", func(t *testing.T) {
		// LU k=4 has 30 tasks; every count past that shares procs = 30's
		// schedule, with procs and efficiency echoing the request.
		svc := httpPost(t, base+"/v1/schedule",
			`{"kind":"lu","k":4,"procs":100,"pfail":0.01,"trials":1000,"seed":3}`)
		cli := runCLI(t, bin, "schedsim", "-kind", "lu", "-k", "4", "-procs", "100", "-pfail", "0.01",
			"-trials", "1000", "-seed", "3", "-format", "json")
		if normalizeTimes(svc) != normalizeTimes(cli) {
			t.Errorf("procs > tasks schedule differs from CLI:\nservice:\n%s\ncli:\n%s", svc, cli)
		}
	})

	t.Run("submitted-graph-file", func(t *testing.T) {
		// A DAG submitted as raw JSON must estimate exactly like
		// `makespan -graph file.json`.
		g, err := linalg.Generate(linalg.FactCholesky, 5, linalg.KernelTimes{})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "g.json")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := dag.WriteJSON(f, g); err != nil {
			t.Fatal(err)
		}
		f.Close()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sub := httpPost(t, base+"/v1/graphs", fmt.Sprintf(`{"graph":%s}`, raw))
		idRe := regexp.MustCompile(`"id": "([^"]+)"`)
		m := idRe.FindStringSubmatch(sub)
		if m == nil {
			t.Fatalf("no id in %s", sub)
		}
		svc := httpPost(t, base+"/v1/estimate",
			fmt.Sprintf(`{"graph_id":%q,"pfail":0.01,"methods":"paper","trials":1000,"seed":5}`, m[1]))
		cli := runCLI(t, bin, "makespan", "-graph", path, "-pfail", "0.01",
			"-methods", "paper", "-trials", "1000", "-seed", "5", "-format", "json")
		if normalizeTimes(svc) != normalizeTimes(cli) {
			t.Errorf("file-graph estimate differs:\nservice:\n%s\ncli:\n%s", svc, cli)
		}
	})
}

// SIGTERM drains a real makespand process: /healthz flips to 503 during
// the grace window, the request that was mid-kernel when the signal
// arrived still completes with a full 200 document, and the process
// exits 0.
func TestE2EDrainOnSigterm(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildBinaries(t)
	// The chunk delay keeps the in-flight estimate slow enough to
	// straddle the signal on any machine; the grace window keeps the
	// listener open long enough to observe the draining health state.
	d := startDaemonProc(t, bin, []string{"MAKESPAND_FAULTS=mc.chunk=delay:20ms"},
		"-drain-grace", "500ms", "-drain-timeout", "30s")

	done := make(chan string, 1)
	go func() {
		resp, err := http.Post(d.base+"/v1/estimate", "application/json",
			strings.NewReader(`{"kind":"lu","k":6,"pfail":0.05,"methods":"First Order","trials":40960}`))
		if err != nil {
			done <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- fmt.Sprintf("%d %s", resp.StatusCode, b)
	}()

	// Wait until the request is inside the handler stack, then signal.
	waitInFlight := func() bool {
		resp, err := http.Get(d.base + "/v1/cache")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return strings.Contains(string(b), `"in_flight": 2`) // the estimate + this probe
	}
	deadline := time.Now().Add(15 * time.Second)
	for !waitInFlight() {
		if time.Now().After(deadline) {
			t.Fatalf("estimate never showed up in flight; stderr:\n%s", d.stderrTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// During the grace window the health probe must advertise draining.
	saw503 := false
	for probeDeadline := time.Now().Add(5 * time.Second); time.Now().Before(probeDeadline); {
		resp, err := http.Get(d.base + "/healthz")
		if err != nil {
			break // listener closed: grace window over
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			saw503 = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !saw503 {
		t.Errorf("healthz never answered 503 during the drain grace window; stderr:\n%s", d.stderrTail())
	}

	// The in-flight estimate survives the drain with a complete document.
	select {
	case res := <-done:
		if !strings.HasPrefix(res, "200 ") || !strings.Contains(res, `"monte_carlo"`) {
			t.Fatalf("in-flight request during drain: %s\nstderr:\n%s", res, d.stderrTail())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("in-flight request never completed; stderr:\n%s", d.stderrTail())
	}

	// And the process exits 0 — a drain is not a crash.
	select {
	case err := <-d.waitc:
		if err != nil {
			t.Fatalf("daemon exit after drain: %v; stderr:\n%s", err, d.stderrTail())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon never exited after SIGTERM; stderr:\n%s", d.stderrTail())
	}
	if !strings.Contains(d.stderrTail(), "drained, exiting") {
		t.Errorf("drain log line missing; stderr:\n%s", d.stderrTail())
	}
}
