package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one running server process (makespand or makespan-lb).
type proc struct {
	cmd  *exec.Cmd
	addr string        // host:port from the "listening on" line
	done chan struct{} // closed once the process has exited and been reaped
}

// startProc execs a server binary on a kernel-chosen port and returns
// once it has printed its "listening on <addr>" readiness line. The
// stderr reader keeps draining the access log afterwards.
func startProc(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// A server must not outlive the benchmark, even one that dies abruptly.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok && !announced {
				announced = true
				addr, _, _ := strings.Cut(rest, " ")
				ready <- addr
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // a line over 1 MiB ends Scan early
		close(ready)
		_ = cmd.Wait() // exit status is irrelevant: stop decides when it ends
		close(p.done)
	}()
	select {
	case addr, ok := <-ready:
		if ok {
			p.addr = addr
			return p, nil
		}
		<-p.done
		return nil, fmt.Errorf("%s exited before listening", filepath.Base(bin))
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s not listening after 30s", filepath.Base(bin))
	}
}

func (p *proc) pid() int    { return p.cmd.Process.Pid }
func (p *proc) url() string { return "http://" + p.addr }

// stop sends SIGTERM (a graceful drain) and waits for the exit, killing
// the process if it has not exited within 10 s.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// fleet is one workload's running server processes.
type fleet struct {
	replicas []*proc
	lb       *proc // nil for single-daemon workloads
}

// startFleet starts the workload's replicas and, for fleet workloads,
// the lb in front of them.
func startFleet(w workload, binDir string) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < w.replicas; i++ {
		args := []string{"-workers", strconv.Itoa(serverWorkers), "-cache-bytes", strconv.FormatInt(w.cacheBytes, 10)}
		p, err := startProc(filepath.Join(binDir, "makespand"), args...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.replicas = append(f.replicas, p)
		urls = append(urls, p.url())
	}
	if w.lb {
		p, err := startProc(filepath.Join(binDir, "makespan-lb"), "-replicas", strings.Join(urls, ","))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.lb = p
	}
	return f, nil
}

// front is the URL clients talk to.
func (f *fleet) front() string {
	if f.lb != nil {
		return f.lb.url()
	}
	return f.replicas[0].url()
}

func (f *fleet) procs() []*proc {
	ps := append([]*proc(nil), f.replicas...)
	if f.lb != nil {
		ps = append(ps, f.lb)
	}
	return ps
}

// stop stops the lb first, then the replicas, waiting for every exit.
func (f *fleet) stop() {
	if f.lb != nil {
		f.lb.stop()
	}
	for _, p := range f.replicas {
		p.stop()
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// cpuSeconds reads a process's user+system CPU time from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// space-separated, starting with the state (field 3).
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseUint(f[12], 10, 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return float64(utime+stime) / clockTicks, nil
}

// peakRSSMiB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status VmHWM: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// cpuStolen reads the machine-wide steal time and total CPU time, in
// ticks, from /proc/stat: on a virtual machine, steal is time a runnable
// vCPU waited for the host, which lengthens latency without adding to
// any process's CPU time.
func cpuStolen() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: malformed cpu line %q", line)
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// sumProcs adds a per-process reading over every process.
func sumProcs(ps []*proc, read func(int) (float64, error)) (float64, error) {
	total := 0.0
	for _, p := range ps {
		v, err := read(p.pid())
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// newClient returns the load generator's HTTP client: at most slots
// connections to the front, kept alive across requests.
func newClient(slots int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     slots,
			MaxIdleConnsPerHost: slots,
			DisableCompression:  true,
		},
	}
}

// outcome is one request's fate.
type outcome struct {
	status int
	body   []byte
	err    error
	lat    time.Duration // from the scheduled send time to the full response
	lag    time.Duration // how late the generator actually sent it
}

func (o outcome) ok() bool { return o.err == nil && o.status >= 200 && o.status < 300 }

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// prime sends the working-set requests one at a time, failing on any
// non-2xx answer.
func prime(c *http.Client, base string, reqs []request) error {
	for _, r := range reqs {
		status, body, err := post(c, base+r.Route, r.Body)
		if err != nil {
			return fmt.Errorf("prime %s: %w", r.Route, err)
		}
		if status/100 != 2 {
			return fmt.Errorf("prime %s: status %d: %s", r.Route, status, bytes.TrimSpace(body))
		}
	}
	return nil
}

// drive plays the stream open loop: each request is sent at its Poisson
// due time, or as soon as one of the slots connections frees up, and is
// timed from its due time, so a stall delays and is charged to every
// request queued behind it. It returns once every response is in, with
// the elapsed wall time.
func drive(c *http.Client, base string, reqs []request, slots int) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	sem := make(chan struct{}, slots)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		due := start.Add(reqs[i].Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			o := &out[i]
			o.lag = time.Since(due)
			o.status, o.body, o.err = post(c, base+reqs[i].Route, reqs[i].Body)
			o.lat = time.Since(due)
		}(i, due)
	}
	wg.Wait()
	return out, time.Since(start)
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// kindStats is one artifact kind's row of a replica's GET /v1/cache.
type kindStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// cacheTotals sums GET /v1/cache over every replica, per artifact kind.
func cacheTotals(c *http.Client, f *fleet) (map[string]kindStats, error) {
	total := map[string]kindStats{}
	for _, p := range f.replicas {
		var doc struct {
			Kinds map[string]kindStats `json:"kinds"`
		}
		if err := getJSON(c, p.url()+"/v1/cache", &doc); err != nil {
			return nil, err
		}
		for k, s := range doc.Kinds {
			t := total[k]
			t.Hits += s.Hits
			t.Misses += s.Misses
			t.Evictions += s.Evictions
			total[k] = t
		}
	}
	return total, nil
}

// promSum sums every sample of a Prometheus text family whose label set
// contains match (empty: all samples).
func promSum(text, family, match string) float64 {
	total := 0.0
	for _, line := range strings.Split(text, "\n") {
		name, rest, ok := strings.Cut(line, "{")
		if !ok || name != family || !strings.Contains(rest, match) {
			continue
		}
		if i := strings.LastIndexByte(rest, ' '); i >= 0 {
			if v, err := strconv.ParseFloat(rest[i+1:], 64); err == nil {
				total += v
			}
		}
	}
	return total
}

func getText(c *http.Client, url string) (string, error) {
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
