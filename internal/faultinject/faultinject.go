// Package faultinject provides failpoints for chaos testing: named
// hook sites compiled into production code paths (artifact builds, MC
// chunk execution, service routes) that are inert until armed.
//
// Faults are armed from the MAKESPAND_FAULTS environment variable at
// process start, or programmatically via Arm in tests. The spec is a
// semicolon-separated list of failpoints:
//
//	name=mode[:arg][*count]
//
// where mode is one of
//
//	error[:msg]     Hit returns a *Fault error (default msg "injected fault")
//	delay:duration  Hit sleeps for duration (e.g. delay:50ms) then returns nil
//	panic[:msg]     MaybePanic panics; Hit returns a *Fault error
//	trigger         Triggered reports true; Hit returns nil
//
// and the optional *count disarms the point after it has fired count
// times. A point name matches a hook site if it equals the site name or
// is a dot-boundary prefix of it: "artifact.build" matches
// "artifact.build.mc". The most specific armed point wins.
//
// The disabled fast path is a single atomic load, so leaving hook
// sites in hot loops costs nothing in production.
package faultinject

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Fault is the error returned by Hit at a site armed in error mode.
type Fault struct {
	// Point is the armed point name that fired.
	Point string
	// Msg is the configured message.
	Msg string
}

// Error implements the error interface.
func (f *Fault) Error() string { return fmt.Sprintf("faultinject: %s: %s", f.Point, f.Msg) }

// IsFault reports whether err is (or wraps) an injected *Fault.
func IsFault(err error) bool {
	for err != nil {
		if _, ok := err.(*Fault); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

const (
	modeError   = "error"
	modeDelay   = "delay"
	modePanic   = "panic"
	modeTrigger = "trigger"
)

type point struct {
	name      string
	mode      string
	msg       string
	delay     time.Duration
	remaining int64 // guarded by mu; <0 means unlimited
	fired     int64 // guarded by mu; shots consumed so far
}

var (
	enabled atomic.Bool
	mu      sync.Mutex
	points  map[string]*point
)

func init() {
	if spec := os.Getenv("MAKESPAND_FAULTS"); spec != "" {
		if err := Arm(spec); err != nil {
			// A typo must not take the daemon down, but it must be
			// loud: the chaos harness asserts observed faults, so a
			// silently-disarmed run fails visibly downstream.
			fmt.Fprintf(os.Stderr, "faultinject: ignoring MAKESPAND_FAULTS: %v\n", err)
		}
	}
}

// Arm replaces the armed fault set with the given spec. An empty spec
// disarms everything. Arm returns an error (and leaves the previous set
// in place) if the spec does not parse.
func Arm(spec string) error {
	next := make(map[string]*point)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := parsePoint(part)
		if err != nil {
			return err
		}
		next[p.name] = p
	}
	mu.Lock()
	points = next
	enabled.Store(len(next) > 0)
	mu.Unlock()
	return nil
}

// Disarm removes every armed fault and restores the zero-cost path.
func Disarm() {
	mu.Lock()
	points = nil
	enabled.Store(false)
	mu.Unlock()
}

// Enabled reports whether any fault is armed. It is the fast path hook
// sites may check before building a site name.
func Enabled() bool { return enabled.Load() }

func parsePoint(s string) (*point, error) {
	name, rest, ok := strings.Cut(s, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" {
		return nil, fmt.Errorf("failpoint %q: want name=mode[:arg][*count]", s)
	}
	p := &point{name: name, remaining: -1}
	if body, count, ok := strings.Cut(rest, "*"); ok {
		n, err := strconv.ParseInt(strings.TrimSpace(count), 10, 64)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("failpoint %q: bad count %q", s, count)
		}
		p.remaining = n
		rest = body
	}
	mode, arg, _ := strings.Cut(strings.TrimSpace(rest), ":")
	switch mode {
	case modeError, modePanic:
		p.mode = mode
		p.msg = arg
		if p.msg == "" {
			p.msg = "injected fault"
		}
	case modeDelay:
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("failpoint %q: bad delay %q", s, arg)
		}
		p.mode = modeDelay
		p.delay = d
	case modeTrigger:
		p.mode = modeTrigger
	default:
		return nil, fmt.Errorf("failpoint %q: unknown mode %q", s, mode)
	}
	return p, nil
}

// fire finds the most specific armed point matching site and consumes
// one shot from it. It returns nil when nothing matches.
func fire(site string) *point {
	mu.Lock()
	defer mu.Unlock()
	for name := site; name != ""; {
		if p, ok := points[name]; ok {
			if p.remaining == 0 {
				return nil // spent
			}
			if p.remaining > 0 {
				p.remaining--
			}
			p.fired++
			return p
		}
		i := strings.LastIndexByte(name, '.')
		if i < 0 {
			return nil
		}
		name = name[:i]
	}
	return nil
}

// Fired reports how many times the armed point named name has fired
// through Hit since it was armed (0 when no such point is armed). Tests
// use a delay:0s point as a counter of the hook site's executions.
func Fired(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.fired
	}
	return 0
}

// Hit fires the failpoint at site, if armed: error- and panic-mode
// points return a *Fault, delay-mode points sleep (bounded by ctx) and
// return nil, trigger-mode points return nil. Unarmed sites return nil.
func Hit(ctx context.Context, site string) error {
	if !enabled.Load() {
		return nil
	}
	p := fire(site)
	if p == nil {
		return nil
	}
	switch p.mode {
	case modeError, modePanic:
		return &Fault{Point: p.name, Msg: p.msg}
	case modeDelay:
		if p.delay <= 0 {
			return nil
		}
		t := time.NewTimer(p.delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Triggered fires the failpoint at site and reports whether a
// trigger-mode point matched. Non-trigger modes do not fire through
// Triggered.
func Triggered(site string) bool {
	if !enabled.Load() {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	for name := site; name != ""; {
		if p, ok := points[name]; ok {
			if p.mode != modeTrigger || p.remaining == 0 {
				return false
			}
			if p.remaining > 0 {
				p.remaining--
			}
			return true
		}
		i := strings.LastIndexByte(name, '.')
		if i < 0 {
			return false
		}
		name = name[:i]
	}
	return false
}

// MaybePanic panics with the configured message if a panic-mode point
// matches site. Other modes fire through Hit, not MaybePanic.
func MaybePanic(site string) {
	if !enabled.Load() {
		return
	}
	mu.Lock()
	var hit *point
	for name := site; name != ""; {
		if p, ok := points[name]; ok {
			if p.mode == modePanic && p.remaining != 0 {
				if p.remaining > 0 {
					p.remaining--
				}
				hit = p
			}
			break
		}
		i := strings.LastIndexByte(name, '.')
		if i < 0 {
			break
		}
		name = name[:i]
	}
	mu.Unlock()
	if hit != nil {
		panic(fmt.Sprintf("faultinject: %s: %s", hit.name, hit.msg))
	}
}
