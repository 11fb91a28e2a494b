package faultinject

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestDisabledIsInert(t *testing.T) {
	Disarm()
	if Enabled() {
		t.Fatal("Enabled() = true with nothing armed")
	}
	if err := Hit(context.Background(), "artifact.build.mc"); err != nil {
		t.Fatalf("Hit on disarmed site: %v", err)
	}
	if Triggered("artifact.evict") {
		t.Fatal("Triggered on disarmed site")
	}
	MaybePanic("service.panic.estimate") // must not panic
}

func TestErrorModeAndCount(t *testing.T) {
	t.Cleanup(Disarm)
	if err := Arm("artifact.build.mc=error:boom*2"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		err := Hit(ctx, "artifact.build.mc")
		if err == nil {
			t.Fatalf("shot %d: want error", i)
		}
		if !IsFault(err) {
			t.Fatalf("shot %d: IsFault = false for %v", i, err)
		}
		if !strings.Contains(err.Error(), "boom") {
			t.Fatalf("shot %d: message lost: %v", i, err)
		}
	}
	if err := Hit(ctx, "artifact.build.mc"); err != nil {
		t.Fatalf("point not spent after count: %v", err)
	}
}

func TestFiredCountsShots(t *testing.T) {
	t.Cleanup(Disarm)
	if err := Arm("mc=delay:0s;artifact.build=error*1"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := Hit(ctx, "mc.chunk"); err != nil {
			t.Fatal(err)
		}
	}
	Hit(ctx, "artifact.build.mc")
	Hit(ctx, "artifact.build.mc") // spent: not counted
	if got := Fired("mc"); got != 3 {
		t.Fatalf("Fired(mc) = %d, want 3", got)
	}
	if got := Fired("artifact.build"); got != 1 {
		t.Fatalf("Fired(artifact.build) = %d, want 1", got)
	}
	if got := Fired("mc.chunk"); got != 0 {
		t.Fatalf("Fired of an unarmed name = %d, want 0", got)
	}
	if err := Arm("mc=delay:0s"); err != nil {
		t.Fatal(err)
	}
	if got := Fired("mc"); got != 0 {
		t.Fatalf("re-armed point kept its count: %d", got)
	}
}

func TestPrefixMatchAtDotBoundary(t *testing.T) {
	t.Cleanup(Disarm)
	if err := Arm("artifact.build=error"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := Hit(ctx, "artifact.build.plan"); err == nil {
		t.Fatal("prefix point did not match child site")
	}
	if err := Hit(ctx, "artifact.builder"); err != nil {
		t.Fatalf("non-dot-boundary site matched: %v", err)
	}
	// Most specific point wins.
	if err := Arm("artifact.build=error:generic;artifact.build.mc=error:specific"); err != nil {
		t.Fatal(err)
	}
	err := Hit(ctx, "artifact.build.mc")
	if err == nil || !strings.Contains(err.Error(), "specific") {
		t.Fatalf("want most-specific point, got %v", err)
	}
}

func TestDelayModeRespectsContext(t *testing.T) {
	t.Cleanup(Disarm)
	if err := Arm("mc.chunk=delay:20ms"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Hit(context.Background(), "mc.chunk"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("delay too short: %v", d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Hit(ctx, "mc.chunk"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled delay: want context.Canceled, got %v", err)
	}
}

func TestTriggerMode(t *testing.T) {
	t.Cleanup(Disarm)
	if err := Arm("artifact.evict=trigger*1"); err != nil {
		t.Fatal(err)
	}
	if !Triggered("artifact.evict") {
		t.Fatal("armed trigger did not fire")
	}
	if Triggered("artifact.evict") {
		t.Fatal("spent trigger fired again")
	}
}

func TestMaybePanic(t *testing.T) {
	t.Cleanup(Disarm)
	if err := Arm("service.panic.estimate=panic:kaboom"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("MaybePanic did not panic")
		}
		if !strings.Contains(fmt.Sprint(p), "kaboom") {
			t.Fatalf("panic message lost: %v", p)
		}
	}()
	MaybePanic("service.panic.estimate")
}

func TestArmRejectsBadSpecs(t *testing.T) {
	t.Cleanup(Disarm)
	for _, spec := range []string{
		"noequals",
		"x=unknownmode",
		"x=delay:notaduration",
		"x=error*0",
		"x=error*-1",
		"=error",
	} {
		if err := Arm(spec); err == nil {
			t.Errorf("Arm(%q) accepted", spec)
		}
	}
	// A failed Arm must not leave a partial set armed.
	if Enabled() {
		t.Fatal("Enabled() after rejected specs")
	}
}
