package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"choco/internal/serve"
	"choco/internal/testkit"
)

// Regression for the session-limit watcher goroutine: it used to range
// a ticker channel forever, so after cancel() it kept polling Stats on
// a server that was already gone. The rewritten watcher must fire done
// when the limit is reached and must exit on context cancellation.

func TestWatchSessionLimitFiresDone(t *testing.T) {
	testkit.CheckGoroutines(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var calls atomic.Int64
	stats := func() serve.Stats {
		calls.Add(1)
		return serve.Stats{SessionsTotal: 3, SessionsActive: 0}
	}

	fired := make(chan struct{})
	go watchSessionLimit(ctx, stats, 3, time.Millisecond, func() { close(fired) })

	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never fired done despite the limit being reached")
	}
	if calls.Load() == 0 {
		t.Fatal("watcher fired without consulting stats")
	}
}

func TestWatchSessionLimitExitsOnCancel(t *testing.T) {
	testkit.CheckGoroutines(t)
	ctx, cancel := context.WithCancel(context.Background())

	stats := func() serve.Stats {
		// Limit never reached: only cancellation can stop the watcher.
		return serve.Stats{SessionsTotal: 0, SessionsActive: 1}
	}

	exited := make(chan struct{})
	go func() {
		watchSessionLimit(ctx, stats, 10, time.Millisecond, func() {
			t.Error("done fired though the session limit was never reached")
		})
		close(exited)
	}()

	cancel()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("watcher did not exit after context cancellation")
	}
}
