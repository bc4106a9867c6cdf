package testkit

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"
)

// LeakBound is how long goroutines a test started may take to exit after
// it returns: the stall tests' bound.
const LeakBound = 2 * time.Second

// CheckGoroutines snapshots the goroutines running now and, when tb and
// the cleanups registered after this call have finished, waits up to
// LeakBound for every goroutine started since to exit; otherwise it fails
// tb with their stacks. Call it first in a test, so that it runs after the
// test's own Close and drain.
func CheckGoroutines(tb testing.TB) {
	tb.Helper()
	before := map[string]bool{}
	for _, g := range goroutines() {
		before[goroutineID(g)] = true
	}
	tb.Cleanup(func() {
		deadline := time.Now().Add(LeakBound)
		for {
			var left []string
			for _, g := range goroutines() {
				if !before[goroutineID(g)] {
					left = append(left, g)
				}
			}
			if len(left) == 0 {
				return
			}
			if time.Now().After(deadline) {
				tb.Errorf("%d goroutine(s) still running %v after the test:\n\n%s", len(left), LeakBound, strings.Join(left, "\n\n"))
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// goroutines returns the stack of every goroutine.
func goroutines() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Split(string(bytes.TrimSpace(buf[:n])), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// goroutineID is the "goroutine N" that heads a stack.
func goroutineID(stack string) string {
	head, _, _ := strings.Cut(stack, " [")
	return head
}
