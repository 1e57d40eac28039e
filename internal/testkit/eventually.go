package testkit

import (
	"runtime"
	"testing"
	"time"
)

// Eventually fails t unless ok holds within 10 s, polling it between
// yields of the processor. The deadline only bounds a broken run.
func Eventually(t testing.TB, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}
