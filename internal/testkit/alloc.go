// Package testkit holds the few helpers tests in several packages share.
package testkit

import (
	"runtime"
	"runtime/debug"
)

// AllocatedBy reports the bytes fn allocated, process-wide: callers must
// not run in parallel with other tests.
func AllocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// SteadyStateBytesPerCall reports the bytes allocated per call() on a
// pooled path once its pools are warm, measured over windows of calls
// calls with the collector off (a collection would clear the pools
// mid-window). Another goroutine may still hold the previous exchange's
// buffer when the next one starts, so a window can see one cold
// allocation; the pools only grow while the collector is off, so the best
// of a few windows — stopping at the first under budget — is the steady
// state.
func SteadyStateBytesPerCall(calls int, budget uint64, call func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := ^uint64(0)
	for window := 0; window < 5 && best >= budget; window++ {
		best = min(best, AllocatedBy(func() {
			for i := 0; i < calls; i++ {
				call()
			}
		})/uint64(calls))
	}
	return best
}
