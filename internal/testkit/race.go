//go:build race

package testkit

// RaceEnabled is true when the binary was built with -race. Timing ratios
// drown in the detector's instrumentation overhead, and sync.Pool
// deliberately drops a share of Puts under it, so tests asserting either
// skip.
const RaceEnabled = true
