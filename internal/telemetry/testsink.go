package telemetry

import (
	"fmt"
	"strings"
)

// TestSink bundles a registry and tracer for integration tests, with
// helpers for asserting cross-layer invariants (e.g. bytes entering the
// forwarding client equal bytes leaving at the PFS). Production code never
// uses it; livestack tests pass sink.Registry/sink.Tracer into the stack
// and assert through the sink afterwards.
type TestSink struct {
	Registry *Registry
	Tracer   *Tracer
}

// NewTestSink returns a sink with a fresh registry and tracer.
func NewTestSink() *TestSink {
	return &TestSink{Registry: New(), Tracer: NewTracer(0)}
}

// CounterSum sums every series of a base counter name across label sets —
// e.g. CounterSum("ion_writes_total") adds ion_writes_total{node="ion00"},
// {node="ion01"}, …
func (s *TestSink) CounterSum(base string) int64 {
	snap := s.Registry.Snapshot()
	var total int64
	for name, v := range snap.Counters {
		if baseName(name) == base {
			total += v
		}
	}
	return total
}

// HistogramCount returns the observation count of the first histogram
// whose series name starts with prefix (0 if none).
func (s *TestSink) HistogramCount(prefix string) int64 {
	snap := s.Registry.Snapshot()
	var total int64
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, prefix) {
			total += h.Count
		}
	}
	return total
}

// ExpectEqual verifies two counter sums match across layers; the returned
// error names both sides for test failure messages.
func (s *TestSink) ExpectEqual(baseA, baseB string) error {
	a, b := s.CounterSum(baseA), s.CounterSum(baseB)
	if a != b {
		return fmt.Errorf("telemetry: %s=%d but %s=%d", baseA, a, baseB, b)
	}
	return nil
}

// Traces returns the retained trace snapshots, oldest first.
func (s *TestSink) Traces() []TraceSnapshot {
	return s.Tracer.Recent()
}

// TraceFor returns the most recent trace whose path matches, and whether
// one was found.
func (s *TestSink) TraceFor(path string) (TraceSnapshot, bool) {
	traces := s.Tracer.Recent()
	for i := len(traces) - 1; i >= 0; i-- {
		if traces[i].Path == path {
			return traces[i], true
		}
	}
	return TraceSnapshot{}, false
}

// HopLayers returns the distinct layer names of a trace in hop order
// (duplicates from multi-chunk requests collapsed).
func HopLayers(t TraceSnapshot) []string {
	var out []string
	seen := map[string]bool{}
	for _, h := range t.Hops {
		if !seen[h.Layer] {
			seen[h.Layer] = true
			out = append(out, h.Layer)
		}
	}
	return out
}
