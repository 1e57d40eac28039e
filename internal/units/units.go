// Package units provides byte-size and bandwidth quantities used throughout
// the forwarding stack and the experiment harness.
//
// Sizes are plain int64 byte counts; Bandwidth is bytes per second stored as
// a float64. Helper constructors and formatters follow the paper's
// conventions (requests in KiB/MiB, bandwidths in MB/s and GB/s, where the
// paper's MB is the decimal megabyte).
package units

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Byte size constants (binary prefixes, as used for request sizes).
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
	TiB int64 = 1 << 40
)

// Decimal constants used for bandwidth reporting (MB/s, GB/s in the paper).
const (
	KB int64 = 1_000
	MB int64 = 1_000_000
	GB int64 = 1_000_000_000
)

// ParseBytes parses a byte quantity with an optional binary (KiB/MiB/GiB)
// or decimal (KB/MB/GB) suffix or a plain B; a bare number is bytes.
// Space around the number is allowed; a negative quantity is refused.
func ParseBytes(s string) (int64, error) {
	mult := int64(1)
	num := strings.TrimSpace(s)
	for _, suf := range []struct {
		name string
		mult int64
	}{
		{"KiB", KiB}, {"MiB", MiB}, {"GiB", GiB},
		{"KB", KB}, {"MB", MB}, {"GB", GB}, {"B", 1},
	} {
		if n, ok := strings.CutSuffix(num, suf.name); ok {
			mult, num = suf.mult, n
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
	b := v * float64(mult)
	switch {
	case err != nil || b != b || b >= 1<<63: // NaN, or more than an int64 holds
		return 0, fmt.Errorf("bad byte quantity %q", s)
	case b < 0:
		return 0, fmt.Errorf("byte quantity %q is negative", s)
	}
	return int64(b), nil
}

// Bandwidth is a transfer rate in bytes per second.
type Bandwidth float64

// BandwidthFromMBps converts a value in decimal megabytes per second.
func BandwidthFromMBps(mbps float64) Bandwidth { return Bandwidth(mbps * float64(MB)) }

// MBps reports the bandwidth in decimal megabytes per second, the unit used
// by the paper's per-application plots (Figs. 1, 5, 8, 9).
func (b Bandwidth) MBps() float64 { return float64(b) / float64(MB) }

// GBps reports the bandwidth in decimal gigabytes per second, the unit used
// by the paper's aggregate plots (Figs. 2, 6).
func (b Bandwidth) GBps() float64 { return float64(b) / float64(GB) }

// String formats the bandwidth with an adaptive unit.
func (b Bandwidth) String() string {
	switch {
	case b >= Bandwidth(GB):
		return fmt.Sprintf("%.2f GB/s", b.GBps())
	case b >= Bandwidth(MB):
		return fmt.Sprintf("%.2f MB/s", b.MBps())
	case b >= Bandwidth(KB):
		return fmt.Sprintf("%.2f KB/s", float64(b)/float64(KB))
	default:
		return fmt.Sprintf("%.0f B/s", float64(b))
	}
}

// Over returns the bandwidth achieved when transferring bytes in d.
// It returns 0 for non-positive durations to keep aggregations total.
func Over(bytes int64, d time.Duration) Bandwidth {
	if d <= 0 {
		return 0
	}
	return Bandwidth(float64(bytes) / d.Seconds())
}

// TimeToTransfer returns the duration needed to move bytes at rate b.
// A non-positive bandwidth yields an infinite-like large duration cap.
func TimeToTransfer(bytes int64, b Bandwidth) time.Duration {
	if b <= 0 {
		return time.Duration(1<<62 - 1)
	}
	secs := float64(bytes) / float64(b)
	if secs > 1e12 {
		return time.Duration(1<<62 - 1)
	}
	return time.Duration(secs * float64(time.Second))
}

// FormatBytes renders a byte count with an adaptive binary unit.
func FormatBytes(n int64) string {
	switch {
	case n >= TiB:
		return fmt.Sprintf("%.2f TiB", float64(n)/float64(TiB))
	case n >= GiB:
		return fmt.Sprintf("%.2f GiB", float64(n)/float64(GiB))
	case n >= MiB:
		return fmt.Sprintf("%.2f MiB", float64(n)/float64(MiB))
	case n >= KiB:
		return fmt.Sprintf("%.2f KiB", float64(n)/float64(KiB))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
