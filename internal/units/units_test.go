package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestBandwidthConversions(t *testing.T) {
	b := BandwidthFromMBps(1024)
	if got := b.MBps(); math.Abs(got-1024) > 1e-9 {
		t.Fatalf("MBps round trip: got %v want 1024", got)
	}
	if got := b.GBps(); math.Abs(got-1.024) > 1e-9 {
		t.Fatalf("GBps: got %v want 1.024", got)
	}
}

func TestOver(t *testing.T) {
	cases := []struct {
		bytes int64
		d     time.Duration
		want  float64 // MB/s
	}{
		{bytes: 100 * MB, d: time.Second, want: 100},
		{bytes: 50 * MB, d: 500 * time.Millisecond, want: 100},
		{bytes: 1 * GB, d: 2 * time.Second, want: 500},
		{bytes: 0, d: time.Second, want: 0},
	}
	for _, c := range cases {
		if got := Over(c.bytes, c.d).MBps(); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("Over(%d, %v) = %v MB/s, want %v", c.bytes, c.d, got, c.want)
		}
	}
}

func TestOverZeroDuration(t *testing.T) {
	if got := Over(123, 0); got != 0 {
		t.Fatalf("Over with zero duration: got %v want 0", got)
	}
	if got := Over(123, -time.Second); got != 0 {
		t.Fatalf("Over with negative duration: got %v want 0", got)
	}
}

func TestTimeToTransfer(t *testing.T) {
	d := TimeToTransfer(100*MB, BandwidthFromMBps(100))
	if math.Abs(d.Seconds()-1.0) > 1e-6 {
		t.Fatalf("TimeToTransfer: got %v want 1s", d)
	}
	if d := TimeToTransfer(1, 0); d < time.Duration(1<<61) {
		t.Fatalf("TimeToTransfer at zero bandwidth should be huge, got %v", d)
	}
}

func TestTransferRoundTripProperty(t *testing.T) {
	f := func(mbps uint16, mib uint16) bool {
		if mbps == 0 {
			return true
		}
		bytes := int64(mib) * MiB
		bw := BandwidthFromMBps(float64(mbps))
		d := TimeToTransfer(bytes, bw)
		back := Over(bytes, d)
		if bytes == 0 {
			return back == 0
		}
		// TimeToTransfer truncates to whole nanoseconds, so d may fall up
		// to 1 ns short of the exact time and back overshoots bw by up to
		// one nanosecond's worth of rate: less than 1e-6 of bw above 1 ms,
		// more below it, where that nanosecond is allowed on top.
		tol := 1e-6 * float64(bw)
		if d <= time.Millisecond {
			tol += float64(Over(bytes, d) - Over(bytes, d+1))
		}
		return math.Abs(float64(back-bw)) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthString(t *testing.T) {
	cases := []struct {
		b    Bandwidth
		want string
	}{
		{BandwidthFromMBps(2500), "2.50 GB/s"},
		{BandwidthFromMBps(100), "100.00 MB/s"},
		{Bandwidth(5_000), "5.00 KB/s"},
		{Bandwidth(12), "12 B/s"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", float64(c.b), got, c.want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512 B"},
		{KiB, "1.00 KiB"},
		{4 * MiB, "4.00 MiB"},
		{3 * GiB, "3.00 GiB"},
		{2 * TiB, "2.00 TiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.n); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestFormatBytesMonotoneUnits(t *testing.T) {
	// Property: larger sizes never format with a smaller unit suffix rank.
	rank := func(s string) int {
		switch {
		case strings.HasSuffix(s, "TiB"):
			return 4
		case strings.HasSuffix(s, "GiB"):
			return 3
		case strings.HasSuffix(s, "MiB"):
			return 2
		case strings.HasSuffix(s, "KiB"):
			return 1
		default:
			return 0
		}
	}
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return rank(FormatBytes(x)) <= rank(FormatBytes(y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"4096", 4096},
		{"4KiB", 4 * KiB},
		{"32KiB", 32 * KiB},
		{"64MiB", 64 * MiB},
		{"4 MiB", 4 * MiB},
		{" 1MiB ", MiB},
		{"0.5MiB", MiB / 2},
		{"2GiB", 2 * GiB},
		{"1KB", KB},
		{"512KB", 512 * KB},
		{"10MB", 10 * MB},
		{"3GB", 3 * GB},
		{"512B", 512},
		{"1.5MiB", MiB + MiB/2},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Fatalf("ParseBytes(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "x", "-1", "-4KiB", "-4MiB", "MiB", "abcMiB", "12QiB", "NaN", "InfGiB"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Fatalf("ParseBytes(%q) accepted, want error", bad)
		}
	}
}
