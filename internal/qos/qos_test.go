package qos

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/units"
)

func TestParseConfig(t *testing.T) {
	src := `
# tenant policy
class gold tier=guaranteed rate=64MiB burst=8MiB slo=250ms weight=4
class scav tier=scavenger rate=2MiB burst=256KiB weight=0.25
class plain

app ior-1 gold
app bg-scan scav
`
	r, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := r.ClassFor("ior-1")
	if g == nil || g.Name != "gold" {
		t.Fatalf("ClassFor(ior-1) = %+v, want gold", g)
	}
	if g.Tier != TierGuaranteed || g.Rate != 64*units.MiB || g.Burst != 8*units.MiB ||
		g.SLO != 250*time.Millisecond || g.Weight != 4 {
		t.Fatalf("gold parsed wrong: %+v", g)
	}
	s := r.ClassFor("bg-scan")
	if s == nil || s.Tier != TierScavenger || s.Weight != 0.25 {
		t.Fatalf("scav parsed wrong: %+v", s)
	}
	if p := r.ClassFor("plain-app"); p != nil {
		t.Fatalf("unassigned app got class %+v", p)
	}
	if w := r.Weight("ior-1"); w != 4 {
		t.Fatalf("Weight(ior-1) = %g, want 4", w)
	}
	if w := r.Weight("nobody"); w != 1 {
		t.Fatalf("Weight(nobody) = %g, want 1", w)
	}
	// A "plain" class with no knobs is standard tier, weight 1.
	r2, err := Parse(src + "\napp x plain\n")
	if err != nil {
		t.Fatal(err)
	}
	if c := r2.ClassFor("x"); c.Tier != TierStandard || c.EffectiveWeight() != 1 {
		t.Fatalf("plain class wrong: %+v", c)
	}
}

func TestParseSemicolonsAndOverrides(t *testing.T) {
	base := "class gold tier=guaranteed rate=64MiB; app a gold"
	override := "class gold tier=guaranteed rate=8MiB weight=2"
	r, err := Parse(base, override)
	if err != nil {
		t.Fatal(err)
	}
	c := r.ClassFor("a")
	if c == nil || c.Rate != 8*units.MiB || c.Weight != 2 {
		t.Fatalf("override did not win: %+v", c)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"class", "needs a name"},
		{"class g tier=golden", "unknown tier"},
		{"class g rate=-1MiB", "is negative"},
		{"class g slo=banana", "slo"},
		{"class g weight=-2", "not be negative"},
		{"class g burst=4KiB", "burst without rate"},
		{"class g bogus=1", "unknown key"},
		{"class g rate", "key=value"},
		{"app a", "app <id> <class>"},
		{"app a ghost", "undefined class"},
		{"frob x y", "unknown statement"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Fatalf("Parse(%q) accepted, want error containing %q", c.src, c.want)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Parse(%q) error %q, want substring %q", c.src, err, c.want)
		}
	}
}

func TestParseFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qos.conf")
	if err := os.WriteFile(path, []byte("class g tier=guaranteed\napp a g\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := ParseFile(path, "class s tier=scavenger; app b s")
	if err != nil {
		t.Fatal(err)
	}
	if r.ClassFor("a").Tier != TierGuaranteed || r.ClassFor("b").Tier != TierScavenger {
		t.Fatalf("file+override parse wrong: %s", r)
	}
	if _, err := ParseFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRegistryString(t *testing.T) {
	r, err := Parse("class g tier=guaranteed rate=1MiB slo=100ms weight=2\nclass s tier=scavenger\napp a g\napp b s")
	if err != nil {
		t.Fatal(err)
	}
	// Round trip: String output re-parses to an equivalent registry.
	r2, err := Parse(r.String())
	if err != nil {
		t.Fatalf("String output did not re-parse: %v\n%s", err, r.String())
	}
	if r2.String() != r.String() {
		t.Fatalf("round trip diverged:\n%s\nvs\n%s", r.String(), r2.String())
	}
	var nilReg *Registry
	if !nilReg.Empty() || nilReg.String() != "" {
		t.Fatal("nil registry should be empty")
	}
}

func TestWirePriority(t *testing.T) {
	if got := (&Class{Tier: TierGuaranteed}).WirePriority(); got != PriorityGuaranteed {
		t.Fatalf("guaranteed wire priority = %d", got)
	}
	if got := (&Class{Tier: TierScavenger}).WirePriority(); got != PriorityScavenger {
		t.Fatalf("scavenger wire priority = %d", got)
	}
	if got := (&Class{}).WirePriority(); got != PriorityStandard {
		t.Fatalf("standard wire priority = %d", got)
	}
	var nilClass *Class
	if got := nilClass.WirePriority(); got != 0 {
		t.Fatalf("nil class wire priority = %d, want 0 (no byte on the wire)", got)
	}
	if nilClass.EffectiveWeight() != 1 {
		t.Fatal("nil class weight should be 1")
	}
}

// fakeClock steps a bucket's clock deterministically.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func testBucket(rate, burst int64, g *telemetry.Gauge) (*Bucket, *fakeClock) {
	b := NewBucket(rate, burst, g)
	fc := &fakeClock{t: time.Unix(1000, 0)}
	b.now = fc.now
	return b, fc
}

func TestBucketTryTake(t *testing.T) {
	reg := telemetry.New()
	g := reg.Gauge(`qos_tokens_x1000{app="t"}`)
	b, fc := testBucket(1000, 4000, g) // 1000 B/s, 4000 B burst
	if !b.TryTake(4000) {
		t.Fatal("full bucket refused its burst")
	}
	if b.TryTake(1) {
		t.Fatal("empty bucket admitted")
	}
	fc.advance(2 * time.Second) // +2000 tokens
	if !b.TryTake(2000) {
		t.Fatal("refilled bucket refused")
	}
	if b.TryTake(1) {
		t.Fatal("drained bucket admitted")
	}
	fc.advance(time.Hour) // refill clamps at burst
	if got := b.Tokens(); got != 4000 {
		t.Fatalf("tokens after long idle = %g, want burst 4000", got)
	}
	if g.Value() != 4000*1000 {
		t.Fatalf("gauge = %d, want %d", g.Value(), 4000*1000)
	}
}

func TestBucketReserve(t *testing.T) {
	b, fc := testBucket(1000, 1000, nil)
	if d := b.Reserve(500); d != 0 {
		t.Fatalf("in-budget reserve paced %v", d)
	}
	// Take 1500 more: bucket goes to -1000, pacing = 1000/1000 B/s = 1s.
	if d := b.Reserve(1500); d != time.Second {
		t.Fatalf("over-budget reserve paced %v, want 1s", d)
	}
	fc.advance(time.Second) // debt repaid
	if d := b.Reserve(1); d <= 0 {
		// After exactly repaying the debt the bucket is at 0; one more byte
		// must pace ~1ms.
		t.Fatalf("reserve after repay paced %v, want >0", d)
	}
}

func TestBucketNilAndUnlimited(t *testing.T) {
	var b *Bucket
	if !b.TryTake(1<<40) || b.Reserve(1<<40) != 0 || b.Tokens() != 0 {
		t.Fatal("nil bucket must admit everything")
	}
	if NewBucket(0, 0, nil) != nil {
		t.Fatal("rate 0 must mean no bucket")
	}
	// burst defaults to one second of rate.
	nb := NewBucket(500, 0, nil)
	if nb.Tokens() != 500 {
		t.Fatalf("default burst = %g, want rate 500", nb.Tokens())
	}
}

func TestClassValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.AddClass(Class{}); err == nil {
		t.Fatal("empty class name accepted")
	}
	if err := r.AddClass(Class{Name: "g", Rate: -1}); err == nil {
		t.Fatal("negative rate accepted")
	}
	if err := r.AddClass(Class{Name: "g", SLO: -time.Second}); err == nil {
		t.Fatal("negative slo accepted")
	}
	if err := r.AssignApp("", "g"); err == nil {
		t.Fatal("empty app id accepted")
	}
	if err := r.AssignApp("a", ""); err == nil {
		t.Fatal("empty class name in assignment accepted")
	}
}
