// Package qos is the single source of truth for multi-tenant policy in the
// forwarding stack: which service class an application belongs to, what
// that class guarantees (priority tier, SLO target latency), and what it is
// allowed to consume (token-bucket rate/burst, arbitration weight).
//
// The class model follows the software-defined QoS provisioning literature:
// a small number of named classes, each application mapped to exactly one.
// Three tiers order the classes:
//
//   - guaranteed: carries an SLO; its requests are scheduled ahead of
//     everything else (bounded inversion, see agios.WFQ) and its class
//     weight scales its MCKP utility so it wins contended ION allocations;
//   - standard: the default tier — unclassed traffic behaves exactly like
//     standard with weight 1, which is the pre-QoS behavior;
//   - scavenger: batch background traffic; when its token bucket is empty
//     it degrades to the direct-PFS path instead of queueing behind (or in
//     front of) anyone.
//
// Everything here is strictly opt-in: a nil *Registry or nil *Class means
// "no QoS", and every consumer (fwd admission, wire priority, weighted
// arbitration) must behave byte-for-byte like the pre-QoS stack then.
package qos

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// Tier orders service classes. The zero value is TierStandard so an
// unspecified tier means "like everyone was before QoS existed".
type Tier uint8

// Service tiers, lowest to highest entitlement.
const (
	TierStandard Tier = iota
	TierGuaranteed
	TierScavenger
)

func (t Tier) String() string {
	switch t {
	case TierGuaranteed:
		return "guaranteed"
	case TierScavenger:
		return "scavenger"
	default:
		return "standard"
	}
}

// ParseTier parses a tier name ("guaranteed", "standard", "scavenger").
func ParseTier(s string) (Tier, error) {
	switch strings.ToLower(s) {
	case "guaranteed":
		return TierGuaranteed, nil
	case "standard", "":
		return TierStandard, nil
	case "scavenger":
		return TierScavenger, nil
	default:
		return TierStandard, fmt.Errorf("qos: unknown tier %q (want guaranteed|standard|scavenger)", s)
	}
}

// Wire priorities carried in the rpc frame's priority byte. Zero means
// "unclassed" and is deliberately NOT a named constant: an unclassed
// request encodes no priority byte at all (wire compatibility), and
// schedulers treat it exactly like PriorityStandard.
const (
	PriorityScavenger  uint8 = 1
	PriorityStandard   uint8 = 2
	PriorityGuaranteed uint8 = 3
)

// WirePriority returns the priority byte requests of this tier carry.
func (t Tier) WirePriority() uint8 {
	switch t {
	case TierGuaranteed:
		return PriorityGuaranteed
	case TierScavenger:
		return PriorityScavenger
	default:
		return PriorityStandard
	}
}

// Class is one tenant policy: everything the stack needs to know to admit,
// schedule, and arbitrate an application's traffic.
type Class struct {
	// Name identifies the class in config and telemetry labels.
	Name string
	// Tier is the scheduling tier (wire priority, WFQ queue).
	Tier Tier
	// SLO is the class's target p99 operation latency. It is an
	// observability/acceptance target (asserted by the noisy-neighbor
	// scenario), not an enforcement input: admission and scheduling are
	// what make it hold.
	SLO time.Duration
	// Rate is the token-bucket refill rate in bytes per second admitted to
	// the forwarding path. 0 means unlimited (no bucket: the class is
	// priority/weight only).
	Rate int64
	// Burst is the bucket depth in bytes — the largest burst admitted at
	// full speed. 0 with a positive Rate selects one second's worth.
	Burst int64
	// Weight scales the application's MCKP utility during arbitration so
	// higher-weight tenants win contended ION allocations. ≤0 means 1
	// (the pre-QoS utility).
	Weight float64
}

// validate rejects classes that would misbehave silently.
func (c *Class) validate() error {
	if c.Name == "" {
		return fmt.Errorf("qos: class with empty name")
	}
	if c.Rate < 0 {
		return fmt.Errorf("qos: class %s: rate must not be negative, got %d", c.Name, c.Rate)
	}
	if c.Burst < 0 {
		return fmt.Errorf("qos: class %s: burst must not be negative, got %d", c.Name, c.Burst)
	}
	if c.Burst > 0 && c.Rate == 0 {
		return fmt.Errorf("qos: class %s: burst without rate never refills", c.Name)
	}
	if c.SLO < 0 {
		return fmt.Errorf("qos: class %s: slo must not be negative, got %v", c.Name, c.SLO)
	}
	if c.Weight < 0 {
		return fmt.Errorf("qos: class %s: weight must not be negative, got %g", c.Name, c.Weight)
	}
	return nil
}

// EffectiveWeight is the MCKP utility multiplier (1 for the zero value and
// for a nil class, so unclassed apps arbitrate exactly as before).
func (c *Class) EffectiveWeight() float64 {
	if c == nil || c.Weight <= 0 {
		return 1
	}
	return c.Weight
}

// WirePriority is the priority byte requests of this class carry (0 for a
// nil class: no byte on the wire at all).
func (c *Class) WirePriority() uint8 {
	if c == nil {
		return 0
	}
	return c.Tier.WirePriority()
}

// --- Token bucket ---------------------------------------------------------

// Bucket is a token bucket in byte units. The fast path (tokens available)
// is one mutex acquisition and no allocation; see fwd's admission point.
type Bucket struct {
	mu     sync.Mutex
	rate   float64 // bytes per second
	burst  float64
	tokens float64
	last   time.Time
	gauge  *telemetry.Gauge // qos_tokens_x1000, nil-safe
	now    func() time.Time // test clock
}

// NewBucket returns a full bucket refilling at rate bytes/second up to
// burst bytes (burst ≤ 0 selects one second's worth). gauge, when non-nil,
// tracks the level as floor(tokens×1000). A rate ≤ 0 returns nil: no
// admission control.
func NewBucket(rate, burst int64, gauge *telemetry.Gauge) *Bucket {
	if rate <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = rate
	}
	b := &Bucket{rate: float64(rate), burst: float64(burst), tokens: float64(burst), gauge: gauge, now: time.Now}
	b.gauge.Set(int64(b.tokens * 1000))
	return b
}

// refillLocked credits tokens for the time since the last refill.
func (b *Bucket) refillLocked(now time.Time) {
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// TryTake takes n tokens if the bucket holds at least n, reporting whether
// it did. The bucket is untouched on refusal — this is the scavenger
// admission: no debt, no pacing, the caller degrades instead. A nil bucket
// always admits.
func (b *Bucket) TryTake(n int64) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	b.refillLocked(b.now())
	ok := b.tokens >= float64(n)
	if ok {
		b.tokens -= float64(n)
	}
	b.gauge.Set(int64(b.tokens * 1000))
	b.mu.Unlock()
	return ok
}

// Reserve takes n tokens unconditionally — the bucket may go negative —
// and returns how long the caller must pace before proceeding so the debt
// is repaid at the refill rate. Zero means tokens were available (the
// allocation-free fast path). This is the guaranteed/standard admission:
// the op is never refused, only deferred. A nil bucket never defers.
func (b *Bucket) Reserve(n int64) time.Duration {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	b.refillLocked(b.now())
	b.tokens -= float64(n)
	deficit := -b.tokens
	b.gauge.Set(int64(b.tokens * 1000))
	b.mu.Unlock()
	if deficit <= 0 {
		return 0
	}
	return time.Duration(deficit / b.rate * float64(time.Second))
}

// Tokens reports the current level after a refill (for tests and debug).
func (b *Bucket) Tokens() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(b.now())
	b.gauge.Set(int64(b.tokens * 1000))
	return b.tokens
}

// --- Registry -------------------------------------------------------------

// Registry maps application IDs to classes. A nil *Registry means "no QoS
// configured" and every lookup returns the unclassed defaults.
type Registry struct {
	classes map[string]*Class
	apps    map[string]string // appID → class name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{classes: map[string]*Class{}, apps: map[string]string{}}
}

// Empty reports whether the registry classifies nothing (nil counts).
func (r *Registry) Empty() bool {
	return r == nil || (len(r.classes) == 0 && len(r.apps) == 0)
}

// AddClass registers (or redefines — last wins, for override layering) a
// class after validating it.
func (r *Registry) AddClass(c Class) error {
	if err := c.validate(); err != nil {
		return err
	}
	cc := c
	r.classes[c.Name] = &cc
	return nil
}

// AssignApp maps an application ID to a class name. The class may be
// defined later (override layering); Finish checks the reference.
func (r *Registry) AssignApp(appID, className string) error {
	if appID == "" {
		return fmt.Errorf("qos: app assignment with empty app id")
	}
	if className == "" {
		return fmt.Errorf("qos: app %s assigned to empty class name", appID)
	}
	r.apps[appID] = className
	return nil
}

// Finish validates cross-references: every app must name a defined class.
func (r *Registry) Finish() error {
	for app, cls := range r.apps {
		if _, ok := r.classes[cls]; !ok {
			return fmt.Errorf("qos: app %s references undefined class %q", app, cls)
		}
	}
	return nil
}

// ClassFor returns the class the application is assigned to, or nil when
// the application (or the registry) is unclassed.
func (r *Registry) ClassFor(appID string) *Class {
	if r == nil {
		return nil
	}
	name, ok := r.apps[appID]
	if !ok {
		return nil
	}
	return r.classes[name]
}

// Weight returns the application's MCKP utility multiplier (1 when
// unclassed), the hook the arbiter installs via WithWeights.
func (r *Registry) Weight(appID string) float64 {
	return r.ClassFor(appID).EffectiveWeight()
}

// String renders the registry in its own config syntax, deterministically.
func (r *Registry) String() string {
	if r.Empty() {
		return ""
	}
	var sb strings.Builder
	for _, name := range sortedKeys(r.classes) {
		c := r.classes[name]
		fmt.Fprintf(&sb, "class %s tier=%s", c.Name, c.Tier)
		if c.Rate > 0 {
			fmt.Fprintf(&sb, " rate=%d burst=%d", c.Rate, c.Burst)
		}
		if c.SLO > 0 {
			fmt.Fprintf(&sb, " slo=%v", c.SLO)
		}
		if c.Weight > 0 {
			fmt.Fprintf(&sb, " weight=%g", c.Weight)
		}
		sb.WriteByte('\n')
	}
	for _, app := range sortedKeys(r.apps) {
		fmt.Fprintf(&sb, "app %s %s\n", app, r.apps[app])
	}
	return sb.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- Config parsing -------------------------------------------------------

// Parse builds a registry from one or more config sources, applied in
// order (later sources override earlier definitions — this is how gkfwd
// layers -qos flag overrides on top of the -qos-config file). The syntax
// is line-oriented; ';' separates statements within one line so a whole
// config fits in a single flag value:
//
//	# tenant policy
//	class gold tier=guaranteed rate=64MiB burst=8MiB slo=250ms weight=4
//	class scav tier=scavenger rate=2MiB burst=256KiB weight=0.25
//	app ior-1 gold
//	app bg-scan scav
//
// Rates are bytes per second and accept binary (KiB/MiB/GiB) and decimal
// (KB/MB/GB) suffixes or bare byte counts.
func Parse(sources ...string) (*Registry, error) {
	r := NewRegistry()
	for _, src := range sources {
		sc := bufio.NewScanner(strings.NewReader(src))
		lineNo := 0
		for sc.Scan() {
			lineNo++
			for _, stmt := range strings.Split(sc.Text(), ";") {
				if err := r.parseStatement(stmt); err != nil {
					return nil, fmt.Errorf("%w (line %d: %q)", err, lineNo, strings.TrimSpace(stmt))
				}
			}
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("qos: reading config: %w", err)
		}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return r, nil
}

// ParseFile reads path and parses it together with any override sources.
func ParseFile(path string, overrides ...string) (*Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("qos: %w", err)
	}
	return Parse(append([]string{string(data)}, overrides...)...)
}

// parseStatement applies one "class …" or "app …" statement.
func (r *Registry) parseStatement(stmt string) error {
	stmt = strings.TrimSpace(stmt)
	if stmt == "" || strings.HasPrefix(stmt, "#") {
		return nil
	}
	fields := strings.Fields(stmt)
	switch fields[0] {
	case "class":
		if len(fields) < 2 {
			return fmt.Errorf("qos: class statement needs a name")
		}
		c := Class{Name: fields[1]}
		for _, kv := range fields[2:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("qos: class %s: expected key=value, got %q", c.Name, kv)
			}
			var err error
			switch key {
			case "tier":
				c.Tier, err = ParseTier(val)
			case "rate":
				c.Rate, err = units.ParseBytes(val)
			case "burst":
				c.Burst, err = units.ParseBytes(val)
			case "slo":
				c.SLO, err = time.ParseDuration(val)
			case "weight":
				c.Weight, err = strconv.ParseFloat(val, 64)
			default:
				err = fmt.Errorf("qos: class %s: unknown key %q", c.Name, key)
			}
			if err != nil {
				return fmt.Errorf("qos: class %s: %s: %w", c.Name, key, unprefix(err))
			}
		}
		return r.AddClass(c)
	case "app":
		if len(fields) != 3 {
			return fmt.Errorf("qos: app statement is `app <id> <class>`, got %q", stmt)
		}
		return r.AssignApp(fields[1], fields[2])
	default:
		return fmt.Errorf("qos: unknown statement %q (want class|app)", fields[0])
	}
}

// unprefix strips a nested "qos: " prefix so wrapped errors read once.
func unprefix(err error) error {
	if err == nil {
		return nil
	}
	if s, ok := strings.CutPrefix(err.Error(), "qos: "); ok {
		return fmt.Errorf("%s", s)
	}
	return err
}
