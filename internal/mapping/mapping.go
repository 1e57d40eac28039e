// Package mapping distributes I/O-node allocation decisions from the policy
// solver to the forwarding clients. The solver publishes a versioned map of
// application → I/O-node addresses on a Bus, and clients follow it.
// WriteFile also writes one decision as the JSON mapping file GekkoFWD's
// solver hands its clients (GekkoFWD clients re-read it every 10 seconds;
// jobs.SimConfig.RemapDelay models that delay). An application mapped to an
// empty address list accesses the PFS directly.
package mapping

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
)

// Map is one allocation decision: which I/O nodes every application must
// use. Version increases with every publication and doubles as the map's
// epoch: forwarding clients stamp writes with it so I/O nodes can fence
// traffic routed by a mapping that predates a control-plane recovery.
type Map struct {
	Version uint64 `json:"version"`
	// Fence is the revocation floor: every epoch strictly below it has
	// been revoked by a recovery publish, and I/O nodes reject writes
	// stamped with one. Zero (the wire and file default) fences nothing.
	Fence uint64 `json:"fence,omitempty"`
	// IONs maps application IDs to the addresses of their assigned I/O
	// nodes. An empty (or absent) list means direct PFS access.
	IONs map[string][]string `json:"ions"`
}

// Clone deep-copies the map.
func (m Map) Clone() Map {
	out := Map{Version: m.Version, Fence: m.Fence, IONs: make(map[string][]string, len(m.IONs))}
	for app, addrs := range m.IONs {
		out.IONs[app] = append([]string(nil), addrs...)
	}
	return out
}

// For returns the addresses assigned to app (nil means direct access).
func (m Map) For(app string) []string { return m.IONs[app] }

// Apps returns the mapped application IDs in lexical order.
func (m Map) Apps() []string {
	out := make([]string, 0, len(m.IONs))
	for app := range m.IONs {
		out = append(out, app)
	}
	sort.Strings(out)
	return out
}

// Bus is an in-process mapping distributor: the arbiter publishes, clients
// follow. Publish calls every follower, in registration order, before it
// returns; a follower sees every publication made after it registered. A
// published Map is one read-only snapshot that every follower and
// Publish's caller share; only Current hands out a private copy. Followers
// run under the bus's lock, so one must not call back into the Bus.
type Bus struct {
	mu        sync.Mutex
	current   Map
	fence     uint64
	followers []*func(Map)
}

// NewBus returns a bus with an empty version-0 map.
func NewBus() *Bus {
	return &Bus{current: Map{IONs: map[string][]string{}}}
}

// Current returns the latest published map.
func (b *Bus) Current() Map {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.current.Clone()
}

// Publish installs entries as the new map, bumping the version, and calls
// every follower with it. The entries are copied once, into one map over
// one address backing; the result is the shared read-only snapshot every
// follower receives.
func (b *Bus) Publish(ions map[string][]string) Map {
	n := 0
	for _, addrs := range ions {
		n += len(addrs)
	}
	flat := make([]string, 0, n)
	next := Map{IONs: make(map[string][]string, len(ions))}
	for app, addrs := range ions {
		if len(addrs) == 0 {
			next.IONs[app] = nil
			continue
		}
		flat = append(flat, addrs...)
		next.IONs[app] = flat[len(flat)-len(addrs) : len(flat) : len(flat)]
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	next.Version, next.Fence = b.current.Version+1, b.fence
	b.current = next
	for _, f := range b.followers {
		(*f)(next)
	}
	return next
}

// Version returns the version the latest published map carries (the
// current epoch).
func (b *Bus) Version() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.current.Version
}

// Resume raises the bus's version floor to at least version without
// publishing. A recovered arbiter calls it with the last epoch its
// journal recorded so the next publication continues the pre-crash epoch
// sequence instead of reusing numbers clients may already hold.
func (b *Bus) Resume(version uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if version > b.current.Version {
		b.current.Version = version
	}
}

// Revoke raises the fence: every epoch strictly below fence is revoked,
// and every subsequent publication carries the new floor. Monotonic —
// a lower fence never lowers an established one.
func (b *Bus) Revoke(fence uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if fence > b.fence {
		b.fence = fence
	}
}

// Follow registers fn to be called with every map published after it
// returns, and returns the function that unregisters it; once that
// returns, fn is never called again.
func (b *Bus) Follow(fn func(Map)) (unfollow func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.followLocked(fn)
}

// followLocked is Follow with b.mu held.
func (b *Bus) followLocked(fn func(Map)) func() {
	f := &fn
	b.followers = append(b.followers, f)
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.followers = slices.DeleteFunc(b.followers, func(g *func(Map)) bool { return g == f })
	}
}

// Subscribe returns a channel carrying map updates (buffered with the
// current map already queued) and a cancel function that closes it. Its
// follower never blocks: on a full buffer it drops the oldest queued map,
// so a lagging subscriber always ends on the newest.
func (b *Bus) Subscribe() (<-chan Map, func()) {
	ch := make(chan Map, 4)
	b.mu.Lock()
	defer b.mu.Unlock()
	ch <- b.current
	unfollow := b.followLocked(func(m Map) {
		select {
		case ch <- m:
		default: // lagging: drop its oldest map, then there is room (b.mu holds off other senders)
			select {
			case <-ch:
			default:
			}
			ch <- m
		}
	})
	return ch, sync.OnceFunc(func() { unfollow(); close(ch) })
}

// --- File-based distribution ----------------------------------------------

// WriteFile atomically publishes m to path (write-temp + rename), the
// format GekkoFWD's solver uses to hand decisions to clients.
func WriteFile(path string, m Map) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("mapping: encode: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".mapping-*")
	if err != nil {
		return fmt.Errorf("mapping: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("mapping: write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("mapping: close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("mapping: rename: %w", err)
	}
	return nil
}
