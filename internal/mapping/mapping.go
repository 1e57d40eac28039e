// Package mapping distributes I/O-node allocation decisions from the policy
// solver to the forwarding clients. The solver publishes a versioned map of
// application → I/O-node addresses on a Bus, and clients subscribe to it.
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
// subscribe. Subscribers receive the current map immediately and every
// subsequent publication. A published Map is one read-only snapshot that
// every subscriber and Publish's caller share; only Current hands out a
// private copy. A slow subscriber is never blocked on: when its buffer is
// full its oldest queued map is dropped, so it always ends on the newest.
type Bus struct {
	mu      sync.Mutex
	current Map
	fence   uint64
	subs    map[int]chan Map
	nextID  int
}

// NewBus returns a bus with an empty version-0 map.
func NewBus() *Bus {
	return &Bus{current: Map{IONs: map[string][]string{}}, subs: make(map[int]chan Map)}
}

// Current returns the latest published map.
func (b *Bus) Current() Map {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.current.Clone()
}

// Publish installs entries as the new map, bumping the version, and
// notifies subscribers. The entries are copied once, into one map over one
// address backing; the result is the shared read-only snapshot every
// subscriber receives.
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
	for _, ch := range b.subs {
		select {
		case ch <- next:
		default: // lagging: drop its oldest map, then there is room (b.mu holds off other senders)
			select {
			case <-ch:
			default:
			}
			ch <- next
		}
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

// Subscribe returns a channel carrying map updates (buffered with the
// current map already queued) and a cancel function.
func (b *Bus) Subscribe() (<-chan Map, func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.nextID
	b.nextID++
	ch := make(chan Map, 4)
	ch <- b.current
	b.subs[id] = ch
	cancel := func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if sub, ok := b.subs[id]; ok {
			delete(b.subs, id)
			close(sub)
		}
	}
	return ch, cancel
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
