// Package scenario is the kit behind the seeded acceptance suites (make
// chaos, storm, torture, qos, elastic, blackout, grayfail). Start wires
// instruments into every I/O node a stack starts — a faultnet injector on
// its listener, a Backend (settable write delay, per-byte apply counter)
// on its storage — and onto the direct PFS path. Open and Drive run N
// applications × W writers × S segments of the Pattern bytes; Check holds
// the run to one oracle set, and Start's cleanup adds the goroutine
// oracle. The seeded nemesis and the scenarios themselves are its tests.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/ion"
	"repro/internal/livestack"
	"repro/internal/pfs"
)

// SeedEnv names the environment variable that pins a scenario's seed.
const SeedEnv = "SCENARIO_SEED"

// Seed returns SCENARIO_SEED when set, else def, and makes a failing test
// print the command that replays it.
func Seed(t testing.TB, suite string, def int64) int64 {
	t.Helper()
	seed := def
	if s := os.Getenv(SeedEnv); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("%s=%q: %v", SeedEnv, s, err)
		}
		seed = v
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("replay with: %s=%d make %s", SeedEnv, seed, suite)
		}
	})
	return seed
}

// Pattern is the byte every scenario writes at file offset off.
func Pattern(off int64) byte { return byte(off % 251) }

// Fill fills p with the Pattern bytes from offset off on.
func Fill(off int64, p []byte) {
	for i := range p {
		p[i] = Pattern(off + int64(i))
	}
}

// verify reports the first byte of p, read at offset off, that is not the
// Pattern.
func verify(off int64, p []byte) error {
	for i, b := range p {
		if want := Pattern(off + int64(i)); b != want {
			return fmt.Errorf("byte %d corrupted: got %d want %d", off+int64(i), b, want)
		}
	}
	return nil
}

// Backend instruments an I/O node's storage, or the direct PFS path: each
// write first sleeps the set delay, and the bytes it covers are counted
// per file (saturating at 255) so an oracle can tell how often this node
// applied each byte. The wrapped store still does the work.
type Backend struct {
	ion.Backend
	delay atomic.Int64 // nanoseconds
	mu    sync.Mutex
	cover map[string][]uint8
}

// SetDelay sets the sleep every later write pays.
func (b *Backend) SetDelay(d time.Duration) { b.delay.Store(int64(d)) }

func (b *Backend) apply(path string, off int64, n int) {
	time.Sleep(time.Duration(b.delay.Load()))
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.cover[path]
	s = append(s, make([]uint8, max(0, int(off)+n-len(s)))...)
	for i := int(off); i < int(off)+n; i++ {
		s[i] = min(s[i], math.MaxUint8-1) + 1
	}
	b.cover[path] = s
}

func (b *Backend) Write(path string, off int64, p []byte) (int, error) {
	b.apply(path, off, len(p))
	return b.Backend.Write(path, off, p)
}

func (b *Backend) WriteAs(writer, path string, off int64, p []byte) (int, error) {
	b.apply(path, off, len(p))
	return b.Backend.WriteAs(writer, path, off, p)
}

// ReadLease forwards to the store underneath, so reads through an
// instrumented node leave from the store's blocks as they do on a bare
// stack: with the method hidden behind the embedded interface, the daemon
// would copy every read instead.
func (b *Backend) ReadLease(path string, off int64, n int) (*pfs.Lease, error) {
	return b.Backend.(*pfs.Store).ReadLease(path, off, n)
}

// Stage and Install forward to the store, the install through apply as
// WriteAs is: hidden, they would make the daemon copy every write, and the
// apply-count oracle would never see a staged one.
func (b *Backend) Stage(path string, off int64, n int) (*pfs.Stage, error) {
	return b.Backend.(*pfs.Store).Stage(path, off, n)
}

func (b *Backend) Install(writer string, st *pfs.Stage) (int, error) {
	b.apply(st.Path, st.Offset, st.Len())
	return b.Backend.(*pfs.Store).Install(writer, st)
}

// Applied returns the most times this node applied one byte of
// [off, off+n) of path.
func (b *Backend) Applied(path string, off int64, n int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, most := b.cover[path], 0
	for _, c := range s[min(int(off), len(s)):min(int(off)+n, len(s))] {
		most = max(most, int(c))
	}
	return most
}

// Rig is a running stack with the kit's instruments wired in.
type Rig struct {
	*livestack.Stack
	t        testing.TB
	dedup    bool // exactly-once writes: the apply-count oracle is live
	mu       sync.Mutex
	nets     map[string]*faultnet.Injector // by address
	stores   []*Backend                    // by daemon index
	direct   *Backend
	delay    time.Duration // for instruments made from now on
	recovery []error       // what the nemesis's recoveries published wrong
}

// Start wires the kit's instruments into cfg's WrapBackend, WrapListener
// and WrapDirect hooks (replacing any set there) and starts the stack. Its
// cleanups close the stack, then run the lease oracle — the store lends no
// block and holds no stage any more — and the goroutine oracle: the
// process must come back to the goroutines it ran before Start.
func Start(t testing.TB, cfg livestack.Config) *Rig {
	t.Helper()
	r := &Rig{t: t, dedup: cfg.DedupWindow > 0, nets: map[string]*faultnet.Injector{}}
	instrument := func(b ion.Backend) *Backend { // caller holds r.mu
		s := &Backend{Backend: b, cover: map[string][]uint8{}}
		s.SetDelay(r.delay)
		return s
	}
	cfg.WrapBackend = func(i int, b ion.Backend) ion.Backend {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.stores = append(r.stores, make([]*Backend, max(0, i+1-len(r.stores)))...)
		r.stores[i] = instrument(b)
		return r.stores[i]
	}
	cfg.WrapListener = func(i int, ln net.Listener) net.Listener {
		r.mu.Lock()
		defer r.mu.Unlock()
		inj := faultnet.NewInjector(faultnet.Plan{})
		r.nets[ln.Addr().String()] = inj // a warm restart re-wraps: the new one is live
		return faultnet.WrapListener(ln, inj)
	}
	cfg.WrapDirect = func(fs pfs.FileSystem) pfs.FileSystem {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.direct == nil {
			r.direct = instrument(fs.(ion.Backend))
		}
		return r.direct
	}
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		// Every read reply released its lease, even one a reset, an
		// Interrupt or a daemon Close cut off mid-write, and every staged
		// write its stage, installed or fenced, replayed, shed or cut off.
		if r.Stack != nil && r.Store.Leases() != 0 {
			t.Errorf("lease oracle: %d read leases or write stages still held after Close", r.Store.Leases())
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("goroutine oracle: %d goroutines after Close, %d before Start:\n%s",
					runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				return
			}
		}
	})
	st, err := livestack.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Stack = st
	t.Cleanup(st.Close)
	return r
}

// Verdict is one oracle's finding; a nil Err means it held.
type Verdict struct {
	Oracle string
	Err    error
}

// Audit runs the oracle set over apps once their writers are done, with
// the control plane stopped so it reads a capacity plane at rest:
//
//   - conservation: each app's region reads back as the Pattern through
//     its client and straight from the PFS, both Stat its size, and
//     fwd_bytes_out_total counts exactly the bytes its Write calls sent;
//   - apply count (with a dedup window): no I/O node applied a byte of a
//     segment more often than the app wrote it — a transport retry must
//     replay from the window, not re-apply;
//   - no-shrink: what every recovery the nemesis ran published;
//   - drain ledger: every drain the arbiter started was aborted, completed
//     by removing its node, or is still in flight.
func (r *Rig) Audit(apps ...*App) []Verdict {
	r.StopControlPlane()
	r.mu.Lock()
	stores, recovery := slices.Clone(r.stores), errors.Join(r.recovery...)
	r.mu.Unlock()
	var lost, twice []error
	for _, a := range apps {
		a.mu.Lock()
		attempts := slices.Clone(a.attempts)
		a.mu.Unlock()
		sent, end := 0, 0 // bytes the Write calls sent; end of the region written
		for seg, n := range attempts {
			sent += n * a.Size
			if n > 0 {
				end = (seg + 1) * a.Size
			}
			for i, s := range stores {
				if r.dedup && s != nil && s.Applied(a.Path(), int64(seg*a.Size), a.Size) > n {
					twice = append(twice, fmt.Errorf("ion%02d applied bytes of %s segment %d more often than its %d write(s)", i, a.Path(), seg, n))
				}
			}
		}
		got := make([]byte, end)
		for _, fs := range []pfs.FileSystem{a.Clients[0], r.Store} {
			clear(got)
			if n, err := fs.Read(a.Path(), 0, got); err != nil || n != end {
				lost = append(lost, fmt.Errorf("%s: read %d of %d bytes: %v", a.Path(), n, end, err))
			} else if err := verify(0, got); err != nil {
				lost = append(lost, fmt.Errorf("%s: %w", a.Path(), err))
			}
			if fi, err := fs.Stat(a.Path()); err != nil || fi.Size != int64(end) {
				lost = append(lost, fmt.Errorf("%s: Stat size %d (%v), want %d", a.Path(), fi.Size, err, end))
			}
		}
		if out := r.Telemetry.Counter(fmt.Sprintf("fwd_bytes_out_total{app=%q}", a.ID)).Value(); out != int64(sent) {
			lost = append(lost, fmt.Errorf("fwd_bytes_out_total{app=%q} = %d, the writes sent %d", a.ID, out, sent))
		}
	}
	var ledger error
	reg := r.Telemetry
	started := reg.Counter("arbiter_drains_started_total").Value()
	// A provision rolled back leaves the pool by RemoveION without a drain.
	ended := reg.Counter("arbiter_drains_aborted_total").Value() + reg.Counter("arbiter_ions_removed_total").Value() -
		reg.Snapshot().Counters["elastic_provision_rollbacks_total"]
	if open := reg.Gauge("arbiter_ions_draining").Value(); started != ended+open {
		ledger = fmt.Errorf("%d drains started, %d ended, %d in flight", started, ended, open)
	}
	return []Verdict{
		{"conservation", errors.Join(lost...)},
		{"apply count", errors.Join(twice...)},
		{"no-shrink", recovery},
		{"drain ledger", ledger},
	}
}

// Check fails t on every oracle Audit finds broken.
func (r *Rig) Check(t testing.TB, apps ...*App) {
	t.Helper()
	for _, v := range r.Audit(apps...) {
		if v.Err != nil {
			t.Errorf("%s oracle: %v", v.Oracle, v.Err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}
