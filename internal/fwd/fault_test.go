package fwd

import (
	"errors"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/agios"
	"repro/internal/apps"
	"repro/internal/ion"
	"repro/internal/pfs"
)

// failingFS fails every n-th Write, WriteAs, Install, Read or ReadLease
// with errInjected. Install and ReadLease must be its own: the ones
// promoted from the store would let the daemon's staged writes and its
// reads bypass the injector.
type failingFS struct {
	*pfs.Store
	n   int64
	ops atomic.Int64
}

var errInjected = errors.New("injected fault")

func (f *failingFS) do(op func() (int, error)) (int, error) {
	if f.ops.Add(1)%f.n == 0 {
		return 0, errInjected
	}
	return op()
}
func (f *failingFS) Write(path string, off int64, p []byte) (int, error) {
	return f.do(func() (int, error) { return f.Store.Write(path, off, p) })
}
func (f *failingFS) WriteAs(w, path string, off int64, p []byte) (int, error) {
	return f.do(func() (int, error) { return f.Store.WriteAs(w, path, off, p) })
}
func (f *failingFS) Install(w string, st *pfs.Stage) (int, error) {
	return f.do(func() (int, error) { return f.Store.Install(w, st) })
}
func (f *failingFS) Read(path string, off int64, p []byte) (int, error) {
	return f.do(func() (int, error) { return f.Store.Read(path, off, p) })
}
func (f *failingFS) ReadLease(path string, off int64, n int) (*pfs.Lease, error) {
	if f.ops.Add(1)%f.n == 0 {
		return nil, errInjected
	}
	return f.Store.ReadLease(path, off, n)
}

// TestBackendFaultsSurfaceThroughStack injects failures at the PFS behind
// the I/O-node daemons and checks the forwarding client surfaces them
// instead of reporting phantom success.
func TestBackendFaultsSurfaceThroughStack(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	faulty := &failingFS{Store: store, n: 3}
	d := ion.New(ion.Config{ID: "flaky", Scheduler: agios.NewFIFO()}, faulty)
	addr, err := d.Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	c, err := NewClient(Config{AppID: "app", Direct: store, ChunkSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetIONs([]string{addr})

	failures := 0
	for i := 0; i < 30; i++ {
		if _, err := c.Write("/f", int64(i)*256, make([]byte, 256)); err != nil {
			failures++
			if !strings.Contains(err.Error(), "injected fault") {
				t.Fatalf("unexpected error text: %v", err)
			}
		}
	}
	if failures == 0 {
		t.Fatal("injected faults never reached the client")
	}
	if faulty.ops.Load() < faulty.n {
		t.Fatal("injector never fired")
	}
}

// TestDirectFaultsSurface checks the direct (0-ION) path too.
func TestDirectFaultsSurface(t *testing.T) {
	faulty := &failingFS{Store: pfs.NewStore(pfs.Config{}), n: 2}
	c, err := NewClient(Config{AppID: "app", Direct: faulty})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write("/f", 0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read("/f", 0, make([]byte, 2)); !errors.Is(err, errInjected) {
		t.Fatalf("want injected error on direct read, got %v", err)
	}
}

// TestPartialWriteFailureLeavesConsistentPrefix: when one chunk of a
// multi-chunk write fails, the chunks already written are durable and the
// client reports the failure (no silent data loss, no phantom bytes).
func TestPartialWriteFailureLeavesConsistentPrefix(t *testing.T) {
	store := pfs.NewStore(pfs.Config{})
	// Fail the 3rd write that reaches the backend.
	faulty := &failingFS{Store: store, n: 3}
	d := ion.New(ion.Config{ID: "flaky", Scheduler: agios.NewFIFO(), Dispatchers: 1}, faulty)
	addr, err := d.Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// CoalesceLimit == ChunkSize: each chunk stays its own dispatched
	// write, so the 3rd-write fault lands mid-operation as intended.
	c, err := NewClient(Config{AppID: "app", Direct: store, ChunkSize: 128, CoalesceLimit: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetIONs([]string{addr})

	// 5 chunks; the 3rd dispatched write fails.
	n, err := c.Write("/p", 0, make([]byte, 5*128))
	if err == nil {
		t.Fatal("expected a chunk failure")
	}
	if n >= 5*128 {
		t.Fatalf("write reported %d bytes despite failure", n)
	}
	// Whatever was reported written is really there.
	info, statErr := store.Stat("/p")
	if statErr != nil {
		t.Fatal(statErr)
	}
	if info.Size < int64(n) {
		t.Fatalf("client claims %d bytes, backend has %d", n, info.Size)
	}
}

// TestKernelsSurfaceBackendFaults: every application kernel must propagate
// (not swallow) backend failures, both when it runs on the failing backend
// directly and when it runs through a forwarding client over a failing ION.
func TestKernelsSurfaceBackendFaults(t *testing.T) {
	kernels := apps.TinyRegistry()
	labels := make([]string, 0, len(kernels))
	for label := range kernels {
		labels = append(labels, label)
	}
	sort.Strings(labels)

	t.Run("direct", func(t *testing.T) {
		for _, label := range labels {
			t.Run(label, func(t *testing.T) {
				faulty := &failingFS{Store: pfs.NewStore(pfs.Config{}), n: 5}
				if _, err := kernels[label].Run(faulty, "/f"); !errors.Is(err, errInjected) {
					t.Errorf("swallowed injected backend faults: %v", err)
				}
			})
		}
	})
	t.Run("forwarded", func(t *testing.T) {
		for _, label := range labels {
			t.Run(label, func(t *testing.T) {
				store := pfs.NewStore(pfs.Config{})
				faulty := &failingFS{Store: store, n: 5}
				d := ion.New(ion.Config{ID: "flaky", Scheduler: agios.NewFIFO()}, faulty)
				addr, err := d.Start("")
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				c, err := NewClient(Config{AppID: label, Direct: store})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				c.SetIONs([]string{addr})

				_, err = kernels[label].Run(c, "/f")
				if err == nil || !strings.Contains(err.Error(), errInjected.Error()) {
					t.Errorf("swallowed injected backend faults: %v", err)
				}
			})
		}
	})
}
