package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/testkit"
)

// leased returns the bytes l holds, concatenated.
func leased(l *Lease) []byte {
	var out []byte
	for _, seg := range l.Segs {
		out = append(out, seg...)
	}
	return out
}

// TestLeaseKeepsOldBytesAcrossOverwrites: a whole-block and a partial
// overwrite of leased blocks leave the lease's bytes alone, while the
// store serves the new ones and the partial write's fresh block keeps the
// rest of the old one.
func TestLeaseKeepsOldBytesAcrossOverwrites(t *testing.T) {
	s := newTestStore()
	old := bytes.Repeat([]byte{'a'}, 2*blockSize)
	if _, err := s.Write("/f", 0, old); err != nil {
		t.Fatal(err)
	}
	l, err := s.ReadLease("/f", 0, 2*blockSize)
	if err != nil || len(l.Segs) != 2 {
		t.Fatalf("lease: %v, %d segments, want 2", err, len(l.Segs))
	}
	whole := bytes.Repeat([]byte{'b'}, blockSize)
	if _, err := s.Write("/f", 0, whole); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write("/f", blockSize+100, []byte("ccccc")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(leased(l), old) {
		t.Fatal("an overwrite changed bytes a lease still holds")
	}
	want := append(bytes.Clone(whole), old[blockSize:]...)
	copy(want[blockSize+100:], "ccccc")
	got := make([]byte, 2*blockSize)
	if _, err := s.Read("/f", 0, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the store does not serve the overwrites (err %v)", err)
	}
	if s.Leases() != 1 {
		t.Fatalf("%d leases outstanding, want 1", s.Leases())
	}
	l.Release()
	if s.Leases() != 0 {
		t.Fatalf("%d leases outstanding after Release, want 0", s.Leases())
	}
}

// TestLeaseHolesReadAsZeros: a hole, and the unwritten tail of a block,
// lend zeros.
func TestLeaseHolesReadAsZeros(t *testing.T) {
	s := newTestStore()
	if _, err := s.Write("/h", 3*blockSize+10, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	n := 3*blockSize - blockSize/2 + 13 // to the end of the file
	l, err := s.ReadLease("/h", blockSize/2, n)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	want := make([]byte, n)
	copy(want[n-3:], "xyz")
	if !bytes.Equal(leased(l), want) {
		t.Fatal("a hole was not lent as zeros")
	}
}

// TestLeaseShortAtEOF: a lease that reaches the end of the file holds what
// there was and reports ErrShortRead; one past the end holds nothing; a
// missing file or a negative offset gives no lease at all.
func TestLeaseShortAtEOF(t *testing.T) {
	s := newTestStore()
	if _, err := s.Write("/e", 0, bytes.Repeat([]byte{7}, 1000)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		off  int64
		n    int
		want int
	}{{500, 1000, 500}, {1000, 10, 0}, {5000, 10, 0}} {
		l, err := s.ReadLease("/e", c.off, c.n)
		if !errors.Is(err, ErrShortRead) || l == nil || len(leased(l)) != c.want {
			t.Fatalf("lease of %d at %d: err %v, want %d bytes and ErrShortRead", c.n, c.off, err, c.want)
		}
		if !bytes.Equal(leased(l), bytes.Repeat([]byte{7}, c.want)) {
			t.Fatalf("lease of %d at %d holds the wrong bytes", c.n, c.off)
		}
		l.Release()
	}
	if l, err := s.ReadLease("/missing", 0, 10); l != nil || !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing file: lease %v, err %v", l, err)
	}
	if l, err := s.ReadLease("/e", -1, 10); l != nil || err == nil {
		t.Fatalf("negative offset: lease %v, err %v", l, err)
	}
	if s.Leases() != 0 {
		t.Fatalf("%d leases outstanding, want 0", s.Leases())
	}
}

// TestLeaseDiscardMode: accounting mode stores no payload, so every lease
// is zeros of the length read, and is counted like any read.
func TestLeaseDiscardMode(t *testing.T) {
	s := NewStore(Config{Discard: true})
	if _, err := s.Write("/d", 0, bytes.Repeat([]byte{9}, 2*blockSize)); err != nil {
		t.Fatal(err)
	}
	l, err := s.ReadLease("/d", 100, blockSize)
	if err != nil || !bytes.Equal(leased(l), make([]byte, blockSize)) {
		t.Fatalf("discard-mode lease: err %v, want %d zeros", err, blockSize)
	}
	l.Release()
	if m := s.Metrics(); m.BytesRead != blockSize || m.ReadOps != 1 {
		t.Fatalf("discard-mode lease metrics: %+v", m)
	}
}

// TestConcurrentLeasesAndWriters: writers rewrite regions that straddle
// block boundaries of one shared file, generation by generation, while
// lessees hold leases over the same regions. Whatever a lease got is one
// writer's generation (or zeros, before the first), and it does not change
// while the lease is held. Run under -race: a lent block must never be
// written in place, and the release that drops its count races the next
// write's check.
func TestConcurrentLeasesAndWriters(t *testing.T) {
	const (
		writers = 4
		region  = 3*blockSize/2 + 7
		gens    = 8
	)
	s := newTestStore()
	if err := s.Create("/shared"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for g := 1; g <= gens; g++ {
				p := bytes.Repeat([]byte{byte(w*gens + g)}, region)
				if _, err := s.WriteAs(fmt.Sprintf("w%d", w), "/shared", int64(w)*region, p); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2*gens; i++ {
				l, err := s.ReadLease("/shared", int64(w)*region, region)
				if err != nil && !errors.Is(err, ErrShortRead) {
					t.Error(err)
					return
				}
				got := leased(l)
				for j := range got {
					if got[j] != got[0] {
						t.Errorf("region %d: torn lease at byte %d: %d vs %d", w, j, got[j], got[0])
						break
					}
				}
				if len(got) > 0 && got[0] != 0 && (int(got[0]) <= w*gens || int(got[0]) > (w+1)*gens) {
					t.Errorf("region %d lent byte %d, which its writer never wrote", w, got[0])
				}
				if again := leased(l); !bytes.Equal(again, got) {
					t.Errorf("region %d: a held lease changed", w)
				}
				l.Release()
			}
		}(w)
	}
	wg.Wait()
	if s.Leases() != 0 {
		t.Fatalf("%d leases outstanding, want 0", s.Leases())
	}
	buf := make([]byte, writers*region)
	if _, err := s.Read("/shared", 0, buf); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		if want := bytes.Repeat([]byte{byte((w + 1) * gens)}, region); !bytes.Equal(buf[w*region:(w+1)*region], want) {
			t.Fatalf("region %d does not hold its writer's last generation", w)
		}
	}
}

// TestWriteUnlentBlockAllocationPin: a write into a stored block no lease
// holds — never lent, or lent and released — goes in place and allocates
// nothing; one into a held block allocates its replacement.
func TestWriteUnlentBlockAllocationPin(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	s := newTestStore()
	p := make([]byte, 4096)
	if _, err := s.Write("/pin", 0, make([]byte, 2*blockSize)); err != nil {
		t.Fatal(err)
	}
	write := func() {
		if _, err := s.Write("/pin", 100, p); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, write); got != 0 {
		t.Errorf("write into an unlent block: %.1f allocs, want 0", got)
	}
	leaseThenWrite := func() {
		l, err := s.ReadLease("/pin", 0, 2*blockSize)
		if err != nil {
			t.Fatal(err)
		}
		l.Release()
		write()
	}
	leaseThenWrite()
	if got := testing.AllocsPerRun(100, leaseThenWrite); got != 0 {
		t.Errorf("write into a released block: %.1f allocs, want 0", got)
	}
	l, err := s.ReadLease("/pin", 0, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := testkit.AllocatedBy(write); got < blockSize {
		t.Errorf("write into a held block allocated %d bytes, want its %d-byte replacement", got, blockSize)
	}
	l.Release()
}
