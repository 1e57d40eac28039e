package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/testkit"
)

// stage stages p for path at off, fills the segments from p and returns
// the stage, checking it covers exactly p.
func stage(t testing.TB, s *Store, path string, off int64, p []byte) *Stage {
	t.Helper()
	st, err := s.Stage(path, off, len(p))
	if err != nil || st == nil {
		t.Fatalf("stage of %d bytes at %d: %v", len(p), off, err)
	}
	fill(t, st, p)
	return st
}

// fill copies p into st's segments, checking they hold exactly p.
func fill(t testing.TB, st *Stage, p []byte) {
	t.Helper()
	n := 0
	for _, seg := range st.Segs {
		n += copy(seg, p[n:])
	}
	if n != len(p) || st.Len() != len(p) {
		t.Fatalf("stage of %d bytes holds %d (Len %d)", len(p), n, st.Len())
	}
}

// install stages p, installs it as writer and releases the stage.
func install(t testing.TB, s *Store, writer, path string, off int64, p []byte) {
	t.Helper()
	st := stage(t, s, path, off, p)
	defer st.Release()
	if n, err := s.Install(writer, st); err != nil || n != len(p) {
		t.Fatalf("install of %d bytes at %d: %d, %v", len(p), off, n, err)
	}
}

// contents reads all of path.
func contents(t testing.TB, s *Store, path string) []byte {
	t.Helper()
	info, err := s.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, info.Size)
	if _, err := s.Read(path, 0, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// pattern returns n bytes counting up from seed.
func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i*7)
	}
	return p
}

// TestStageWholeBlockSwap: a stage that covers whole blocks goes into the
// file as the very blocks it handed out, and the store counts the write as
// WriteAs would.
func TestStageWholeBlockSwap(t *testing.T) {
	s, twin := newTestStore(), newTestStore()
	for _, fs := range []*Store{s, twin} {
		if _, err := fs.WriteAs("w", "/f", 0, pattern(2*blockSize, 1)); err != nil {
			t.Fatal(err)
		}
	}
	f, _ := s.lookup("/f")
	p := pattern(2*blockSize, 9)
	st := stage(t, s, "/f", 0, p)
	staged := append([]*block(nil), st.blocks...)
	if _, err := s.Install("w", st); err != nil {
		t.Fatal(err)
	}
	st.Release()
	if _, err := twin.WriteAs("w", "/f", 0, p); err != nil {
		t.Fatal(err)
	}
	for i := range staged {
		if f.blocks[i] != staged[i] {
			t.Errorf("block %d was copied, not swapped in", i)
		}
	}
	if got, want := s.Metrics(), twin.Metrics(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("metrics after install %+v, after WriteAs %+v", got, want)
	}
	if !bytes.Equal(contents(t, s, "/f"), p) {
		t.Fatal("the file does not hold the staged bytes")
	}
	if s.Leases() != 0 {
		t.Fatalf("%d leases or stages outstanding", s.Leases())
	}
}

// TestStagePartialHeadAndTail: a stage whose range starts and ends inside
// blocks copies the head and the tail into the file's blocks, swaps the
// block in between, and leaves the file as WriteAs leaves its twin.
func TestStagePartialHeadAndTail(t *testing.T) {
	s, twin := newTestStore(), newTestStore()
	for _, fs := range []*Store{s, twin} {
		if _, err := fs.WriteAs("w", "/f", 0, pattern(3*blockSize+100, 3)); err != nil {
			t.Fatal(err)
		}
	}
	f, _ := s.lookup("/f")
	head, tail := f.blocks[0], f.blocks[2]
	off, p := int64(blockSize/2), pattern(2*blockSize, 200) // half, one whole, half
	st := stage(t, s, "/f", off, p)
	if len(st.Segs) != 3 || len(st.Segs[0]) != blockSize/2 || len(st.Segs[1]) != blockSize || len(st.Segs[2]) != blockSize/2 {
		t.Fatalf("segments %d: want a half, a whole and a half block", len(st.Segs))
	}
	middle := st.blocks[1]
	if _, err := s.Install("w2", st); err != nil {
		t.Fatal(err)
	}
	st.Release()
	if _, err := twin.WriteAs("w2", "/f", off, p); err != nil {
		t.Fatal(err)
	}
	if f.blocks[0] != head || f.blocks[2] != tail || f.blocks[1] != middle {
		t.Fatal("want the head and tail copied in place and the middle block swapped in")
	}
	if !bytes.Equal(contents(t, s, "/f"), contents(t, twin, "/f")) {
		t.Fatal("staged partial write differs from WriteAs")
	}
	if got, want := s.Metrics(), twin.Metrics(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("metrics after install %+v, after WriteAs %+v", got, want)
	}
}

// TestStageInstallOverLeasedBlocks: installing over blocks a read lease
// holds leaves the lease's bytes alone, and no later stage is handed a
// held block — not while it is held, and not after the lease lets go of it.
func TestStageInstallOverLeasedBlocks(t *testing.T) {
	s := newTestStore()
	old := pattern(2*blockSize, 5)
	if _, err := s.Write("/f", 0, old); err != nil {
		t.Fatal(err)
	}
	f, _ := s.lookup("/f")
	held := map[*byte]bool{&f.blocks[0].b[0]: true, &f.blocks[1].b[0]: true}
	l, err := s.ReadLease("/f", 0, 2*blockSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ { // a recycled held block would come back here
		if i == 8 {
			if !bytes.Equal(leased(l), old) {
				t.Fatal("a held lease changed under an install")
			}
			l.Release()
		}
		install(t, s, "w", "/f", 0, pattern(2*blockSize, byte(50+i)))
		st := stage(t, s, "/g", 0, pattern(blockSize, byte(90+i)))
		if held[&st.blocks[0].b[0]] {
			t.Fatalf("round %d: a stage was handed a block a lease held", i)
		}
		st.Release()
	}
	if !bytes.Equal(contents(t, s, "/f"), pattern(2*blockSize, 65)) {
		t.Fatal("the file does not hold the last install")
	}
}

// TestUninstalledStageChangesNothing: a stage released without an install
// creates no file and counts no write (TestStageAllocationPin checks it
// hands its blocks back).
func TestUninstalledStageChangesNothing(t *testing.T) {
	s := newTestStore()
	st := stage(t, s, "/f", 100, pattern(2*blockSize, 1)) // three blocks
	if s.Leases() != 1 {
		t.Fatalf("%d stages outstanding, want 1", s.Leases())
	}
	st.Release()
	if s.Leases() != 0 || len(s.List()) != 0 || s.Metrics().WriteOps != 0 {
		t.Fatalf("an uninstalled stage left %d stages, files %v, %d writes", s.Leases(), s.List(), s.Metrics().WriteOps)
	}
}

// TestStageAllocationPin: the blocks a whole-block install replaces, the
// staged head and tail a partial one copied, and the blocks of a stage
// released uninstalled all go back for the next stage, so none of these
// allocates once warm.
func TestStageAllocationPin(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	s := newTestStore()
	whole, partial := pattern(2*blockSize, 1), pattern(2*blockSize, 2)
	install(t, s, "w", "/f", 0, whole)
	for _, row := range []struct {
		name string
		op   func()
	}{
		{"whole-block install", func() { install(t, s, "w", "/f", 0, whole) }},
		{"partial install", func() { install(t, s, "w", "/f", blockSize/2, partial) }}, // head, block, tail
		{"uninstalled stage", func() { stage(t, s, "/f", 0, whole).Release() }},
	} {
		row.op()
		if got := testing.AllocsPerRun(50, row.op); got > 0 {
			t.Errorf("%s: %.1f allocs, want 0", row.name, got)
		}
	}
}

// TestStageDiscardMode: in Discard mode an install keeps the file size and
// the counters and stores no payload.
func TestStageDiscardMode(t *testing.T) {
	s := NewStore(Config{Discard: true})
	st := stage(t, s, "/d", blockSize, pattern(2*blockSize, 1))
	if n, err := s.Install("w", st); err != nil || n != 2*blockSize {
		t.Fatalf("install: %d, %v", n, err)
	}
	st.Release()
	f, _ := s.lookup("/d")
	if len(f.blocks) != 0 || f.size != 3*blockSize {
		t.Fatalf("discard install stored %d blocks, size %d", len(f.blocks), f.size)
	}
	if m := s.Metrics(); m.BytesWritten != 2*blockSize || m.WriteOps != 1 {
		t.Fatalf("metrics %+v", m)
	}
	if s.Leases() != 0 {
		t.Fatalf("%d stages outstanding", s.Leases())
	}
}

// TestConcurrentStagesInstallsAndLeases: writers installing stages (and
// dropping every third one uninstalled) race readers holding leases over
// the same file; no lease tears or changes, and each region ends with its
// writer's last installed generation.
func TestConcurrentStagesInstallsAndLeases(t *testing.T) {
	const (
		writers = 4
		region  = 3*blockSize/2 + 7
		gens    = 9
	)
	s := newTestStore()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for g := 1; g <= gens; g++ {
				p := bytes.Repeat([]byte{byte(w*gens + g)}, region)
				st := stage(t, s, "/shared", int64(w)*region, p)
				if g%3 != 2 {
					if _, err := s.Install(fmt.Sprintf("w%d", w), st); err != nil {
						t.Error(err)
					}
				}
				st.Release()
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2*gens; i++ {
				l, err := s.ReadLease("/shared", int64(w)*region, region)
				if errors.Is(err, ErrNotExist) {
					continue
				}
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
				if again := leased(l); !bytes.Equal(again, got) {
					t.Errorf("region %d: a held lease changed", w)
				}
				l.Release()
			}
		}(w)
	}
	wg.Wait()
	if s.Leases() != 0 {
		t.Fatalf("%d leases or stages outstanding, want 0", s.Leases())
	}
	buf := contents(t, s, "/shared")
	for w := 0; w < writers; w++ {
		if want := bytes.Repeat([]byte{byte((w + 1) * gens)}, region); !bytes.Equal(buf[w*region:(w+1)*region], want) {
			t.Fatalf("region %d does not hold its writer's last generation", w)
		}
	}
}

// TestWriteOutOfRangeRejected: a write whose end overflows int64 or passes
// MaxFileSize is an error, staged or not, and costs nothing — it used to
// size the block table from the end offset and kill the process.
func TestWriteOutOfRangeRejected(t *testing.T) {
	s := newTestStore()
	for _, off := range []int64{1 << 62, math.MaxInt64 - 3, -1, MaxFileSize - 1} {
		if _, err := s.Write("/x", off, []byte("ab")); err == nil {
			t.Errorf("write at %d: want an error", off)
		}
		if st, err := s.Stage("/x", off, 2); err == nil || st != nil {
			t.Errorf("stage at %d: want an error and no stage", off)
		}
	}
	if s.Leases() != 0 || len(s.List()) != 0 {
		t.Fatalf("rejected writes left %d stages and files %v", s.Leases(), s.List())
	}
	d := NewStore(Config{Discard: true}) // the last two bytes a file may have
	if _, err := d.Write("/x", MaxFileSize-2, []byte("ab")); err != nil {
		t.Fatal(err)
	}
}

// FuzzStagedStoreMatchesWriteAs drives one store through Stage and Install
// — with stages dropped uninstalled and read leases held across writes —
// and a twin through WriteAs alone: the files, the counters and every
// held lease must agree with what the twin says was there.
func FuzzStagedStoreMatchesWriteAs(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{2, 0, 9, 0, 9, 1, 8, 0, 9, 3, 1, 1, 7, 5, 4, 3})
	f.Add([]byte{0, 0, 40, 3, 2, 4, 20, 9, 0, 4, 33, 0, 1, 8, 30, 1, 3, 0, 0, 0, 0, 2, 25, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s, twin := newTestStore(), newTestStore()
		type held struct {
			l    *Lease
			want []byte
		}
		var leases []held
		for len(ops) >= 4 {
			kind, off, n, seed := ops[0]%4, int64(ops[1])*blockSize/8, int(ops[2])*blockSize/16+int(ops[3]), ops[3]
			ops = ops[4:]
			switch kind {
			case 0, 1: // installed (0), or dropped uninstalled (1)
				p := pattern(n, seed)
				st, err := s.Stage("/f", off, n)
				if err != nil {
					t.Fatal(err)
				}
				fill(t, st, p)
				if kind == 0 {
					_, err = s.Install("w", st)
					if _, terr := twin.WriteAs("w", "/f", off, p); err != nil || terr != nil {
						t.Fatal(err, terr)
					}
				}
				st.Release()
			case 2: // hold a lease on what the twin says is there
				l, err := s.ReadLease("/f", off, n)
				if l == nil {
					continue
				}
				want := make([]byte, n)
				k, _ := twin.Read("/f", off, want)
				if got := leased(l); !bytes.Equal(got, want[:k]) || !errors.Is(err, ErrShortRead) != (k == n) {
					t.Fatalf("lease at %d: %d bytes (%v), twin has %d", off, len(got), err, k)
				}
				leases = append(leases, held{l, want[:k]})
			case 3: // let the oldest lease go, checking it never changed
				if len(leases) > 0 {
					if !bytes.Equal(leased(leases[0].l), leases[0].want) {
						t.Fatal("a held lease changed")
					}
					leases[0].l.Release()
					leases = leases[1:]
				}
			}
		}
		for _, h := range leases {
			if !bytes.Equal(leased(h.l), h.want) {
				t.Fatal("a held lease changed")
			}
			h.l.Release()
		}
		if _, err := twin.Stat("/f"); err == nil && !bytes.Equal(contents(t, s, "/f"), contents(t, twin, "/f")) {
			t.Fatal("the staged store and its WriteAs twin hold different files")
		}
		if got, want := s.Metrics(), twin.Metrics(); got.BytesWritten != want.BytesWritten || got.WriteOps != want.WriteOps {
			t.Fatalf("counters %+v, twin %+v", got, want)
		}
		if s.Leases() != 0 {
			t.Fatalf("%d leases or stages outstanding", s.Leases())
		}
	})
}
