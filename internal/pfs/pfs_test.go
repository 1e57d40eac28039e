package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/testkit"
	"repro/internal/units"
)

func newTestStore() *Store { return NewStore(Config{}) }

func TestWriteReadRoundTrip(t *testing.T) {
	s := newTestStore()
	data := []byte("the quick brown fox")
	if _, err := s.Write("/f", 0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	n, err := s.Read("/f", 0, got)
	if err != nil || n != len(data) {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("data mismatch: %q", got)
	}
}

func TestWriteAtOffsetExtends(t *testing.T) {
	s := newTestStore()
	if _, err := s.Write("/f", 100, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	info, err := s.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 103 {
		t.Fatalf("size = %d, want 103", info.Size)
	}
	// The gap reads as zeros.
	buf := make([]byte, 103)
	if _, err := s.Read("/f", 0, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if buf[i] != 0 {
			t.Fatalf("hole not zero at %d", i)
		}
	}
	if string(buf[100:]) != "xyz" {
		t.Fatalf("tail = %q", buf[100:])
	}
}

func TestReadPastEnd(t *testing.T) {
	s := newTestStore()
	if _, err := s.Write("/f", 0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := s.Read("/f", 0, buf)
	if n != 3 || !errors.Is(err, ErrShortRead) {
		t.Fatalf("short read: n=%d err=%v", n, err)
	}
	n, err = s.Read("/f", 100, buf)
	if n != 0 || !errors.Is(err, ErrShortRead) {
		t.Fatalf("past-end read: n=%d err=%v", n, err)
	}
}

func TestReadMissingFile(t *testing.T) {
	s := newTestStore()
	if _, err := s.Read("/nope", 0, make([]byte, 1)); !errors.Is(err, ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
	if _, err := s.Stat("/nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat: want ErrNotExist, got %v", err)
	}
	if err := s.Fsync("/nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("fsync: want ErrNotExist, got %v", err)
	}
}

func TestCreateTruncates(t *testing.T) {
	s := newTestStore()
	if _, err := s.Write("/f", 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("/f"); err != nil {
		t.Fatal(err)
	}
	info, _ := s.Stat("/f")
	if info.Size != 0 {
		t.Fatalf("create should truncate, size = %d", info.Size)
	}
}

func TestRemove(t *testing.T) {
	s := newTestStore()
	if err := s.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("/f"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double remove: %v", err)
	}
	if got := s.List(); len(got) != 0 {
		t.Fatalf("list after remove: %v", got)
	}
}

func TestNegativeOffsets(t *testing.T) {
	s := newTestStore()
	if _, err := s.Write("/f", -1, []byte("x")); err == nil {
		t.Fatal("negative write offset should fail")
	}
	s.Create("/f")
	if _, err := s.Read("/f", -1, make([]byte, 1)); err == nil {
		t.Fatal("negative read offset should fail")
	}
}

func TestStripingAcrossOSTs(t *testing.T) {
	s := NewStore(Config{StripeSize: 4, OSTs: 2})
	// 12 bytes = 3 stripes: the file's first OST gets stripes 0 and 2
	// (8 bytes), the other gets stripe 1 (4 bytes).
	if _, err := s.Write("/f", 0, make([]byte, 12)); err != nil {
		t.Fatal(err)
	}
	first := startOST("/f", 2)
	m := s.Metrics()
	if m.PerOSTBytes[first] != 8 || m.PerOSTBytes[1-first] != 4 {
		t.Fatalf("striping wrong: %v (first OST %d)", m.PerOSTBytes, first)
	}
}

func TestStripingUnalignedWrite(t *testing.T) {
	s := NewStore(Config{StripeSize: 4, OSTs: 2})
	// Write [2, 9): extents [2,4)→first, [4,8)→second, [8,9)→first.
	if _, err := s.Write("/f", 2, make([]byte, 7)); err != nil {
		t.Fatal(err)
	}
	first := startOST("/f", 2)
	m := s.Metrics()
	if m.PerOSTBytes[first] != 3 || m.PerOSTBytes[1-first] != 4 {
		t.Fatalf("unaligned striping wrong: %v (first OST %d)", m.PerOSTBytes, first)
	}
}

func TestSmallFilesSpreadAcrossOSTs(t *testing.T) {
	s := NewStore(Config{StripeSize: units.MiB, OSTs: 4})
	for i := 0; i < 64; i++ {
		if _, err := s.Write(fmt.Sprintf("/small%02d", i), 0, make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	for i, b := range m.PerOSTBytes {
		if b == 0 {
			t.Fatalf("OST %d idle — sub-stripe files all piled up: %v", i, m.PerOSTBytes)
		}
	}
}

func TestSeekAccounting(t *testing.T) {
	s := NewStore(Config{StripeSize: units.MiB, OSTs: 1})
	// Sequential appends from offset zero never reposition.
	for i := int64(0); i < 4; i++ {
		if _, err := s.Write("/seq", i*1024, make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if seqSeeks := s.Metrics().Seeks; seqSeeks != 0 {
		t.Fatalf("sequential writes: %d seeks, want 0", seqSeeks)
	}
	// Strided writes: every one after the first repositions.
	s2 := NewStore(Config{StripeSize: units.MiB, OSTs: 1})
	for i := int64(0); i < 4; i++ {
		if _, err := s2.Write("/str", i*8192, make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s2.Metrics().Seeks; got != 3 {
		t.Fatalf("strided writes: %d seeks, want 3", got)
	}
}

func TestDiscardMode(t *testing.T) {
	s := NewStore(Config{Discard: true})
	if _, err := s.Write("/f", 0, make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	info, err := s.Stat("/f")
	if err != nil || info.Size != 1<<20 {
		t.Fatalf("discard stat: %+v %v", info, err)
	}
	// Reads still report counts, content is zeros.
	buf := make([]byte, 16)
	if n, err := s.Read("/f", 0, buf); n != 16 || err != nil {
		t.Fatalf("discard read: %d %v", n, err)
	}
	m := s.Metrics()
	if m.BytesWritten != 1<<20 || m.BytesRead != 16 {
		t.Fatalf("discard metrics: %+v", m)
	}
}

func TestLockHandoffAccounting(t *testing.T) {
	s := NewStore(Config{LockLatency: time.Microsecond})
	s.WriteAs("w1", "/shared", 0, []byte("a"))
	s.WriteAs("w1", "/shared", 1, []byte("b")) // same writer: no handoff
	s.WriteAs("w2", "/shared", 2, []byte("c")) // handoff
	s.WriteAs("w1", "/shared", 3, []byte("d")) // handoff back
	if got := s.Metrics().LockWaits; got != 2 {
		t.Fatalf("lock handoffs = %d, want 2", got)
	}
}

func TestOSTRateThrottling(t *testing.T) {
	// 1 MiB at 10 MiB/s ≈ 100 ms.
	s := NewStore(Config{OSTs: 1, OSTRate: units.Bandwidth(10 * units.MiB)})
	start := time.Now()
	if _, err := s.Write("/f", 0, make([]byte, units.MiB)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("throttling too weak: %v", elapsed)
	}
}

func TestConcurrentWritersDistinctFiles(t *testing.T) {
	s := newTestStore()
	const workers = 8
	const writes = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			path := fmt.Sprintf("/w%d", w)
			for i := 0; i < writes; i++ {
				if _, err := s.Write(path, int64(i)*8, []byte("12345678")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		info, err := s.Stat(fmt.Sprintf("/w%d", w))
		if err != nil || info.Size != writes*8 {
			t.Fatalf("file w%d: %+v %v", w, info, err)
		}
	}
	if m := s.Metrics(); m.BytesWritten != workers*writes*8 {
		t.Fatalf("bytes written = %d", m.BytesWritten)
	}
}

func TestConcurrentSharedFile(t *testing.T) {
	s := newTestStore()
	const workers = 8
	const region = 1024
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte('a' + w)}, region)
			if _, err := s.WriteAs(fmt.Sprintf("w%d", w), "/shared", int64(w)*region, payload); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	buf := make([]byte, workers*region)
	if _, err := s.Read("/shared", 0, buf); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < region; i++ {
			if buf[w*region+i] != byte('a'+w) {
				t.Fatalf("corruption at worker %d offset %d: %q", w, i, buf[w*region+i])
			}
		}
	}
}

// TestConcurrentRemoveVsWriteRead hammers one path with concurrent
// writers, readers and removers. The store must never tear: every Write
// outcome is all-or-nothing (a file recreated by Write after a Remove
// holds exactly one writer's full payload at the written range), every
// Read either fails with ErrNotExist/ErrShortRead or returns bytes some
// writer actually wrote, and nothing panics or races (run under -race).
func TestConcurrentRemoveVsWriteRead(t *testing.T) {
	s := newTestStore()
	const (
		workers = 4
		rounds  = 200
		size    = 64
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte('a' + w)}, size)
			for i := 0; i < rounds; i++ {
				if _, err := s.Write("/contested", 0, payload); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, size)
			for i := 0; i < rounds; i++ {
				n, err := s.Read("/contested", 0, buf)
				if err != nil {
					if errors.Is(err, ErrNotExist) || errors.Is(err, ErrShortRead) {
						continue // removed, or read raced file creation
					}
					t.Errorf("reader: %v", err)
					return
				}
				if n != size {
					t.Errorf("reader: short read %d without error", n)
					return
				}
				first := buf[0]
				if first < 'a' || first >= 'a'+workers {
					t.Errorf("reader: byte not written by any writer: %q", first)
					return
				}
				for j := range buf {
					if buf[j] != first {
						t.Errorf("torn read at byte %d: %q vs %q", j, buf[j], first)
						return
					}
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := s.Remove("/contested"); err != nil && !errors.Is(err, ErrNotExist) {
					t.Errorf("remover: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// The survivors settle: one final write must fully stick.
	want := bytes.Repeat([]byte{'z'}, size)
	if _, err := s.Write("/contested", 0, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if _, err := s.Read("/contested", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("final state torn: %q", got)
	}
}

// TestBlockStoreMatchesFlatModel drives a seeded random sequence of
// WriteAs/Read/Stat/Create/Remove over a few paths and compares the store
// byte for byte against the obvious model, one flat []byte per file.
// Offsets are unaligned, cluster around block boundaries, and jump far
// past EOF, so multi-block writes, holes (whole blocks and partial),
// short reads and truncation are all exercised.
func TestBlockStoreMatchesFlatModel(t *testing.T) {
	const maxSize = 12 * blockSize
	rng := rand.New(rand.NewSource(14))
	s := NewStore(Config{StripeSize: 4096, OSTs: 3})
	model := map[string][]byte{}
	paths := []string{"/m0", "/m1", "/m2"}
	noise := make([]byte, 4*blockSize) // payloads are random windows of this
	rng.Read(noise)

	offset := func(size int64) int64 {
		var off int64
		switch rng.Intn(4) {
		case 0: // hugging a block boundary, from either side
			off = int64(1+rng.Intn(maxSize/blockSize-1))*blockSize + int64(rng.Intn(200)) - 100
		case 1: // inside what is already there
			off = rng.Int63n(size + 1)
		case 2: // sparse: well past EOF
			off = size + rng.Int63n(5*blockSize)
		default:
			off = rng.Int63n(maxSize)
		}
		return min(off, maxSize-1)
	}
	length := func(off int64) int {
		n := 1 + rng.Intn(64<<10)
		if rng.Intn(8) == 0 {
			n = 1 + rng.Intn(5*blockSize/2) // spans two or three blocks
		}
		return int(min(int64(n), maxSize-off))
	}

	var wrote, read int64
	for i := 0; i < 500; i++ {
		path := paths[rng.Intn(len(paths))]
		ref, exists := model[path]
		switch op := rng.Intn(20); {
		case op < 9:
			off := offset(int64(len(ref)))
			p := noise[rng.Intn(blockSize):][:length(off)]
			n, err := s.WriteAs(fmt.Sprintf("w%d", i%3), path, off, p)
			if n != len(p) || err != nil {
				t.Fatalf("op %d: write %s [%d,+%d): n=%d err=%v", i, path, off, len(p), n, err)
			}
			if end := off + int64(len(p)); end > int64(len(ref)) {
				ref = append(ref, make([]byte, end-int64(len(ref)))...)
			}
			copy(ref[off:], p)
			model[path] = ref
			wrote += int64(len(p))
		case op < 16:
			off := offset(int64(len(ref)))
			got := bytes.Repeat([]byte{0xAA}, length(off)) // garbage a hole must overwrite
			n, err := s.Read(path, off, got)
			if !exists {
				if !errors.Is(err, ErrNotExist) {
					t.Fatalf("op %d: read of missing %s: %v", i, path, err)
				}
				continue
			}
			want := ref[min(off, int64(len(ref))):min(off+int64(len(got)), int64(len(ref)))]
			if n != len(want) || (err != nil) != (n < len(got)) || (err != nil && !errors.Is(err, ErrShortRead)) {
				t.Fatalf("op %d: read %s [%d,+%d) of %d: n=%d err=%v, want n=%d", i, path, off, len(got), len(ref), n, err, len(want))
			}
			if !bytes.Equal(got[:n], want) {
				t.Fatalf("op %d: read %s [%d,+%d): content diverged from the flat model", i, path, off, n)
			}
			read += int64(n)
		case op < 18:
			info, err := s.Stat(path)
			if !exists {
				if !errors.Is(err, ErrNotExist) {
					t.Fatalf("op %d: stat of missing %s: %v", i, path, err)
				}
				continue
			}
			if err != nil || info.Size != int64(len(ref)) {
				t.Fatalf("op %d: stat %s: %+v %v, want size %d", i, path, info, err, len(ref))
			}
		case op < 19:
			if err := s.Create(path); err != nil {
				t.Fatal(err)
			}
			model[path] = []byte{}
		default:
			if err := s.Remove(path); exists != (err == nil) || (err != nil && !errors.Is(err, ErrNotExist)) {
				t.Fatalf("op %d: remove %s (exists=%v): %v", i, path, exists, err)
			}
			delete(model, path)
		}
	}
	for path, ref := range model {
		got := make([]byte, len(ref))
		if n, err := s.Read(path, 0, got); n != len(ref) || (err != nil && len(ref) > 0) {
			t.Fatalf("final read %s: n=%d err=%v", path, n, err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("final state of %s diverged from the flat model", path)
		}
		read += int64(len(ref))
	}
	if m := s.Metrics(); m.BytesWritten != wrote || m.BytesRead != read {
		t.Fatalf("metrics %d written / %d read, model %d / %d", m.BytesWritten, m.BytesRead, wrote, read)
	}
}

// TestAppendGrowthCostIsLinear: laying a 64 MiB file down in 512 KiB
// appends — the IOR pattern — allocates little more than the file
// (re-allocating to the new size on each extending write would come to
// ~4 GiB for the same stream).
func TestAppendGrowthCostIsLinear(t *testing.T) {
	const total, step = 64 << 20, 512 << 10
	s := newTestStore()
	p := bytes.Repeat([]byte{7}, step)
	got := testkit.AllocatedBy(func() {
		for off := int64(0); off < total; off += step {
			if _, err := s.Write("/ior", off, p); err != nil {
				t.Fatal(err)
			}
		}
	})
	if limit := uint64(total + total/4); got >= limit {
		t.Fatalf("64 MiB in 512 KiB appends allocated %d bytes, want < %d", got, limit)
	}
	tail := make([]byte, step)
	if _, err := s.Read("/ior", total-step, tail); err != nil || !bytes.Equal(tail, p) {
		t.Fatalf("tail of the appended file: err=%v", err)
	}
}

// TestDiscardModeStoresNoPayload: accounting mode must stay usable for
// volumes far larger than memory, sparse offsets included.
func TestDiscardModeStoresNoPayload(t *testing.T) {
	s := NewStore(Config{Discard: true})
	p := make([]byte, 1<<20)
	got := testkit.AllocatedBy(func() {
		for i := int64(0); i < 64; i++ {
			if _, err := s.Write("/d", i<<30, p); err != nil { // 1 GiB strides
				t.Fatal(err)
			}
		}
	})
	if got >= 64<<10 {
		t.Fatalf("discard-mode writes allocated %d bytes", got)
	}
	f, err := s.lookup("/d")
	if err != nil || len(f.blocks) != 0 || f.size != 63<<30+1<<20 {
		t.Fatalf("discard-mode file: %d blocks, size %d, err %v", len(f.blocks), f.size, err)
	}
}

// TestConcurrentSharedFileAcrossBlocks: writers own disjoint regions that
// straddle block boundaries and rewrite them generation by generation
// while readers sweep the same file. Every write is atomic under the file
// lock, so whatever prefix of a region a reader gets is uniform: one
// generation of its writer, or zeros while it is still a hole. Run under
// -race: first-touch block allocation and block-list growth happen while
// readers walk the list.
func TestConcurrentSharedFileAcrossBlocks(t *testing.T) {
	const (
		writers = 4
		region  = 3*blockSize/2 + 7
		gens    = 8
	)
	s := newTestStore()
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
			buf := make([]byte, region)
			for i := 0; i < 2*gens; i++ {
				n, err := s.Read("/shared", int64(w)*region, buf)
				if err != nil && !errors.Is(err, ErrNotExist) && !errors.Is(err, ErrShortRead) {
					t.Error(err)
					return
				}
				for j := 1; j < n; j++ {
					if buf[j] != buf[0] {
						t.Errorf("region %d: torn read at byte %d: %d vs %d", w, j, buf[j], buf[0])
						return
					}
				}
				if n > 0 && buf[0] != 0 && (int(buf[0]) <= w*gens || int(buf[0]) > (w+1)*gens) {
					t.Errorf("region %d holds byte %d, which its writer never wrote", w, buf[0])
					return
				}
			}
		}(w)
	}
	wg.Wait()
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

func TestWriteReadProperty(t *testing.T) {
	s := NewStore(Config{StripeSize: 64, OSTs: 4})
	f := func(off uint16, payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		path := fmt.Sprintf("/q%d", off)
		if _, err := s.Write(path, int64(off), payload); err != nil {
			return false
		}
		got := make([]byte, len(payload))
		if _, err := s.Read(path, int64(off), got); err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsOps(t *testing.T) {
	s := newTestStore()
	s.Create("/f")
	s.Write("/f", 0, []byte("abc"))
	s.Read("/f", 0, make([]byte, 3))
	s.Stat("/f")
	s.Remove("/f")
	m := s.Metrics()
	if m.WriteOps != 1 || m.ReadOps != 1 || m.MetaOps != 3 {
		t.Fatalf("ops: %+v", m)
	}
}

func TestDefaults(t *testing.T) {
	s := NewStore(Config{})
	cfg := s.Config()
	if cfg.StripeSize != units.MiB || cfg.OSTs != 2 {
		t.Fatalf("defaults: %+v", cfg)
	}
}
