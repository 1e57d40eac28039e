// Package pfs implements the parallel-file-system substrate the forwarding
// layer dispatches to, standing in for the Lustre deployment of the paper's
// Grid'5000 evaluation (one MGS/MDS and two OSSs with one OST each, 1 MiB
// stripes, striping across all OSTs).
//
// The store keeps file data in memory (or discards payloads in accounting
// mode). A file's payload lives in fixed-size blocks allocated on first
// touch, so extending a file — the sequential-append pattern every IOR-like
// kernel produces — never copies what is already stored, and regions never
// written (holes) cost nothing and read as zeros.
//
// ReadLease lends the bytes it reads: the lease's segments alias the stored
// blocks (holes alias one shared zero block), and Read is a lease plus one
// copy. A lent block is replaced, not modified: a write into a block a
// reply is still being sent from goes into a fresh one, which copies the
// old block first when the write covers only part of it.
//
// Stage and Install take a write without copying it: the caller fills the
// fresh blocks Stage hands out, and Install swaps every one the range
// wholly covers into the file (recycling the block it replaces unless a
// lease holds it) and copies only a partial head or tail, as Write would.
//
// The store models the performance characteristics that matter to the
// arbitration problem:
//
//   - striping: writes and reads are split at stripe boundaries and each
//     stripe extent is serviced by its OST;
//   - per-OST serial service with a finite streaming rate, so concurrent
//     writers contend for the same disks;
//   - positioning latency for non-sequential extents (small or strided
//     requests pay per-request overhead);
//   - a per-file lock, so interleaved writers to one shared file serialize
//     (the shared-file penalty of the paper's Figure 1).
//
// All latency/rate parameters default to zero, which turns the store into a
// fast functional file system for unit tests; cluster experiments configure
// scaled-down Lustre-like rates.
package pfs

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// FileSystem is the interface shared by the PFS store, the forwarding
// client, and every application kernel: a minimal POSIX-like contract.
type FileSystem interface {
	// Create makes an empty file, truncating any existing one.
	Create(path string) error
	// Write stores p at offset off, extending the file as needed.
	Write(path string, off int64, p []byte) (int, error)
	// Read fills p from offset off, returning the bytes read. Reads past
	// the end return io.EOF semantics via a short count and error.
	Read(path string, off int64, p []byte) (int, error)
	// Stat reports file metadata.
	Stat(path string) (FileInfo, error)
	// Remove deletes the file.
	Remove(path string) error
	// Fsync flushes the file (a no-op barrier in this model).
	Fsync(path string) error
}

// FileInfo is the metadata returned by Stat.
type FileInfo struct {
	Path string
	Size int64
}

// Errors returned by the store.
var (
	ErrNotExist  = errors.New("pfs: file does not exist")
	ErrShortRead = errors.New("pfs: read past end of file")
)

// MaxFileSize bounds a file, whose block table a write's end offset sizes.
const MaxFileSize = 1 << 40

// checkRange refuses a write of n bytes at off that leaves [0, MaxFileSize].
func checkRange(off int64, n int) error {
	if off < 0 || off > MaxFileSize-int64(n) {
		return fmt.Errorf("pfs: write of %d bytes at offset %d out of range [0, %d]", n, off, int64(MaxFileSize))
	}
	return nil
}

// Config parameterizes the store.
type Config struct {
	// StripeSize is the striping unit; ≤0 selects 1 MiB (the paper's
	// Lustre configuration).
	StripeSize int64
	// OSTs is the number of object storage targets; ≤0 selects 2 (the
	// paper deploys two OSSs with one OST each).
	OSTs int
	// OSTRate is the per-OST streaming rate; 0 disables throttling.
	OSTRate units.Bandwidth
	// SeekLatency is charged per non-sequential extent on an OST.
	SeekLatency time.Duration
	// LockLatency is charged per write to a file that another writer
	// touched since this writer's last access (shared-file contention).
	LockLatency time.Duration
	// Discard keeps metadata and accounting but drops payload bytes; use
	// for large-volume benchmarks.
	Discard bool
}

func (c Config) withDefaults() Config {
	if c.StripeSize <= 0 {
		c.StripeSize = units.MiB
	}
	if c.OSTs <= 0 {
		c.OSTs = 2
	}
	return c
}

// Metrics is a snapshot of the store's counters.
type Metrics struct {
	BytesWritten int64
	BytesRead    int64
	WriteOps     int64
	ReadOps      int64
	MetaOps      int64
	// PerOSTBytes is the total volume serviced by each OST.
	PerOSTBytes []int64
	// Seeks counts non-sequential extents serviced.
	Seeks int64
	// LockWaits counts shared-file lock handoffs between writers.
	LockWaits int64
}

type ost struct {
	mu sync.Mutex
	// lastPos tracks the last serviced end offset per file for
	// sequential-access detection.
	lastPos map[string]int64
	bytes   int64
	seeks   int64
}

// blockSize is the unit file payload is stored in: the forwarding layer's
// default chunk (fwd.DefaultChunkSize, pinned by a test), so every
// chunk-aligned span a daemon stages covers whole blocks and installs
// without a copy.
const blockSize = 512 << 10

// block is one unit of a file's payload. lent counts the leases holding
// it, raised under the file lock and lowered by Lease.Release without it.
// The bytes are their own allocation of exactly blockSize: with the
// counter inline every block spilled a page past 1 MiB, and a 64 MiB fill
// took 1.45× as long (2-vCPU VM).
type block struct {
	lent atomic.Int32
	b    *[blockSize]byte
}

// zeros is what holes, and all of Discard mode, are lent as.
var zeros [blockSize]byte

// free holds blocks no file and no lease holds any more, for Stage to hand
// out again. Their bytes are not zeroed.
var free = sync.Pool{New: func() any { return &block{b: new([blockSize]byte)} }}

type file struct {
	mu sync.Mutex
	// blocks holds the payload, one block per entry; a nil entry is a
	// hole that reads as zeros. Always empty in Discard mode.
	blocks []*block
	size   int64
	// lastWriter detects writer interleaving for the lock penalty.
	lastWriter string
}

// Store is the in-memory PFS. It is safe for concurrent use.
type Store struct {
	cfg  Config
	osts []*ost

	mu    sync.RWMutex
	files map[string]*file

	statsMu sync.Mutex
	metrics Metrics

	leases atomic.Int64 // ReadLease and Stage calls not yet released

	// Registry mirrors of the store counters (nil when uninstrumented;
	// all methods no-op then). These feed the stack-wide /metrics view;
	// Metrics() remains the store's own consistent snapshot.
	tel struct {
		bytesWritten, bytesRead       *telemetry.Counter
		writeOps, readOps, metaOps    *telemetry.Counter
		seeks, lockWaits              *telemetry.Counter
		writeBytesHist, readBytesHist *telemetry.Histogram
	}
}

var _ FileSystem = (*Store)(nil)

// NewStore returns a store with the given configuration.
func NewStore(cfg Config) *Store {
	cfg = cfg.withDefaults()
	s := &Store{cfg: cfg, files: make(map[string]*file)}
	for i := 0; i < cfg.OSTs; i++ {
		s.osts = append(s.osts, &ost{lastPos: make(map[string]int64)})
	}
	return s
}

// Config returns the store's effective configuration.
func (s *Store) Config() Config { return s.cfg }

// Instrument mirrors the store's counters onto reg (pfs_bytes_written_total,
// pfs_seeks_total, …) so the PFS end of the forwarding path shows up in the
// same exposition as the layers above it. Call before serving traffic; reg
// may be nil (no-op). Returns s for chaining.
func (s *Store) Instrument(reg *telemetry.Registry) *Store {
	s.tel.bytesWritten = reg.Counter("pfs_bytes_written_total")
	s.tel.bytesRead = reg.Counter("pfs_bytes_read_total")
	s.tel.writeOps = reg.Counter("pfs_write_ops_total")
	s.tel.readOps = reg.Counter("pfs_read_ops_total")
	s.tel.metaOps = reg.Counter("pfs_meta_ops_total")
	s.tel.seeks = reg.Counter("pfs_seeks_total")
	s.tel.lockWaits = reg.Counter("pfs_lock_waits_total")
	s.tel.writeBytesHist = reg.Histogram("pfs_write_bytes", telemetry.SizeBuckets())
	s.tel.readBytesHist = reg.Histogram("pfs_read_bytes", telemetry.SizeBuckets())
	return s
}

// Create implements FileSystem.
func (s *Store) Create(path string) error {
	s.meta()
	s.mu.Lock()
	s.files[path] = &file{}
	s.mu.Unlock()
	return nil
}

func (s *Store) lookup(path string) (*file, error) {
	s.mu.RLock()
	f, ok := s.files[path]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	return f, nil
}

// lookupOrCreate returns the file, creating it on first write (the
// forwarding layer's create-on-write semantics keep remote ops minimal).
func (s *Store) lookupOrCreate(path string) *file {
	s.mu.RLock()
	f, ok := s.files[path]
	s.mu.RUnlock()
	if ok {
		return f
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok = s.files[path]; ok {
		return f
	}
	f = &file{}
	s.files[path] = f
	return f
}

// writeAt stores p at off, allocating the blocks it touches for the first
// time, and in place of any lent one. The caller holds f.mu and has grown
// the block table to cover p.
func (f *file) writeAt(off int64, p []byte) {
	for len(p) > 0 {
		i, within := off/blockSize, int(off%blockSize)
		b := f.blocks[i]
		if b == nil || b.lent.Load() > 0 {
			fresh := &block{b: new([blockSize]byte)}
			if b != nil && (within > 0 || len(p) < blockSize) {
				*fresh.b = *b.b
			}
			b, f.blocks[i] = fresh, fresh
		}
		n := copy(b.b[within:], p)
		p = p[n:]
		off += int64(n)
	}
}

// lend appends n bytes from off to l, one segment per block. The caller
// holds f.mu and has clipped n to the file size.
func (f *file) lend(l *Lease, off int64, n int) {
	for n > 0 {
		i, within := off/blockSize, off%blockSize
		k := min(n, int(blockSize-within))
		seg := zeros[within : within+int64(k)]
		if i < int64(len(f.blocks)) && f.blocks[i] != nil {
			b := f.blocks[i]
			b.lent.Add(1)
			l.held = append(l.held, b)
			seg = b.b[within : within+int64(k)]
		}
		l.Segs = append(l.Segs, seg)
		n -= k
		off += int64(k)
	}
}

// Write implements FileSystem. The caller identity for lock accounting is
// anonymous; use WriteAs to attribute writers.
func (s *Store) Write(path string, off int64, p []byte) (int, error) {
	return s.WriteAs("", path, off, p)
}

// WriteAs is Write with an explicit writer identity, used by the I/O-node
// daemons so the shared-file lock model sees which stream a write belongs
// to.
func (s *Store) WriteAs(writer, path string, off int64, p []byte) (int, error) {
	return s.write(writer, path, off, len(p), p, nil)
}

// Install writes what st staged to its range, as WriteAs would write the
// same bytes (the same metrics, OST service and lock model): each block the
// range wholly covers is swapped in, and a partial head or tail is copied.
// The stage keeps the blocks the file did not take until its Release.
func (s *Store) Install(writer string, st *Stage) (int, error) {
	return s.write(writer, st.Path, st.Offset, st.n, nil, st)
}

// write is WriteAs of the n bytes in p, or in st when st is not nil.
func (s *Store) write(writer, path string, off int64, n int, p []byte, st *Stage) (int, error) {
	if err := checkRange(off, n); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	f := s.lookupOrCreate(path)

	// File-level lock: serializes interleaved writers and charges the
	// handoff penalty when ownership changes.
	f.mu.Lock()
	if s.cfg.LockLatency > 0 && f.lastWriter != "" && f.lastWriter != writer {
		s.statsMu.Lock()
		s.metrics.LockWaits++
		s.statsMu.Unlock()
		s.tel.lockWaits.Inc()
		time.Sleep(s.cfg.LockLatency)
	}
	f.lastWriter = writer

	end := off + int64(n)
	if !s.cfg.Discard {
		if last := int((end - 1) / blockSize); last >= len(f.blocks) {
			f.blocks = append(f.blocks, make([]*block, last+1-len(f.blocks))...)
		}
		if st == nil {
			f.writeAt(off, p)
		} else {
			s.install(f, st)
		}
	}
	if end > f.size {
		f.size = end
	}
	f.mu.Unlock()

	s.serviceExtents(path, off, int64(n))

	s.statsMu.Lock()
	s.metrics.BytesWritten += int64(n)
	s.metrics.WriteOps++
	s.statsMu.Unlock()
	s.tel.writeOps.Inc()
	s.tel.bytesWritten.Add(int64(n))
	s.tel.writeBytesHist.Observe(float64(n))
	return n, nil
}

// install puts st's blocks in f: a whole one replaces the file's, which is
// recycled unless a lease holds it, and a partial one is copied. The caller
// holds f.mu and has grown the table.
func (s *Store) install(f *file, st *Stage) {
	off := st.Offset
	for i, seg := range st.Segs {
		if len(seg) < blockSize {
			f.writeAt(off, seg)
		} else {
			old := f.blocks[off/blockSize]
			f.blocks[off/blockSize], st.blocks[i] = st.blocks[i], nil
			if old != nil && old.lent.Load() == 0 {
				free.Put(old)
			}
		}
		off += int64(len(seg))
	}
}

// Stage is fresh blocks a write's payload is put in before Install writes
// it. Stages are pooled: touch neither it nor its segments after Release.
type Stage struct {
	// Path and Offset are where the write goes; Segs are for its bytes, in
	// order, one segment per block the range touches.
	Path   string
	Offset int64
	Segs   [][]byte
	n      int
	blocks []*block // nil where Install gave the file the block
	store  *Store
}

var stages = sync.Pool{New: func() any { return new(Stage) }}

// Stage hands out fresh blocks for a write of n bytes at off to path, or
// an error when the range is out of bounds (see MaxFileSize).
func (s *Store) Stage(path string, off int64, n int) (*Stage, error) {
	if err := checkRange(off, n); err != nil {
		return nil, err
	}
	st := stages.Get().(*Stage)
	st.Path, st.Offset, st.n, st.store = path, off, n, s
	s.leases.Add(1)
	for n > 0 {
		// A partial head or tail is copied out at Install, so it fills its
		// block from the start: small writes reuse the same cache lines.
		k := min(n, blockSize-int(off%blockSize))
		b := free.Get().(*block)
		st.blocks = append(st.blocks, b)
		st.Segs = append(st.Segs, b.b[:k])
		n -= k
		off += int64(k)
	}
	return st, nil
}

// Len returns the number of bytes staged.
func (st *Stage) Len() int { return st.n }

// Release hands back the blocks the file did not take; call it exactly
// once, installed or not.
func (st *Stage) Release() {
	for _, b := range st.blocks {
		if b != nil {
			free.Put(b)
		}
	}
	st.store.leases.Add(-1)
	clear(st.Segs)
	clear(st.blocks)
	st.Segs, st.blocks, st.store = st.Segs[:0], st.blocks[:0], nil
	stages.Put(st)
}

// Read implements FileSystem: a lease, copied out and released.
func (s *Store) Read(path string, off int64, p []byte) (int, error) {
	l, err := s.ReadLease(path, off, len(p))
	if l == nil {
		return 0, err
	}
	n := 0
	for _, seg := range l.Segs {
		n += copy(p[n:], seg)
	}
	l.Release()
	return n, err
}

// Lease is the bytes one ReadLease read, lent from the store's blocks.
// Leases are pooled: touch neither it nor its segments after Release.
type Lease struct {
	// Segs are the bytes read, in order, read-only and unchanged until
	// Release whatever is written to the file meanwhile.
	Segs  [][]byte
	held  []*block
	store *Store
}

var leases = sync.Pool{New: func() any { return new(Lease) }}

// Release hands the blocks back to the store; call it exactly once.
func (l *Lease) Release() {
	for _, b := range l.held {
		b.lent.Add(-1)
	}
	l.store.leases.Add(-1)
	clear(l.Segs)
	clear(l.held)
	l.Segs, l.held, l.store = l.Segs[:0], l.held[:0], nil
	leases.Put(l)
}

// ReadLease reads up to n bytes from off and lends them. A read that
// reaches the end of the file is short, with ErrShortRead; a missing file
// or a negative offset returns no lease.
func (s *Store) ReadLease(path string, off int64, n int) (*Lease, error) {
	f, err := s.lookup(path)
	if err != nil {
		return nil, err
	}
	if off < 0 {
		return nil, fmt.Errorf("pfs: negative offset %d", off)
	}
	l := leases.Get().(*Lease)
	l.store = s
	s.leases.Add(1)
	f.mu.Lock()
	k := 0
	if off < f.size {
		k = int(min(int64(n), f.size-off))
		f.lend(l, off, k)
	}
	f.mu.Unlock()

	if k > 0 {
		s.serviceExtents(path, off, int64(k))
	}
	s.statsMu.Lock()
	s.metrics.BytesRead += int64(k)
	s.metrics.ReadOps++
	s.statsMu.Unlock()
	s.tel.readOps.Inc()
	s.tel.bytesRead.Add(int64(k))
	s.tel.readBytesHist.Observe(float64(k))
	if k < n {
		return l, ErrShortRead
	}
	return l, nil
}

// Leases returns the number of read leases and stages not yet released.
func (s *Store) Leases() int64 { return s.leases.Load() }

// Stat implements FileSystem.
func (s *Store) Stat(path string) (FileInfo, error) {
	s.meta()
	f, err := s.lookup(path)
	if err != nil {
		return FileInfo{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return FileInfo{Path: path, Size: f.size}, nil
}

// Remove implements FileSystem.
func (s *Store) Remove(path string) error {
	s.meta()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[path]; !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	delete(s.files, path)
	for _, o := range s.osts {
		o.mu.Lock()
		delete(o.lastPos, path)
		o.mu.Unlock()
	}
	return nil
}

// Fsync implements FileSystem. Data is always durable in this model, so it
// only validates existence.
func (s *Store) Fsync(path string) error {
	_, err := s.lookup(path)
	return err
}

// List returns all paths in lexical order (test/diagnostic helper).
func (s *Store) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.files))
	for p := range s.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Metrics returns a snapshot of the store counters.
func (s *Store) Metrics() Metrics {
	s.statsMu.Lock()
	m := s.metrics
	s.statsMu.Unlock()
	m.PerOSTBytes = make([]int64, len(s.osts))
	for i, o := range s.osts {
		o.mu.Lock()
		m.PerOSTBytes[i] = o.bytes
		m.Seeks += o.seeks
		o.mu.Unlock()
	}
	return m
}

func (s *Store) meta() {
	s.statsMu.Lock()
	s.metrics.MetaOps++
	s.statsMu.Unlock()
	s.tel.metaOps.Inc()
}

// serviceExtents charges each stripe extent of [off, off+n) to its OST:
// serial per-OST service with optional seek latency and rate limiting.
// Like Lustre, each file's stripes start at a different OST (derived from
// the path) so small files spread across the targets.
func (s *Store) serviceExtents(path string, off, n int64) {
	stripe := s.cfg.StripeSize
	base := startOST(path, len(s.osts))
	for n > 0 {
		idx := off / stripe
		extent := stripe - off%stripe
		if extent > n {
			extent = n
		}
		o := s.osts[(base+int(idx%int64(len(s.osts))))%len(s.osts)]
		if !o.service(s.cfg, path, off, extent) {
			s.tel.seeks.Inc()
		}
		off += extent
		n -= extent
	}
}

// startOST picks a file's first OST from its path (FNV-1a).
func startOST(path string, osts int) int {
	h := uint64(1469598103934665603)
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= 1099511628211
	}
	return int(h % uint64(osts))
}

// service charges one extent to the OST and reports whether the access
// was sequential (callers count seeks on false).
func (o *ost) service(cfg Config, path string, off, n int64) bool {
	o.mu.Lock()
	sequential := o.lastPos[path] == off
	o.lastPos[path] = off + n
	o.bytes += n
	if !sequential {
		o.seeks++
	}
	var delay time.Duration
	if !sequential && cfg.SeekLatency > 0 {
		delay += cfg.SeekLatency
	}
	if cfg.OSTRate > 0 {
		delay += units.TimeToTransfer(n, cfg.OSTRate)
	}
	if delay > 0 {
		// Sleeping while holding the OST lock is the contention model:
		// an OST services one extent at a time.
		time.Sleep(delay)
	}
	o.mu.Unlock()
	return sequential
}
