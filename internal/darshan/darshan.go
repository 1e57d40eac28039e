// Package darshan provides the lightweight I/O characterization layer the
// paper relies on for feeding MCKP (§3.1): instead of profiling every
// application at every forwarding configuration, transparently collected
// I/O counters identify the application's base access pattern (file
// approach, spatiality, request sizes, process count, volume), from which
// the performance model estimates the full bandwidth-vs-I/O-node curve.
//
// The Tracer wraps any pfs.FileSystem and records Darshan-like counters;
// Report distills them; ExtractPattern and EstimateCurve turn them into
// arbitration inputs.
package darshan

import (
	"sort"
	"sync"

	"repro/internal/pattern"
	"repro/internal/perfmodel"
	"repro/internal/pfs"
)

// FileCounters are per-file statistics, after Darshan's POSIX module.
type FileCounters struct {
	Path        string
	WriteOps    int64
	ReadOps     int64
	BytesWriten int64
	BytesRead   int64
	// ConsecWrites counts writes that continue exactly where an earlier
	// write ended (Darshan's CONSEC_WRITES). Because many ranks write one
	// shared file through a single tracer, consecutiveness is tracked
	// against the set of active stream ends, so N interleaved sequential
	// streams still register as consecutive while strided access does
	// not.
	ConsecWrites int64
	// SizeHistogram counts requests per power-of-two size bucket
	// (bucket i covers [2^i, 2^(i+1))).
	SizeHistogram [48]int64
	streamEnds    map[streamKey]struct{}
}

// streamKey identifies a write stream: Darshan's counters are per process,
// so consecutiveness is tracked per (rank, end offset). Anonymous I/O
// (issued through the plain FileSystem interface) uses rank -1 and shares
// one stream space per file.
type streamKey struct {
	rank int
	off  int64
}

// maxStreamEnds bounds the per-file stream-end set; beyond it the oldest
// information is dropped (strided workloads would otherwise grow one entry
// per request).
const maxStreamEnds = 4096

// Tracer wraps a FileSystem and records counters. Safe for concurrent use.
type Tracer struct {
	inner pfs.FileSystem

	mu    sync.Mutex
	files map[string]*FileCounters
}

var _ pfs.FileSystem = (*Tracer)(nil)

// NewTracer wraps fs.
func NewTracer(fs pfs.FileSystem) *Tracer {
	return &Tracer{inner: fs, files: make(map[string]*FileCounters)}
}

func (t *Tracer) counters(path string) *FileCounters {
	fc, ok := t.files[path]
	if !ok {
		fc = &FileCounters{Path: path, streamEnds: make(map[streamKey]struct{})}
		t.files[path] = fc
	}
	return fc
}

func bucket(n int64) int {
	b := 0
	for n > 1 && b < 47 {
		n >>= 1
		b++
	}
	return b
}

// Create implements pfs.FileSystem.
func (t *Tracer) Create(path string) error { return t.inner.Create(path) }

// Write implements pfs.FileSystem (anonymous rank).
func (t *Tracer) Write(path string, off int64, p []byte) (int, error) {
	return t.writeRanked(-1, path, off, p)
}

func (t *Tracer) writeRanked(rank int, path string, off int64, p []byte) (int, error) {
	n, err := t.inner.Write(path, off, p)
	t.mu.Lock()
	fc := t.counters(path)
	fc.WriteOps++
	fc.BytesWriten += int64(n)
	key := streamKey{rank: rank, off: off}
	if _, ok := fc.streamEnds[key]; ok {
		fc.ConsecWrites++
		delete(fc.streamEnds, key)
	} else if len(fc.streamEnds) >= maxStreamEnds {
		// Evict one arbitrary entry to stay bounded.
		for k := range fc.streamEnds {
			delete(fc.streamEnds, k)
			break
		}
	}
	fc.streamEnds[streamKey{rank: rank, off: off + int64(n)}] = struct{}{}
	fc.SizeHistogram[bucket(int64(len(p)))]++
	t.mu.Unlock()
	return n, err
}

// ForRank returns a view of the tracer that attributes writes to one rank,
// the way Darshan's per-process counters do. Use it when the caller knows
// its rank structure (e.g. FORGE profile replay); plain Tracer calls share
// an anonymous stream space, which misclassifies interleaved strided
// writers whose blocks tile the file contiguously.
func (t *Tracer) ForRank(rank int) pfs.FileSystem {
	return &rankedView{t: t, rank: rank}
}

type rankedView struct {
	t    *Tracer
	rank int
}

var _ pfs.FileSystem = (*rankedView)(nil)

func (v *rankedView) Create(path string) error { return v.t.Create(path) }
func (v *rankedView) Write(path string, off int64, p []byte) (int, error) {
	return v.t.writeRanked(v.rank, path, off, p)
}
func (v *rankedView) Read(path string, off int64, p []byte) (int, error) {
	return v.t.Read(path, off, p)
}
func (v *rankedView) Stat(path string) (pfs.FileInfo, error) { return v.t.Stat(path) }
func (v *rankedView) Remove(path string) error               { return v.t.Remove(path) }
func (v *rankedView) Fsync(path string) error                { return v.t.Fsync(path) }

// Read implements pfs.FileSystem.
func (t *Tracer) Read(path string, off int64, p []byte) (int, error) {
	n, err := t.inner.Read(path, off, p)
	t.mu.Lock()
	fc := t.counters(path)
	fc.ReadOps++
	fc.BytesRead += int64(n)
	t.mu.Unlock()
	return n, err
}

// Stat implements pfs.FileSystem.
func (t *Tracer) Stat(path string) (pfs.FileInfo, error) { return t.inner.Stat(path) }

// Remove implements pfs.FileSystem.
func (t *Tracer) Remove(path string) error { return t.inner.Remove(path) }

// Fsync implements pfs.FileSystem.
func (t *Tracer) Fsync(path string) error { return t.inner.Fsync(path) }

// Report is the aggregated characterization of a traced execution.
type Report struct {
	Files         int
	WriteOps      int64
	ReadOps       int64
	BytesWritten  int64
	BytesRead     int64
	ConsecWrites  int64
	MedianReqSize int64

	perFile []*FileCounters
}

// Report snapshots and aggregates the counters.
func (t *Tracer) Report() Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := Report{Files: len(t.files)}
	var hist [48]int64
	var totalReqs int64
	for _, fc := range t.files {
		cp := *fc
		cp.streamEnds = nil // internal state, not part of the report
		r.perFile = append(r.perFile, &cp)
		r.WriteOps += fc.WriteOps
		r.ReadOps += fc.ReadOps
		r.BytesWritten += fc.BytesWriten
		r.BytesRead += fc.BytesRead
		r.ConsecWrites += fc.ConsecWrites
		for i, c := range fc.SizeHistogram {
			hist[i] += c
			totalReqs += c
		}
	}
	sort.Slice(r.perFile, func(i, j int) bool { return r.perFile[i].Path < r.perFile[j].Path })
	// Median request size from the histogram (bucket midpoint).
	var cum int64
	for i, c := range hist {
		cum += c
		if totalReqs > 0 && cum*2 >= totalReqs {
			r.MedianReqSize = int64(1) << uint(i)
			break
		}
	}
	return r
}

// PerFile returns the per-file counters in path order.
func (r Report) PerFile() []*FileCounters { return r.perFile }

// ExtractPattern infers the application's base access pattern from the
// report, given the job geometry (which the scheduler knows):
//
//   - layout: roughly one written file per process → file-per-process;
//     otherwise shared;
//   - spatiality: if most writes continue where the previous one ended,
//     the per-process streams are contiguous; a low consecutive fraction
//     on a shared file indicates strided/interleaved access;
//   - request size: the median observed size.
func (r Report) ExtractPattern(nodes, processes int) pattern.Pattern {
	p := pattern.Pattern{
		Nodes:       nodes,
		ProcsPerNod: max(1, processes/max(1, nodes)),
		Operation:   pattern.Write,
		RequestSize: max(1, r.MedianReqSize),
	}
	writtenFiles := 0
	for _, fc := range r.perFile {
		if fc.WriteOps > 0 {
			writtenFiles++
		}
	}
	if processes > 1 && writtenFiles >= processes/2 {
		p.Layout = pattern.FilePerProcess
		p.Spatiality = pattern.Contiguous
		return p
	}
	p.Layout = pattern.SharedFile
	// Consecutive fraction of writes ≥ ½ → contiguous per-file stream.
	if r.WriteOps > 0 && r.ConsecWrites*2 >= r.WriteOps {
		p.Spatiality = pattern.Contiguous
	} else {
		p.Spatiality = pattern.Strided1D
	}
	return p
}

// EstimateCurve predicts the application's bandwidth curve from its
// extracted pattern using the performance model — the paper's shortcut
// around per-configuration profiling runs.
func EstimateCurve(p pattern.Pattern, m *perfmodel.Model, maxIONs int, allowZero bool) perfmodel.Curve {
	if m == nil {
		m = perfmodel.Default()
	}
	return m.CurveFor(p, maxIONs, allowZero)
}
