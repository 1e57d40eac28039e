// Package journal is the arbiter's write-ahead log: a CRC-protected,
// length-prefixed record stream that makes the control plane's state —
// pool membership, health marks, drains, running jobs, and published
// allocation epochs — survive a crash of the process that owns it.
//
// The journal owns the format, not the meaning: it frames, numbers,
// stores, compacts and reads back records, and never interprets them.
// The data plane never reads it. Its only consumer is arbiter.Recover,
// which loads the newest snapshot, replays the records after it through
// the live arbiter's own mutators, reconciles that state against live
// reality, and republishes under a raised fence epoch so clients still
// holding the pre-crash mapping cannot land bytes on an I/O node that
// was reassigned during the blackout.
//
// On-disk layout (all files live in one directory):
//
//	seg-<firstLSN>.wal    length-prefixed records, appended and fsynced
//	snap-<lastLSN>.snap   one full State record, written by Snapshot
//
// Each record is framed as
//
//	uint32 length | uint32 crc32c(payload) | payload (JSON)
//
// big-endian, CRC over the payload bytes only. Replay accepts records in
// LSN order and stops a segment at the first frame that is torn,
// truncated, oversized, bit-flipped, or out of order — everything before
// the bad frame is kept, which is exactly the contract a crashed append
// needs. Appends after recovery, and after a failed write or fsync, go
// to a fresh segment, so a torn tail is superseded rather than
// overwritten; an LSN that reached a write is never handed out again.
//
// What is on disk: a node-condition change is one (kind, addr) record —
// the eight mark/drain kinds below, one per nodestate.Event, numbered as
// they always were. A snapshot carries the per-node conditions as one
// "nodes" object (address → nodestate.State bits, healthy nodes
// omitted). Snapshots written before that — four sorted arrays "down",
// "overloaded", "draining", "degraded" — are still read, never written.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/nodestate"
	"repro/internal/telemetry"
)

// Kind discriminates journal records. Values are part of the on-disk
// format: append only, never renumber.
type Kind uint8

const (
	// KindSnapshot carries a full State and supersedes everything before
	// its LSN. Snapshots live in their own files, not in segments, but
	// share the record framing.
	KindSnapshot Kind = iota + 1
	KindJobStarted
	KindJobFinished
	KindPublish
	KindMarkDown
	KindMarkUp
	KindMarkOverloaded
	KindMarkRecovered
	KindDrainStart
	KindDrainAbort
	KindAddION
	KindRemoveION
	// KindMarkDegraded/KindMarkRestored record the gray-failure
	// quarantine plane. Appended after the original kinds: values are
	// on-disk, so new kinds only ever grow the tail of this block.
	KindMarkDegraded
	KindMarkRestored
)

var kindNames = map[Kind]string{
	KindSnapshot:       "snapshot",
	KindJobStarted:     "job-started",
	KindJobFinished:    "job-finished",
	KindPublish:        "publish",
	KindMarkDown:       "mark-down",
	KindMarkUp:         "mark-up",
	KindMarkOverloaded: "mark-overloaded",
	KindMarkRecovered:  "mark-recovered",
	KindDrainStart:     "drain-start",
	KindDrainAbort:     "drain-abort",
	KindAddION:         "add-ion",
	KindRemoveION:      "remove-ion",
	KindMarkDegraded:   "mark-degraded",
	KindMarkRestored:   "mark-restored",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// nodeKinds is the record kind that carries each node event; the kinds
// keep the numbers they were given when each plane landed.
var nodeKinds = [nodestate.NumEvents]Kind{
	nodestate.Fail:       KindMarkDown,
	nodestate.Rise:       KindMarkUp,
	nodestate.DrainStart: KindDrainStart,
	nodestate.DrainAbort: KindDrainAbort,
	nodestate.Slow:       KindMarkDegraded,
	nodestate.Restore:    KindMarkRestored,
	nodestate.Hot:        KindMarkOverloaded,
	nodestate.Cool:       KindMarkRecovered,
}

// NodeEvent builds the record that journals event ev on the node at addr.
func NodeEvent(addr string, ev nodestate.Event) Record {
	return Record{Kind: nodeKinds[ev], Addr: addr}
}

// Event is the inverse of NodeEvent: the node event a record of kind k
// carries, or false when k is not a node-event kind.
func (k Kind) Event() (nodestate.Event, bool) {
	i := slices.Index(nodeKinds[:], k)
	return nodestate.Event(i), i >= 0
}

// CurvePoint is one sampled point of an application's performance curve,
// flattened for the journal (perfmodel keeps its points behind an opaque
// type; the arbiter converts on the way in and out).
type CurvePoint struct {
	IONs int     `json:"ions"`
	MBps float64 `json:"mbps"`
}

// App is the journal's view of a running application: everything the
// arbiter needs to re-solve with the same inputs it had before the
// crash, including the history-informed curve that WithHistory attached
// at submission time.
type App struct {
	ID         string       `json:"id"`
	Nodes      int          `json:"nodes,omitempty"`
	Processes  int          `json:"procs,omitempty"`
	WriteBytes int64        `json:"wbytes,omitempty"`
	ReadBytes  int64        `json:"rbytes,omitempty"`
	Weight     float64      `json:"weight,omitempty"`
	Curve      []CurvePoint `json:"curve,omitempty"`
}

// Record is one journal entry. LSN is assigned by Append and is strictly
// monotonic across segments; replay uses it to detect mixed or resurrected
// tails.
type Record struct {
	LSN    uint64              `json:"lsn"`
	Kind   Kind                `json:"kind"`
	Addr   string              `json:"addr,omitempty"`
	Job    string              `json:"job,omitempty"`
	App    *App                `json:"app,omitempty"`
	Epoch  uint64              `json:"epoch,omitempty"`
	Assign map[string][]string `json:"assign,omitempty"`
	State  *State              `json:"state,omitempty"`
}

// State is the control-plane state a snapshot carries. Pool is a sorted
// slice so the JSON is stable and diffable; Nodes holds only the nodes
// that are not healthy.
type State struct {
	Pool    []string                   `json:"pool,omitempty"`
	Nodes   map[string]nodestate.State `json:"nodes,omitempty"`
	Running []App                      `json:"running,omitempty"`
	Assign  map[string][]string        `json:"assign,omitempty"`
	Epoch   uint64                     `json:"epoch,omitempty"`
}

// UnmarshalJSON also accepts the snapshot layout from before Nodes
// existed — one sorted address array per condition — and folds it into
// Nodes. Decode only: State is always written in the current layout.
func (s *State) UnmarshalJSON(b []byte) error {
	type current State // same fields, no methods: no recursion
	var in struct {
		current
		Down       []string `json:"down"`
		Draining   []string `json:"draining"`
		Degraded   []string `json:"degraded"`
		Overloaded []string `json:"overloaded"`
	}
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*s = State(in.current)
	for bit, addrs := range map[nodestate.State][]string{
		nodestate.Down: in.Down, nodestate.Draining: in.Draining,
		nodestate.Degraded: in.Degraded, nodestate.Overloaded: in.Overloaded,
	} {
		for _, addr := range addrs {
			if s.Nodes == nil {
				s.Nodes = map[string]nodestate.State{}
			}
			s.Nodes[addr] |= bit
		}
	}
	return nil
}

// Options tunes a journal. The zero value is usable.
type Options struct {
	// SnapshotEvery is the append count between automatic compaction
	// points as reported by SnapshotDue. <=0 selects 256.
	SnapshotEvery int
	// NoSync skips the per-append fsync. Only for tests and benchmarks
	// that do not care about durability.
	NoSync bool
	// Telemetry, when non-nil, registers the journal_* counter family.
	Telemetry *telemetry.Registry

	// open opens every file the journal writes or fsyncs: segments and
	// snapshot temp files with createFlags, the directory with
	// os.O_RDONLY. nil is the operating system's; a test injects faults.
	open func(path string, flag int) (file, error)
}

const (
	defaultSnapshotEvery = 256
	// maxRecord bounds a single record payload. A corrupt length prefix
	// must not ask replay to allocate gigabytes.
	maxRecord = 8 << 20
	headerLen = 8 // uint32 length + uint32 crc32c
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// file is what the journal writes and fsyncs through (Options.open).
type file interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

const createFlags = os.O_CREATE | os.O_WRONLY | os.O_TRUNC

// Journal is an open write-ahead log. Not safe for concurrent use; the
// arbiter serialises appends under its own mutex.
type Journal struct {
	dir  string
	opts Options

	seg       file   // active segment
	nextLSN   uint64 // LSN the next Append assigns
	sinceSnap int    // appends since the last snapshot

	snap *State   // newest valid snapshot at Open (never nil)
	tail []Record // records after it, in LSN order

	tel struct {
		appends     *telemetry.Counter
		appendErrs  *telemetry.Counter
		fsyncs      *telemetry.Counter
		compactions *telemetry.Counter
	}
}

// Open reads whatever the directory holds (creating it if missing) and
// prepares a fresh segment for appends. Corrupt or torn tails are
// tolerated: replay keeps everything up to the last valid record and new
// appends supersede the rest. What was read is available via Replayed.
func Open(dir string, opts Options) (*Journal, error) {
	if dir == "" {
		return nil, errors.New("journal: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	if opts.open == nil {
		opts.open = func(path string, flag int) (file, error) { return os.OpenFile(path, flag, 0o644) }
	}
	j := &Journal{dir: dir, opts: opts}
	reg := opts.Telemetry // counters from a nil registry are nil no-ops
	j.tel.appends = reg.Counter("journal_appends_total")
	j.tel.appendErrs = reg.Counter("journal_append_errors_total")
	j.tel.fsyncs = reg.Counter("journal_fsyncs_total")
	j.tel.compactions = reg.Counter("journal_snapshot_compactions_total")

	snap, tail, last, err := replayDir(dir)
	if err != nil {
		return nil, err
	}
	j.snap, j.tail = snap, tail
	reg.Counter("journal_replay_records_total").Add(int64(len(tail)))
	j.nextLSN = last + 1
	if err := j.rotate(); err != nil {
		return nil, err
	}
	return j, nil
}

// Replayed returns what Open read: the newest valid snapshot's state
// (empty when there is none) and the records after it, in LSN order.
// The journal does not fold them; arbiter.Recover does. Read-only: the
// journal hands out what it holds, not a copy.
func (j *Journal) Replayed() (*State, []Record) {
	return j.snap, j.tail
}

// rotate closes the active segment (if any) and opens a fresh one named
// after the next LSN.
func (j *Journal) rotate() error {
	if j.seg != nil {
		j.seg.Close()
		j.seg = nil
	}
	path := filepath.Join(j.dir, fmt.Sprintf("seg-%016d.wal", j.nextLSN))
	f, err := j.opts.open(path, createFlags)
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	j.seg = f
	return nil
}

// put writes frame to f and, unless NoSync, fsyncs it.
func (j *Journal) put(f file, frame []byte) error {
	if _, err := f.Write(frame); err != nil {
		return err
	}
	if j.opts.NoSync {
		return nil
	}
	if err := f.Sync(); err != nil {
		return err
	}
	j.tel.fsyncs.Inc()
	return nil
}

// Append assigns the record the next LSN, frames it, writes it to the
// active segment, and fsyncs. The assigned LSN is returned.
func (j *Journal) Append(r Record) (uint64, error) {
	if j.seg == nil {
		return 0, errors.New("journal: closed")
	}
	r.LSN = j.nextLSN
	frame, err := encodeRecord(r)
	if err != nil {
		j.tel.appendErrs.Inc()
		return 0, err
	}
	// A frame that reaches the segment spends its LSN, even if the write
	// or fsync fails: replay stops a segment at a repeated LSN, so reusing
	// it would hide every record after it.
	j.nextLSN++
	if err := j.put(j.seg, frame); err != nil {
		j.tel.appendErrs.Inc()
		// The segment may now end in a torn or unsynced frame: later
		// records go to a fresh one.
		return 0, errors.Join(fmt.Errorf("journal: append: %w", err), j.rotate())
	}
	j.tel.appends.Inc()
	j.sinceSnap++
	return r.LSN, nil
}

// SnapshotDue reports whether enough records accumulated since the last
// snapshot that the owner should hand one over.
func (j *Journal) SnapshotDue() bool {
	return j.sinceSnap >= j.opts.SnapshotEvery
}

// Snapshot writes a full-state compaction point and deletes every
// segment and snapshot it supersedes. The snapshot covers all records
// with LSN < nextLSN; appends continue in a fresh segment so the
// snapshot file is never the append target. Nothing is replaced before
// the snapshot is durable: a failed write, fsync or close returns before
// the rename, and a failed directory fsync before the deletions.
func (j *Journal) Snapshot(st State) error {
	if j.seg == nil {
		return errors.New("journal: closed")
	}
	lsn := j.nextLSN
	j.nextLSN++
	frame, err := encodeRecord(Record{LSN: lsn, Kind: KindSnapshot, State: &st})
	if err != nil {
		return err
	}
	path := filepath.Join(j.dir, fmt.Sprintf("snap-%016d.snap", lsn))
	tmp := path + ".tmp"
	f, err := j.opts.open(tmp, createFlags)
	if err == nil {
		err = j.put(f, frame)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, path)
		}
		if err != nil {
			os.Remove(tmp)
		}
	}
	if err == nil && !j.opts.NoSync {
		err = j.syncDir()
	}
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	// Everything below the snapshot LSN is superseded: old snapshots and
	// every non-active segment (the active segment is rotated first so it
	// can be reclaimed too).
	if err := j.rotate(); err != nil {
		return err
	}
	names, _ := os.ReadDir(j.dir)
	for _, de := range names {
		seg, isSeg := fileLSN(de.Name(), "seg-", ".wal")
		snap, isSnap := fileLSN(de.Name(), "snap-", ".snap")
		if isSeg && seg < lsn || isSnap && snap < lsn {
			os.Remove(filepath.Join(j.dir, de.Name()))
		}
	}
	j.sinceSnap = 0
	j.tel.compactions.Inc()
	return nil
}

// syncDir fsyncs the journal directory, making a rename durable.
func (j *Journal) syncDir() error {
	d, err := j.opts.open(j.dir, os.O_RDONLY)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Close closes the active segment. Records already appended stay durable;
// this mirrors a process exit, graceful or not.
func (j *Journal) Close() error {
	if j.seg == nil {
		return nil
	}
	err := j.seg.Close()
	j.seg = nil
	return err
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

func encodeRecord(r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("journal: encode: %w", err)
	}
	if len(payload) > maxRecord {
		return nil, fmt.Errorf("journal: record too large (%d bytes)", len(payload))
	}
	frame := make([]byte, headerLen+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[headerLen:], payload)
	return frame, nil
}

// decodeRecords walks one file's frames and returns every record that
// survives the length, CRC, JSON, and LSN-monotonicity gates, stopping
// at the first frame that does not. minLSN is the exclusive lower bound
// carried across files.
func decodeRecords(buf []byte, minLSN uint64) []Record {
	var out []Record
	last := minLSN
	for len(buf) >= headerLen {
		n := binary.BigEndian.Uint32(buf[0:4])
		if n == 0 || n > maxRecord || int(n) > len(buf)-headerLen {
			break // torn, truncated, or corrupt length
		}
		want := binary.BigEndian.Uint32(buf[4:8])
		payload := buf[headerLen : headerLen+int(n)]
		if crc32.Checksum(payload, castagnoli) != want {
			break // bit flip
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			break
		}
		if r.LSN <= last {
			break // resurrected or reordered tail (LSNs start at 1)
		}
		out = append(out, r)
		last = r.LSN
		buf = buf[headerLen+int(n):]
	}
	return out
}

// fileLSN parses the LSN out of a file named prefix + LSN + suffix.
func fileLSN(name, prefix, suffix string) (uint64, bool) {
	s, okPrefix := strings.CutPrefix(name, prefix)
	s, okSuffix := strings.CutSuffix(s, suffix)
	n, err := strconv.ParseUint(s, 10, 64)
	return n, okPrefix && okSuffix && err == nil
}

// replayDir loads the newest valid snapshot and every later record, in
// LSN order, and reports the highest LSN seen. It folds nothing.
func replayDir(dir string) (*State, []Record, uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("journal: %w", err)
	}
	var segs, snaps []string
	for _, de := range entries {
		if _, ok := fileLSN(de.Name(), "seg-", ".wal"); ok {
			segs = append(segs, de.Name())
		} else if _, ok := fileLSN(de.Name(), "snap-", ".snap"); ok {
			snaps = append(snaps, de.Name())
		}
	}
	sort.Strings(segs) // zero-padded LSN names sort chronologically
	sort.Strings(snaps)

	st := &State{}
	var base uint64
	// Newest parseable snapshot wins; a corrupt snapshot falls back to
	// the one before it (or to a full segment replay).
	for i := len(snaps) - 1; i >= 0; i-- {
		buf, err := os.ReadFile(filepath.Join(dir, snaps[i]))
		if err != nil {
			continue
		}
		recs := decodeRecords(buf, 0)
		if len(recs) == 1 && recs[0].Kind == KindSnapshot && recs[0].State != nil {
			st, base = recs[0].State, recs[0].LSN
			break
		}
	}

	var tail []Record
	last := base
	for _, name := range segs {
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		for _, r := range decodeRecords(buf, 0) {
			if r.LSN <= last {
				continue // superseded by the snapshot or an earlier segment
			}
			if r.Kind == KindSnapshot {
				continue // snapshots never live in segments; ignore defensively
			}
			tail = append(tail, r)
			last = r.LSN
		}
	}
	return st, tail, last, nil
}

// Replay reads a journal directory without opening it for writing: the
// newest valid snapshot's state (empty when there is none), the records
// after it, and the highest LSN. Safe to call on a directory another
// process has open, and the tool tests and the drain-ledger oracle use
// it exactly that way.
func Replay(dir string) (*State, []Record, uint64, error) {
	return replayDir(dir)
}
