// Package journal is the arbiter's write-ahead log: a CRC-protected,
// length-prefixed record stream that makes the control plane's state —
// pool membership, health marks, drains, running jobs, and published
// allocation epochs — survive a crash of the process that owns it.
//
// The data plane never reads the journal. Its only consumer is
// arbiter.Recover, which replays the records into a State, reconciles
// that state against live reality, and republishes under a raised fence
// epoch so clients still holding the pre-crash mapping cannot land bytes
// on an I/O node that was reassigned during the blackout.
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
// needs. Appends after recovery go to a fresh segment, so a torn tail is
// superseded rather than overwritten.
//
// What is on disk: a node-condition change is one (kind, addr) record —
// the eight mark/drain kinds below, one per nodestate.Event, numbered as
// they always were — and State.Apply folds it through nodestate.Apply,
// the same function the live arbiter uses, so replay cannot drift from
// the arbiter. A snapshot carries the per-node conditions as one "nodes"
// object (address → nodestate.State bits, healthy nodes omitted).
// Snapshots written before that — four sorted arrays "down",
// "overloaded", "draining", "degraded" — are still read, never written.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
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

// State is the reconstructed control-plane state: the fold of a snapshot
// plus every record after it. Pool is a sorted slice so the JSON is
// stable and diffable; Nodes holds only the nodes that are not healthy.
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
			s.setNode(addr, s.Nodes[addr]|bit)
		}
	}
	return nil
}

// setNode stores addr's condition bits; a healthy node is not stored.
func (s *State) setNode(addr string, st nodestate.State) {
	if st == 0 {
		delete(s.Nodes, addr)
		return
	}
	if s.Nodes == nil {
		s.Nodes = map[string]nodestate.State{}
	}
	s.Nodes[addr] = st
}

// Clone returns a deep copy.
func (s *State) Clone() *State {
	if s == nil {
		return nil
	}
	c := &State{
		Pool:    append([]string(nil), s.Pool...),
		Nodes:   maps.Clone(s.Nodes),
		Running: make([]App, len(s.Running)),
		Epoch:   s.Epoch,
	}
	for i, a := range s.Running {
		a.Curve = append([]CurvePoint(nil), a.Curve...)
		c.Running[i] = a
	}
	if s.Assign != nil {
		c.Assign = make(map[string][]string, len(s.Assign))
		for k, v := range s.Assign {
			c.Assign[k] = append([]string(nil), v...)
		}
	}
	return c
}

// dropAddr removes addr from set in place.
func dropAddr(set []string, addr string) []string {
	return slices.DeleteFunc(set, func(a string) bool { return a == addr })
}

// Apply folds one record into the state. Node-condition records go
// through nodestate.Apply — the function the live arbiter itself uses —
// so replaying a journal reproduces the arbiter's pre-crash view;
// reconciliation against live reality is the caller's job, not Apply's.
func (s *State) Apply(r Record) {
	switch r.Kind {
	case KindSnapshot:
		if r.State != nil {
			*s = *r.State.Clone()
		}
	case KindJobStarted:
		if r.App == nil {
			return
		}
		for i := range s.Running {
			if s.Running[i].ID == r.App.ID {
				s.Running[i] = *r.App
				return
			}
		}
		s.Running = append(s.Running, *r.App)
	case KindJobFinished:
		for i := range s.Running {
			if s.Running[i].ID == r.Job {
				s.Running = append(s.Running[:i], s.Running[i+1:]...)
				break
			}
		}
		delete(s.Assign, r.Job)
	case KindPublish:
		s.Epoch = r.Epoch
		s.Assign = make(map[string][]string, len(r.Assign))
		for k, v := range r.Assign {
			s.Assign[k] = append([]string(nil), v...)
		}
	case KindAddION:
		if !slices.Contains(s.Pool, r.Addr) {
			s.Pool = append(s.Pool, r.Addr)
			sort.Strings(s.Pool)
		}
	case KindRemoveION:
		s.Pool = dropAddr(s.Pool, r.Addr)
		delete(s.Nodes, r.Addr)
	default:
		i := slices.Index(nodeKinds[:], r.Kind)
		if i < 0 {
			return // not a node event: a kind this version does not know
		}
		ev := nodestate.Event(i)
		// A refused event (DrainStart on a down node) is never journaled;
		// should one turn up, the state it returns is the state unchanged.
		next, _, _ := s.Nodes[r.Addr].Apply(ev)
		s.setNode(r.Addr, next)
		if ev == nodestate.Fail {
			for job, addrs := range s.Assign {
				s.Assign[job] = dropAddr(addrs, r.Addr)
			}
		}
	}
}

// Options tunes a journal. The zero value is usable.
type Options struct {
	// SnapshotEvery is the append count between automatic compaction
	// points as reported by SnapshotDue. <=0 selects 256.
	SnapshotEvery int
	// SegmentRecords caps records per segment before rotation. <=0
	// selects 1024.
	SegmentRecords int
	// NoSync skips the per-append fsync. Only for tests and benchmarks
	// that do not care about durability.
	NoSync bool
	// Telemetry, when non-nil, registers the journal_* counter family.
	Telemetry *telemetry.Registry
}

const (
	defaultSnapshotEvery  = 256
	defaultSegmentRecords = 1024
	// maxRecord bounds a single record payload. A corrupt length prefix
	// must not ask replay to allocate gigabytes.
	maxRecord = 8 << 20
	headerLen = 8 // uint32 length + uint32 crc32c
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Journal is an open write-ahead log. Not safe for concurrent use; the
// arbiter serialises appends under its own mutex.
type Journal struct {
	dir  string
	opts Options

	seg       *os.File // active segment
	segPath   string
	segCount  int    // records in the active segment
	nextLSN   uint64 // LSN the next Append assigns
	sinceSnap int    // appends since the last snapshot

	recovered *State   // state replayed at Open (never nil)
	replayed  []Record // records after the snapshot, in LSN order

	tel struct {
		appends     *telemetry.Counter
		appendErrs  *telemetry.Counter
		fsyncs      *telemetry.Counter
		compactions *telemetry.Counter
		replays     *telemetry.Counter
	}
}

// Open replays whatever the directory holds (creating it if missing) and
// prepares a fresh segment for appends. Corrupt or torn tails are
// tolerated: replay keeps everything up to the last valid record and new
// appends supersede the rest. The replayed state is available via
// RecoveredState.
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
	if opts.SegmentRecords <= 0 {
		opts.SegmentRecords = defaultSegmentRecords
	}
	j := &Journal{dir: dir, opts: opts}
	if reg := opts.Telemetry; reg != nil {
		j.tel.appends = reg.Counter("journal_appends_total")
		j.tel.appendErrs = reg.Counter("journal_append_errors_total")
		j.tel.fsyncs = reg.Counter("journal_fsyncs_total")
		j.tel.compactions = reg.Counter("journal_snapshot_compactions_total")
		j.tel.replays = reg.Counter("journal_replay_records_total")
	}

	st, recs, last, err := replayDir(dir)
	if err != nil {
		return nil, err
	}
	j.recovered, j.replayed = st, recs
	if j.tel.replays != nil {
		j.tel.replays.Add(int64(len(recs)))
	}
	j.nextLSN = last + 1
	if err := j.rotate(); err != nil {
		return nil, err
	}
	return j, nil
}

// RecoveredState returns the state replayed at Open (a deep copy) and
// the post-snapshot records it was folded from. An empty directory
// yields an empty state and no records.
func (j *Journal) RecoveredState() (*State, []Record) {
	return j.recovered.Clone(), append([]Record(nil), j.replayed...)
}

// rotate closes the active segment (if any) and opens a fresh one named
// after the next LSN.
func (j *Journal) rotate() error {
	if j.seg != nil {
		j.seg.Close()
		j.seg = nil
	}
	path := filepath.Join(j.dir, fmt.Sprintf("seg-%016d.wal", j.nextLSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	j.seg, j.segPath, j.segCount = f, path, 0
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
		j.countErr()
		return 0, err
	}
	if _, err := j.seg.Write(frame); err != nil {
		j.countErr()
		return 0, fmt.Errorf("journal: append: %w", err)
	}
	if !j.opts.NoSync {
		if err := j.seg.Sync(); err != nil {
			j.countErr()
			return 0, fmt.Errorf("journal: fsync: %w", err)
		}
		if j.tel.fsyncs != nil {
			j.tel.fsyncs.Inc()
		}
	}
	if j.tel.appends != nil {
		j.tel.appends.Inc()
	}
	j.nextLSN++
	j.segCount++
	j.sinceSnap++
	if j.segCount >= j.opts.SegmentRecords {
		if err := j.rotate(); err != nil {
			j.countErr()
			return r.LSN, err
		}
	}
	return r.LSN, nil
}

func (j *Journal) countErr() {
	if j.tel.appendErrs != nil {
		j.tel.appendErrs.Inc()
	}
}

// SnapshotDue reports whether enough records accumulated since the last
// snapshot that the owner should hand one over.
func (j *Journal) SnapshotDue() bool {
	return j.sinceSnap >= j.opts.SnapshotEvery
}

// Snapshot writes a full-state compaction point and deletes every
// segment and snapshot it supersedes. The snapshot covers all records
// with LSN < nextLSN; appends continue in a fresh segment so the
// snapshot file is never the append target.
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
	if err := os.WriteFile(tmp, frame, 0o644); err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if !j.opts.NoSync {
		if f, err := os.OpenFile(tmp, os.O_RDWR, 0); err == nil {
			f.Sync()
			f.Close()
			if j.tel.fsyncs != nil {
				j.tel.fsyncs.Inc()
			}
		}
	}
	if err := os.Rename(tmp, path); err != nil {
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
		name := de.Name()
		full := filepath.Join(j.dir, name)
		if full == j.segPath || full == path {
			continue
		}
		switch {
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal"):
			if first, ok := fileLSN(name, "seg-", ".wal"); ok && first < lsn {
				os.Remove(full)
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if slsn, ok := fileLSN(name, "snap-", ".snap"); ok && slsn < lsn {
				os.Remove(full)
			}
		}
	}
	j.sinceSnap = 0
	if j.tel.compactions != nil {
		j.tel.compactions.Inc()
	}
	return nil
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

func fileLSN(name, prefix, suffix string) (uint64, bool) {
	s := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	n, err := strconv.ParseUint(s, 10, 64)
	return n, err == nil
}

// replayDir loads the newest valid snapshot, folds every later record
// into it, and reports the highest LSN seen.
func replayDir(dir string) (*State, []Record, uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("journal: %w", err)
	}
	var segs, snaps []string
	for _, de := range entries {
		name := de.Name()
		switch {
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal"):
			segs = append(segs, name)
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			snaps = append(snaps, name)
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
			st = recs[0].State.Clone()
			base = recs[0].LSN
			break
		}
	}

	var applied []Record
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
			st.Apply(r)
			applied = append(applied, r)
			last = r.LSN
		}
	}
	return st, applied, last, nil
}

// Replay reads a journal directory without opening it for writing:
// the reconstructed state, the post-snapshot records, and the highest
// LSN. Safe to call on a directory another process has open, and the
// tool tests and the drain-ledger oracle use it exactly that way.
func Replay(dir string) (*State, []Record, uint64, error) {
	return replayDir(dir)
}
