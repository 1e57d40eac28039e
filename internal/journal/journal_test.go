package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/nodestate"
	"repro/internal/telemetry"
)

func mustAppend(t *testing.T, j *Journal, r Record) uint64 {
	t.Helper()
	lsn, err := j.Append(r)
	if err != nil {
		t.Fatalf("append %v: %v", r.Kind, err)
	}
	return lsn
}

// workload appends a representative event sequence and returns the state
// an exact replay must reproduce.
func workload(t *testing.T, j *Journal) *State {
	t.Helper()
	for _, a := range []string{"ion-0", "ion-1", "ion-2"} {
		mustAppend(t, j, Record{Kind: KindAddION, Addr: a})
	}
	mustAppend(t, j, Record{Kind: KindJobStarted, App: &App{
		ID: "app1", Nodes: 4, Processes: 16, WriteBytes: 1 << 20,
		Curve: []CurvePoint{{IONs: 1, MBps: 100}, {IONs: 2, MBps: 180}},
	}})
	mustAppend(t, j, Record{Kind: KindPublish, Epoch: 1, Assign: map[string][]string{
		"app1": {"ion-0", "ion-1"},
	}})
	mustAppend(t, j, Record{Kind: KindMarkDown, Addr: "ion-2"})
	mustAppend(t, j, Record{Kind: KindJobStarted, App: &App{ID: "app2", Weight: 2}})
	mustAppend(t, j, Record{Kind: KindPublish, Epoch: 2, Assign: map[string][]string{
		"app1": {"ion-0"}, "app2": {"ion-1"},
	}})
	mustAppend(t, j, Record{Kind: KindDrainStart, Addr: "ion-0"})
	return &State{
		Pool:  []string{"ion-0", "ion-1", "ion-2"},
		Nodes: map[string]nodestate.State{"ion-2": nodestate.Down, "ion-0": nodestate.Draining},
		Running: []App{
			{ID: "app1", Nodes: 4, Processes: 16, WriteBytes: 1 << 20,
				Curve: []CurvePoint{{IONs: 1, MBps: 100}, {IONs: 2, MBps: 180}}},
			{ID: "app2", Weight: 2},
		},
		Assign: map[string][]string{"app1": {"ion-0"}, "app2": {"ion-1"}},
		Epoch:  2,
	}
}

// normalize collapses empty-but-non-nil slices/maps to nil so that
// comparisons test content, not allocation history.
func normalize(s *State) {
	fix := func(v []string) []string {
		if len(v) == 0 {
			return nil
		}
		return v
	}
	s.Pool = fix(s.Pool)
	if len(s.Nodes) == 0 {
		s.Nodes = nil
	}
	if len(s.Assign) == 0 {
		s.Assign = nil
	}
	if len(s.Running) == 0 {
		s.Running = nil
	}
	for i := range s.Running {
		if len(s.Running[i].Curve) == 0 {
			s.Running[i].Curve = nil
		}
	}
	sort.Slice(s.Running, func(i, k int) bool { return s.Running[i].ID < s.Running[k].ID })
}

func stateEqual(t *testing.T, got, want *State) {
	t.Helper()
	normalize(got)
	normalize(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("state mismatch:\n got  %#v\n want %#v", got, want)
	}
}

func TestJournalReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := workload(t, j)
	j.Close()

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, recs := j2.RecoveredState()
	if len(recs) != 9 {
		t.Fatalf("replayed %d records, want 9", len(recs))
	}
	stateEqual(t, got, want)
}

func TestJournalSegmentRotationAndReplay(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentRecords: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := workload(t, j) // 9 records -> several segments
	j.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >=3 segments, got %d", len(segs))
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, _ := j2.RecoveredState()
	stateEqual(t, got, want)
}

func TestJournalSnapshotCompacts(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.New()
	j, err := Open(dir, Options{SegmentRecords: 4, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	want := workload(t, j)
	if err := j.Snapshot(*want.Clone()); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot records must layer on top of the snapshot.
	mustAppend(t, j, Record{Kind: KindDrainAbort, Addr: "ion-0"})
	mustAppend(t, j, Record{Kind: KindMarkUp, Addr: "ion-2"})
	j.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) != 1 {
		t.Fatalf("compaction left %d segments, want 1 (the active one)", len(segs))
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("compaction left %d snapshots, want 1", len(snaps))
	}
	if v := reg.Counter("journal_snapshot_compactions_total").Value(); v != 1 {
		t.Fatalf("journal_snapshot_compactions_total = %d, want 1", v)
	}

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, recs := j2.RecoveredState()
	if len(recs) != 2 {
		t.Fatalf("replayed %d post-snapshot records, want 2", len(recs))
	}
	// Drain aborted and ion-2 back up:
	stateEqual(t, got, workload2Expected())
}

// workload2Expected is the workload() end state after DrainAbort(ion-0)
// and MarkUp(ion-2).
func workload2Expected() *State {
	return &State{
		Pool: []string{"ion-0", "ion-1", "ion-2"},
		Running: []App{
			{ID: "app1", Nodes: 4, Processes: 16, WriteBytes: 1 << 20,
				Curve: []CurvePoint{{IONs: 1, MBps: 100}, {IONs: 2, MBps: 180}}},
			{ID: "app2", Weight: 2},
		},
		Assign: map[string][]string{"app1": {"ion-0"}, "app2": {"ion-1"}},
		Epoch:  2,
	}
}

// TestJournalTornTail truncates the active segment mid-record — the shape
// a crash during an append leaves behind — and checks replay keeps every
// record before the tear and Open resumes with a fresh segment that
// supersedes it.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	workload(t, j)
	seg := j.segPath
	j.Close()

	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: drop its final 3 bytes.
	if err := os.WriteFile(seg, buf[:len(buf)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, recs := j2.RecoveredState()
	if len(recs) != 8 {
		t.Fatalf("replayed %d records after torn tail, want 8", len(recs))
	}
	// Appends after recovery must land in a new segment and be replayable.
	mustAppend(t, j2, Record{Kind: KindDrainStart, Addr: "ion-1"})
	j2.Close()
	st, _, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Nodes["ion-1"].Has(nodestate.Draining) {
		t.Fatalf("post-recovery append lost: nodes = %v", st.Nodes)
	}
}

// TestJournalBitFlip flips one byte inside a mid-file record: replay must
// stop that segment at the flip, never panic, and keep the prefix.
func TestJournalBitFlip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	workload(t, j)
	seg := j.segPath
	j.Close()

	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	st, recs, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) >= 9 {
		t.Fatalf("bit flip not detected: %d records survived", len(recs))
	}
	if len(st.Pool) == 0 {
		t.Fatal("prefix before the flip lost")
	}
}

// TestJournalCorruptSnapshotFallsBack corrupts the newest snapshot and
// checks replay falls back to the full segment history.
func TestJournalCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := workload(t, j)
	if err := j.Snapshot(*want.Clone()); err != nil {
		t.Fatal(err)
	}
	j.Close()

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, got %d", len(snaps))
	}
	buf, _ := os.ReadFile(snaps[0])
	buf[len(buf)-1] ^= 0xFF
	os.WriteFile(snaps[0], buf, 0o644)

	// The snapshot compacted the segments away, so nothing replays — but
	// nothing panics and Open still succeeds with an empty state.
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	st, _ := j2.RecoveredState()
	if len(st.Pool) != 0 {
		t.Fatalf("corrupt snapshot should yield empty state, got pool %v", st.Pool)
	}
}

func TestJournalAppendCounters(t *testing.T) {
	reg := telemetry.New()
	j, err := Open(t.TempDir(), Options{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mustAppend(t, j, Record{Kind: KindAddION, Addr: "a"})
	mustAppend(t, j, Record{Kind: KindAddION, Addr: "b"})
	if v := reg.Counter("journal_appends_total").Value(); v != 2 {
		t.Fatalf("journal_appends_total = %d, want 2", v)
	}
	if v := reg.Counter("journal_fsyncs_total").Value(); v != 2 {
		t.Fatalf("journal_fsyncs_total = %d, want 2", v)
	}
}

func TestJournalSnapshotDue(t *testing.T) {
	j, err := Open(t.TempDir(), Options{SnapshotEvery: 2, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.SnapshotDue() {
		t.Fatal("fresh journal already due")
	}
	mustAppend(t, j, Record{Kind: KindAddION, Addr: "a"})
	mustAppend(t, j, Record{Kind: KindAddION, Addr: "b"})
	if !j.SnapshotDue() {
		t.Fatal("snapshot not due after SnapshotEvery appends")
	}
	if err := j.Snapshot(State{Pool: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	if j.SnapshotDue() {
		t.Fatal("snapshot did not reset the due counter")
	}
}

// TestDecodeRecordsBounds exercises the frame gates directly: oversized
// declared lengths and zero-length frames must stop decoding cleanly.
func TestDecodeRecordsBounds(t *testing.T) {
	var huge [12]byte
	binary.BigEndian.PutUint32(huge[0:4], maxRecord+1)
	if recs := decodeRecords(huge[:], 0); len(recs) != 0 {
		t.Fatalf("oversized length accepted: %d records", len(recs))
	}
	var zero [8]byte
	if recs := decodeRecords(zero[:], 0); len(recs) != 0 {
		t.Fatalf("zero length accepted: %d records", len(recs))
	}
	frame, err := encodeRecord(Record{LSN: 1, Kind: KindAddION, Addr: "x"})
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate LSN: second copy must be rejected by the monotonicity gate.
	double := append(append([]byte(nil), frame...), frame...)
	if recs := decodeRecords(double, 0); len(recs) != 1 {
		t.Fatalf("duplicate LSN accepted: %d records", len(recs))
	}
}

func TestJournalOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Fatal("Open accepted an empty directory")
	}
}

// TestReplayConcurrentWithOpenJournal pins that the read-only Replay can
// inspect a directory another Journal has open — the drain-ledger oracle
// depends on this.
func TestReplayConcurrentWithOpenJournal(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mustAppend(t, j, Record{Kind: KindAddION, Addr: "live"})
	st, _, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(st.Pool, "live") {
		t.Fatalf("concurrent replay missed the appended record: %v", st.Pool)
	}
}

func TestStateCloneIsDeep(t *testing.T) {
	s := &State{
		Pool:    []string{"a"},
		Nodes:   map[string]nodestate.State{"a": nodestate.Overloaded},
		Assign:  map[string][]string{"j": {"a"}},
		Running: []App{{ID: "j", Curve: []CurvePoint{{IONs: 1, MBps: 5}}}},
	}
	c := s.Clone()
	c.Pool[0] = "mutated"
	c.Nodes["a"] = nodestate.Down
	c.Assign["j"][0] = "mutated"
	c.Running[0].Curve[0].MBps = 99
	if s.Pool[0] != "a" || s.Nodes["a"] != nodestate.Overloaded || s.Assign["j"][0] != "a" || s.Running[0].Curve[0].MBps != 5 {
		t.Fatal("Clone shares memory with the original")
	}
}

// frame wraps a literal JSON payload in the journal's record framing.
func frame(payload string) []byte {
	out := make([]byte, headerLen, headerLen+len(payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:8], crc32.Checksum([]byte(payload), castagnoli))
	return append(out, payload...)
}

// TestReplayParentFormatJournal replays a journal exactly as the commit
// before internal/nodestate wrote it — a snapshot with one sorted address
// array per condition, followed by one record of each of the eight
// mark/drain kinds (payloads copied byte for byte from that commit's
// output) — and pins three things: the legacy snapshot still decodes to
// the identical state, the eight kinds keep their on-disk numbers and
// (kind, addr) shape (today's encoder produces the very same record
// bytes), and a snapshot written today uses "nodes", never the arrays.
func TestReplayParentFormatJournal(t *testing.T) {
	const snapshot = `{"lsn":1,"kind":1,"state":{"pool":["ion-0","ion-1","ion-2","ion-3","ion-4"],"down":["ion-1","ion-4"],"overloaded":["ion-2","ion-4"],"draining":["ion-3"],"degraded":["ion-1","ion-2"],"running":[{"id":"app1","nodes":4,"procs":16,"curve":[{"ions":1,"mbps":100}]}],"assign":{"app1":["ion-0","ion-2"]},"epoch":7}}`
	tail := []struct {
		payload string
		rec     Record
	}{
		{`{"lsn":2,"kind":6,"addr":"ion-1"}`, NodeEvent("ion-1", nodestate.Rise)},
		{`{"lsn":3,"kind":5,"addr":"ion-3"}`, NodeEvent("ion-3", nodestate.Fail)},
		{`{"lsn":4,"kind":8,"addr":"ion-2"}`, NodeEvent("ion-2", nodestate.Cool)},
		{`{"lsn":5,"kind":13,"addr":"ion-0"}`, NodeEvent("ion-0", nodestate.Slow)},
		{`{"lsn":6,"kind":9,"addr":"ion-2"}`, NodeEvent("ion-2", nodestate.DrainStart)},
		{`{"lsn":7,"kind":7,"addr":"ion-0"}`, NodeEvent("ion-0", nodestate.Hot)},
		{`{"lsn":8,"kind":14,"addr":"ion-1"}`, NodeEvent("ion-1", nodestate.Restore)},
		{`{"lsn":9,"kind":10,"addr":"ion-2"}`, NodeEvent("ion-2", nodestate.DrainAbort)},
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000001.snap"), frame(snapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	var seg []byte
	for i, tr := range tail {
		seg = append(seg, frame(tr.payload)...)
		rec := tr.rec
		rec.LSN = uint64(i + 2)
		now, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(now, frame(tr.payload)) {
			t.Errorf("record bytes changed on disk:\n parent %s\n now    %s", tr.payload, now[headerLen:])
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-0000000000000002.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	got, recs, last, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(tail) || last != 9 {
		t.Fatalf("replayed %d records up to LSN %d, want %d up to 9", len(recs), last, len(tail))
	}
	// What the parent commit's own Replay printed for these files: down
	// [ion-3 ion-4], overloaded [ion-0 ion-4], draining [], degraded
	// [ion-0 ion-2].
	want := &State{
		Pool: []string{"ion-0", "ion-1", "ion-2", "ion-3", "ion-4"},
		Nodes: map[string]nodestate.State{
			"ion-0": nodestate.Degraded | nodestate.Overloaded,
			"ion-2": nodestate.Degraded,
			"ion-3": nodestate.Down,
			"ion-4": nodestate.Down | nodestate.Overloaded,
		},
		Running: []App{{ID: "app1", Nodes: 4, Processes: 16, Curve: []CurvePoint{{IONs: 1, MBps: 100}}}},
		Assign:  map[string][]string{"app1": {"ion-0", "ion-2"}},
		Epoch:   7,
	}
	stateEqual(t, got, want)

	// Written back, the state uses the current layout only.
	out, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	for _, legacy := range []string{`"down"`, `"overloaded"`, `"draining"`, `"degraded"`} {
		if bytes.Contains(out, []byte(legacy)) {
			t.Errorf("snapshot still writes legacy array %s: %s", legacy, out)
		}
	}
	if !bytes.Contains(out, []byte(`"nodes":{"ion-0":12,"ion-2":4,"ion-3":1,"ion-4":9}`)) {
		t.Errorf("snapshot nodes object missing or renumbered: %s", out)
	}
	var back State
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	stateEqual(t, &back, want)
}

// TestNodeEventKinds pins the kind ↔ event pairing: each event is
// journaled under its own kind and folds back as that event — and a kind
// that is no node event folds as nothing.
func TestNodeEventKinds(t *testing.T) {
	want := map[Kind]nodestate.Event{
		KindMarkDown: nodestate.Fail, KindMarkUp: nodestate.Rise,
		KindDrainStart: nodestate.DrainStart, KindDrainAbort: nodestate.DrainAbort,
		KindMarkDegraded: nodestate.Slow, KindMarkRestored: nodestate.Restore,
		KindMarkOverloaded: nodestate.Hot, KindMarkRecovered: nodestate.Cool,
	}
	if len(want) != int(nodestate.NumEvents) {
		t.Fatalf("pairing covers %d events, want %d", len(want), nodestate.NumEvents)
	}
	// Three starting states, so every event's fold shows as a change in
	// at least one of them.
	const all = nodestate.Draining | nodestate.Degraded | nodestate.Overloaded
	for k := Kind(0); k < 32; k++ {
		ev, isNode := want[k]
		if isNode && NodeEvent("x", ev).Kind != k {
			t.Errorf("NodeEvent(%v).Kind = %v, want %v", ev, NodeEvent("x", ev).Kind, k)
		}
		for _, base := range []nodestate.State{0, all, nodestate.Down} {
			st := State{}
			st.setNode("x", base)
			st.Apply(Record{Kind: k, Addr: "x"})
			wantNext := base
			switch {
			case isNode:
				wantNext, _, _ = base.Apply(ev)
			case k == KindRemoveION:
				wantNext = 0
			}
			if got := st.Nodes["x"]; got != wantNext {
				t.Errorf("folding a %v record into %v: node is %v, want %v", k, base, got, wantNext)
			}
		}
	}
}
