package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// workload appends a representative event sequence and returns the
// records, LSNs assigned, that an exact replay must give back.
func workload(t *testing.T, j *Journal) []Record {
	t.Helper()
	var recs []Record
	add := func(r Record) {
		r.LSN = mustAppend(t, j, r)
		recs = append(recs, r)
	}
	for _, a := range []string{"ion-0", "ion-1", "ion-2"} {
		add(Record{Kind: KindAddION, Addr: a})
	}
	add(Record{Kind: KindJobStarted, App: &App{
		ID: "app1", Nodes: 4, Processes: 16, WriteBytes: 1 << 20,
		Curve: []CurvePoint{{IONs: 1, MBps: 100}, {IONs: 2, MBps: 180}},
	}})
	add(Record{Kind: KindPublish, Epoch: 1, Assign: map[string][]string{
		"app1": {"ion-0", "ion-1"},
	}})
	add(NodeEvent("ion-2", nodestate.Fail))
	add(Record{Kind: KindJobStarted, App: &App{ID: "app2", Weight: 2}})
	add(Record{Kind: KindPublish, Epoch: 2, Assign: map[string][]string{
		"app1": {"ion-0"}, "app2": {"ion-1"},
	}})
	add(NodeEvent("ion-0", nodestate.DrainStart))
	return recs
}

// workloadState is a snapshot of the control plane workload() describes.
func workloadState() State {
	return State{
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

func recordsEqual(t *testing.T, got, want []Record) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records mismatch:\n got  %+v\n want %+v", got, want)
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
	snap, recs := j2.Replayed()
	if !reflect.DeepEqual(*snap, State{}) {
		t.Fatalf("no snapshot was written, yet replay starts from %+v", snap)
	}
	recordsEqual(t, recs, want)
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
	_, recs := j2.Replayed()
	recordsEqual(t, recs, want)
}

func TestJournalSnapshotCompacts(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.New()
	j, err := Open(dir, Options{SegmentRecords: 4, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	workload(t, j)
	if err := j.Snapshot(workloadState()); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot records must come back after the snapshot.
	want := []Record{NodeEvent("ion-0", nodestate.DrainAbort), NodeEvent("ion-2", nodestate.Rise)}
	for i := range want {
		want[i].LSN = mustAppend(t, j, want[i])
	}
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
	snap, recs := j2.Replayed()
	if !reflect.DeepEqual(*snap, workloadState()) {
		t.Fatalf("snapshot mismatch:\n got  %+v\n want %+v", *snap, workloadState())
	}
	recordsEqual(t, recs, want)
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
	want := workload(t, j)
	j.Close()
	seg := filepath.Join(dir, "seg-0000000000000001.wal") // the only segment

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
	_, recs := j2.Replayed()
	want = want[:len(want)-1]
	recordsEqual(t, recs, want)
	// Appends after recovery must land in a new segment and be replayable.
	next := NodeEvent("ion-1", nodestate.DrainStart)
	next.LSN = mustAppend(t, j2, next)
	j2.Close()
	_, recs, _, err = Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, recs, append(want, next))
}

// TestJournalBitFlip flips one byte inside a mid-file record: replay must
// stop that segment at the flip, never panic, and keep the prefix.
func TestJournalBitFlip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := workload(t, j)
	j.Close()
	seg := filepath.Join(dir, "seg-0000000000000001.wal") // the only segment

	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) >= len(want) {
		t.Fatalf("bit flip not detected: %d records survived", len(recs))
	}
	if len(recs) == 0 {
		t.Fatal("prefix before the flip lost")
	}
	recordsEqual(t, recs, want[:len(recs)])
}

// TestJournalCorruptSnapshotFallsBack corrupts the newest snapshot and
// checks replay falls back to the full segment history.
func TestJournalCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	workload(t, j)
	if err := j.Snapshot(workloadState()); err != nil {
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
	st, recs := j2.Replayed()
	if len(st.Pool) != 0 || len(recs) != 0 {
		t.Fatalf("corrupt snapshot should yield an empty state and no records, got pool %v and %d records", st.Pool, len(recs))
	}
}

// faultyFS is the journal's file seam with faults armed: the next
// failWrites Writes tear (half the bytes land, then an error), the next
// failSyncs Syncs of a file fail, and so do the next failDirSyncs Syncs
// of the directory.
type faultyFS struct{ failWrites, failSyncs, failDirSyncs int }

func (fs *faultyFS) open(path string, flag int) (file, error) {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return faultyFile{f, fs, flag == os.O_RDONLY}, nil
}

type faultyFile struct {
	file
	fs  *faultyFS
	dir bool
}

func (f faultyFile) Write(p []byte) (int, error) {
	if f.fs.failWrites > 0 {
		f.fs.failWrites--
		n, _ := f.file.Write(p[:len(p)/2])
		return n, errors.New("injected short write")
	}
	return f.file.Write(p)
}

func (f faultyFile) Sync() error {
	fails := &f.fs.failSyncs
	if f.dir {
		fails = &f.fs.failDirSyncs
	}
	if *fails > 0 {
		*fails--
		return errors.New("injected fsync failure")
	}
	return f.file.Sync()
}

// TestJournalFailedAppendHidesNothing: an append whose write tears or
// whose fsync fails returns an error, and every record acknowledged
// after it still replays — the failed append spent its LSN, and later
// records went to a fresh segment rather than after a torn frame.
func TestJournalFailedAppendHidesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(*faultyFS)
	}{
		{"fsync", func(fs *faultyFS) { fs.failSyncs = 1 }},
		{"torn write", func(fs *faultyFS) { fs.failWrites = 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := &faultyFS{}
			j, err := Open(dir, Options{open: fs.open})
			if err != nil {
				t.Fatal(err)
			}
			acked := []Record{{Kind: KindAddION, Addr: "a"}}
			acked[0].LSN = mustAppend(t, j, acked[0])
			tc.arm(fs)
			if _, err := j.Append(Record{Kind: KindAddION, Addr: "lost"}); err == nil {
				t.Fatal("append through an injected fault reported success")
			}
			for _, addr := range []string{"c", "d"} {
				r := Record{Kind: KindAddION, Addr: addr}
				r.LSN = mustAppend(t, j, r)
				acked = append(acked, r)
			}
			j.Close()
			if acked[1].LSN != acked[0].LSN+2 {
				t.Fatalf("the failed append's LSN was handed out again: %d after %d", acked[1].LSN, acked[0].LSN)
			}
			_, recs, _, err := Replay(dir)
			if err != nil {
				t.Fatal(err)
			}
			// The failed frame itself may or may not have landed whole.
			recs = slices.DeleteFunc(recs, func(r Record) bool { return r.Addr == "lost" })
			recordsEqual(t, recs, acked)
		})
	}
}

// TestJournalSnapshotFailedSyncReplacesNothing: a snapshot whose fsync
// fails returns the error before it replaces anything. When the temp
// file's fsync fails there is no snapshot file, every segment is still in
// place, and replay gives what it gave before. When the directory's fsync
// fails the snapshot is renamed into place but nothing is deleted.
func TestJournalSnapshotFailedSyncReplacesNothing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		arm     func(*faultyFS)
		renamed bool
	}{
		{"file fsync", func(fs *faultyFS) { fs.failSyncs = 1 }, false},
		{"directory fsync", func(fs *faultyFS) { fs.failDirSyncs = 1 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := &faultyFS{}
			j, err := Open(dir, Options{SegmentRecords: 3, open: fs.open})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			workload(t, j)
			files := func() []string {
				names, err := filepath.Glob(filepath.Join(dir, "*"))
				if err != nil {
					t.Fatal(err)
				}
				return names
			}
			filesBefore := files()
			snapBefore, recsBefore, _, err := Replay(dir)
			if err != nil {
				t.Fatal(err)
			}

			tc.arm(fs)
			if err := j.Snapshot(workloadState()); err == nil {
				t.Fatal("snapshot through a failing fsync reported success")
			}
			after := files()
			for _, name := range filesBefore {
				if !slices.Contains(after, name) {
					t.Fatalf("failed snapshot deleted %s", name)
				}
			}
			if tc.renamed {
				return
			}
			if !slices.Equal(after, filesBefore) {
				t.Fatalf("failed snapshot changed the directory:\n before %v\n after  %v", filesBefore, after)
			}
			snap, recs, _, err := Replay(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(snap, snapBefore) {
				t.Fatalf("failed snapshot changed the replayed snapshot: %+v, was %+v", snap, snapBefore)
			}
			recordsEqual(t, recs, recsBefore)

			// The journal carries on: the next snapshot compacts as usual.
			if err := j.Snapshot(workloadState()); err != nil {
				t.Fatal(err)
			}
			if snap, recs, _, _ := Replay(dir); !reflect.DeepEqual(*snap, workloadState()) || len(recs) != 0 {
				t.Fatalf("snapshot after the failure: %+v and %d records", snap, len(recs))
			}
		})
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
	_, recs, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Addr != "live" {
		t.Fatalf("concurrent replay missed the appended record: %+v", recs)
	}
}

// TestReplayParentFormatJournal reads a journal exactly as the commit
// before internal/nodestate wrote it (testdata/parent-format: a snapshot
// with one sorted address array per condition, followed by one record of
// each of the eight mark/drain kinds) and pins the format: the legacy
// snapshot decodes into the current State, the eight kinds keep their
// on-disk numbers and (kind, addr) shape — today's encoder produces the
// very same record bytes — and a snapshot written today uses "nodes",
// never the arrays. What the arbiter recovers from these bytes is
// TestRecoverParentFormatJournal's.
func TestReplayParentFormatJournal(t *testing.T) {
	tail := []Record{
		NodeEvent("ion-1", nodestate.Rise),
		NodeEvent("ion-3", nodestate.Fail),
		NodeEvent("ion-2", nodestate.Cool),
		NodeEvent("ion-0", nodestate.Slow),
		NodeEvent("ion-2", nodestate.DrainStart),
		NodeEvent("ion-0", nodestate.Hot),
		NodeEvent("ion-1", nodestate.Restore),
		NodeEvent("ion-2", nodestate.DrainAbort),
	}
	for i := range tail {
		tail[i].LSN = uint64(i + 2)
	}
	const dir = "testdata/parent-format"
	seg, err := os.ReadFile(filepath.Join(dir, "seg-0000000000000002.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var now []byte
	for _, r := range tail {
		frame, err := encodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		now = append(now, frame...)
	}
	if !bytes.Equal(now, seg) {
		t.Errorf("record bytes changed on disk:\n parent %q\n now    %q", seg, now)
	}

	snap, recs, last, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if last != 9 {
		t.Fatalf("replayed up to LSN %d, want 9", last)
	}
	recordsEqual(t, recs, tail)
	want := State{
		Pool: []string{"ion-0", "ion-1", "ion-2", "ion-3", "ion-4"},
		Nodes: map[string]nodestate.State{
			"ion-1": nodestate.Down | nodestate.Degraded,
			"ion-2": nodestate.Overloaded | nodestate.Degraded,
			"ion-3": nodestate.Draining,
			"ion-4": nodestate.Down | nodestate.Overloaded,
		},
		Running: []App{{ID: "app1", Nodes: 4, Processes: 16, Curve: []CurvePoint{{IONs: 1, MBps: 100}}}},
		Assign:  map[string][]string{"app1": {"ion-0", "ion-2"}},
		Epoch:   7,
	}
	if !reflect.DeepEqual(*snap, want) {
		t.Fatalf("legacy snapshot decoded to\n %+v\nwant\n %+v", *snap, want)
	}

	// Written back, the state uses the current layout only.
	out, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, legacy := range []string{`"down"`, `"overloaded"`, `"draining"`, `"degraded"`} {
		if bytes.Contains(out, []byte(legacy)) {
			t.Errorf("snapshot still writes legacy array %s: %s", legacy, out)
		}
	}
	if !bytes.Contains(out, []byte(`"nodes":{"ion-1":5,"ion-2":12,"ion-3":2,"ion-4":9}`)) {
		t.Errorf("snapshot nodes object missing or renumbered: %s", out)
	}
	var back State
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("current layout decoded to\n %+v\nwant\n %+v", back, want)
	}
}

// TestNodeEventKinds pins the kind ↔ event pairing: each event is
// journaled under its own kind, and Kind.Event maps that kind, and only
// it, back to the event. How a replayed event folds is the arbiter's
// (TestReplayNodeEventKinds).
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
	for k := Kind(0); k < 32; k++ {
		wantEv, isNode := want[k]
		ev, ok := k.Event()
		if ok != isNode || (ok && ev != wantEv) {
			t.Errorf("%v.Event() = %v, %v; want %v, %v", k, ev, ok, wantEv, isNode)
		}
		if isNode && NodeEvent("x", wantEv).Kind != k {
			t.Errorf("NodeEvent(%v).Kind = %v, want %v", wantEv, NodeEvent("x", wantEv).Kind, k)
		}
	}
}
