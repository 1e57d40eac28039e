package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay feeds arbitrary bytes to the replay path as a
// journal segment (and, mutated, as a snapshot). The contract under
// fuzz: never panic, never error on corrupt input — torn, truncated,
// bit-flipped, resurrected, or garbage segments must all degrade to
// "recover everything up to the last valid record". A recovered record
// set must itself re-append and replay losslessly.
func FuzzJournalReplay(f *testing.F) {
	// Seed with real frames in various states of disrepair.
	valid := func(recs ...Record) []byte {
		var buf []byte
		for _, r := range recs {
			frame, err := encodeRecord(r)
			if err != nil {
				f.Fatal(err)
			}
			buf = append(buf, frame...)
		}
		return buf
	}
	whole := valid(
		Record{LSN: 1, Kind: KindAddION, Addr: "ion-0"},
		Record{LSN: 2, Kind: KindJobStarted, App: &App{ID: "a", Curve: []CurvePoint{{IONs: 1, MBps: 10}}}},
		Record{LSN: 3, Kind: KindPublish, Epoch: 1, Assign: map[string][]string{"a": {"ion-0"}}},
		Record{LSN: 4, Kind: KindDrainStart, Addr: "ion-0"},
	)
	f.Add(whole)
	f.Add(whole[:len(whole)-1]) // torn tail
	f.Add(whole[:len(whole)/2]) // truncated mid-frame
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)                                    // bit flip
	f.Add(append(whole, whole...))                    // resurrected LSNs
	f.Add([]byte{})                                   // empty segment
	f.Add([]byte{0xFF, 0xFF, 0xFF})                   // shorter than a header
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // absurd length
	// The parent format: a legacy-layout snapshot, alone and followed by
	// its tail of node-event records.
	var parent []byte
	for _, name := range []string{"snap-0000000000000001.snap", "seg-0000000000000002.wal"} {
		buf, err := os.ReadFile(filepath.Join("testdata/parent-format", name))
		if err != nil {
			f.Fatal(err)
		}
		parent = append(parent, buf...)
		f.Add(append([]byte(nil), parent...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-0000000000000001.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Also present the same bytes as a snapshot: the fallback path
		// must reject anything that is not exactly one valid snapshot
		// record without panicking.
		if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000001.snap"), data, 0o644); err != nil {
			t.Fatal(err)
		}

		st, recs, last, err := Replay(dir)
		if err != nil {
			t.Fatalf("replay errored on corrupt input: %v", err)
		}
		if st == nil {
			t.Fatal("replay returned nil state")
		}
		for i, r := range recs {
			if i > 0 && r.LSN <= recs[i-1].LSN {
				t.Fatalf("non-monotonic LSNs survived replay: %d then %d", recs[i-1].LSN, r.LSN)
			}
			if r.LSN > last {
				t.Fatalf("record LSN %d above reported last %d", r.LSN, last)
			}
		}

		// Whatever was recovered must survive a round trip through a
		// real journal: append the recovered records (renumbered) and
		// replay them back, record for record. Compared by encoding: a
		// field's empty and nil forms are the same bytes on disk.
		dir2 := t.TempDir()
		j, err := Open(dir2, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if _, err := j.Append(r); err != nil {
				t.Fatalf("re-append of recovered record failed: %v", err)
			}
		}
		j.Close()
		_, recs2, _, err := Replay(dir2)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("round trip lost records: %d -> %d", len(recs), len(recs2))
		}
		for i, r := range recs {
			r.LSN = recs2[i].LSN
			want, err := encodeRecord(r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := encodeRecord(recs2[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("record %d changed in the round trip:\n appended %s\n replayed %s", i, want[headerLen:], got[headerLen:])
			}
		}
	})
}
