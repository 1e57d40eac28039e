package pfs_test

import (
	"testing"

	"repro/internal/fwd"
	"repro/internal/pfs"
)

// TestChunkInstallCopiesNothing ties the store's block to the forwarding
// layer's chunk, as fwd.TestLargestDefaultSpanIsPooled ties the rpc
// classes to its spans: a chunk staged at a chunk-aligned offset is one
// whole block, and installing it puts the very bytes the decoder filled in
// the file — the lease that reads them back aliases them. So does every
// chunk of the largest default span.
func TestChunkInstallCopiesNothing(t *testing.T) {
	s := pfs.NewStore(pfs.Config{})
	if _, err := s.Write("/f", 0, make([]byte, 8*fwd.DefaultChunkSize)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{fwd.DefaultChunkSize, fwd.DefaultCoalesceLimit} {
		off := 3 * fwd.DefaultChunkSize
		st, err := s.Stage("/f", off, int(n))
		if err != nil {
			t.Fatal(err)
		}
		if want := int(n / fwd.DefaultChunkSize); len(st.Segs) != want {
			t.Fatalf("a %d-byte span at %d staged in %d segments, want %d whole blocks", n, off, len(st.Segs), want)
		}
		var staged []*byte
		for _, seg := range st.Segs {
			staged = append(staged, &seg[0])
		}
		if _, err := s.Install("ion", st); err != nil {
			t.Fatal(err)
		}
		st.Release()
		l, err := s.ReadLease("/f", off, int(n))
		if err != nil {
			t.Fatal(err)
		}
		for i, seg := range l.Segs {
			if &seg[0] != staged[i] {
				t.Errorf("%d-byte span: chunk %d was copied into the file, not swapped in", n, i)
			}
		}
		l.Release()
	}
}
