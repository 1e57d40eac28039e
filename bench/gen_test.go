package main

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// streamHash folds the next n ops of a small_* stream into one value.
func streamHash(g *smallGen, n int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := 0; i < n; i++ {
		op := g.next()
		put(uint64(op.kind))
		put(uint64(op.off))
		put(uint64(op.src))
		if op.scratch {
			put(1)
		}
	}
	return h.Sum64()
}

func smallWorkloadHash(t *testing.T, name string, seed uint64) uint64 {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	return streamHash(newDataDriver(w, seed, &checks{}).(*smallDriver).newGen(), 50000)
}

func TestSmallStreamDeterminism(t *testing.T) {
	mixed := smallWorkloadHash(t, "small_mixed", 7)
	if again := smallWorkloadHash(t, "small_mixed", 7); again != mixed {
		t.Errorf("same seed gave different op streams: %x vs %x", mixed, again)
	}
	if guarded := smallWorkloadHash(t, "small_guarded", 7); guarded != mixed {
		t.Errorf("small_guarded must replay small_mixed's op stream: %x vs %x", guarded, mixed)
	}
	if other := smallWorkloadHash(t, "small_mixed", 8); other == mixed {
		t.Errorf("seeds 7 and 8 gave the same op stream %x", mixed)
	}
}

func TestSmallStreamMix(t *testing.T) {
	g := newSmallGen(1, mib)
	var kinds [numDataKinds]int
	scratch := 0
	const n = 100000
	for i := 0; i < n; i++ {
		op := g.next()
		kinds[op.kind]++
		if op.scratch {
			scratch++
		}
		if op.off%smallReq != 0 || op.off < 0 || op.off+smallReq > smallFile {
			t.Fatalf("op %d: offset %d is not a 4 KiB block of the file", i, op.off)
		}
	}
	for k, want := range map[int]float64{kindWrite: 0.5, kindRead: 0.4, kindMeta: 0.1} {
		if got := float64(kinds[k]) / n; got < want-0.01 || got > want+0.01 {
			t.Errorf("kind %d: share %.3f, want %.1f", k, got, want)
		}
	}
	if want := kinds[kindMeta] / scratchEvery; scratch != want {
		t.Errorf("%d scratch ops among %d metadata ops, want %d", scratch, kinds[kindMeta], want)
	}
}

func TestChurnSequenceDeterminism(t *testing.T) {
	seq := func(seed uint64) (out []int) {
		g := newChurnGen(seed)
		for i := 0; i < 1000; i++ {
			s := g.next()
			out = append(out, s.slot, len(s.app.Label))
		}
		return out
	}
	a, b, c := seq(3), seq(3), seq(4)
	same := func(x, y []int) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed gave different job sequences")
	}
	if same(a, c) {
		t.Error("seeds 3 and 4 gave the same job sequence")
	}
}

func TestPeakedAppPeaks(t *testing.T) {
	for _, peak := range []int{1, 4} {
		if got := peakedApp("a", peak).Curve.Best().IONs; got != peak {
			t.Errorf("curve built to peak at %d peaks at %d", peak, got)
		}
	}
}
