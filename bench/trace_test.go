package main

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/rpc"
)

// frames returns the wire bytes of the given messages, back to back.
func frames(t *testing.T, msgs ...*rpc.Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := rpc.WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestFrameScannerFindsBoundaries(t *testing.T) {
	wire := frames(t,
		&rpc.Message{Op: rpc.OpStat, Path: "/a"},
		&rpc.Message{Op: rpc.OpWrite, Path: "/bench/file", Offset: 4096, Data: bytes.Repeat([]byte{7}, 5000)},
		&rpc.Message{Op: rpc.OpPing},
	)
	for _, cut := range []int{1, 2, 3, 4, 5, 7, 64, 4096, len(wire)} {
		var f frameScanner
		total := 0
		for off := 0; off < len(wire); off += cut {
			end := off + cut
			if end > len(wire) {
				end = len(wire)
			}
			total += f.feed(wire[off:end])
		}
		if total != 3 {
			t.Errorf("fed in pieces of %d bytes: found %d frames, want 3", cut, total)
		}
		if f.nhdr != 0 || f.body != 0 {
			t.Errorf("pieces of %d: scanner not at a boundary after the last frame: %+v", cut, f)
		}
	}

	// A frame is complete exactly at its last byte, not before.
	var f frameScanner
	first := frames(t, &rpc.Message{Op: rpc.OpStat, Path: "/a"})
	if n := f.feed(first[:len(first)-1]); n != 0 {
		t.Errorf("frame reported complete one byte early (%d)", n)
	}
	if n := f.feed(first[len(first)-1:]); n != 1 {
		t.Errorf("last byte completed %d frames, want 1", n)
	}
	// One read may complete several frames.
	if n := f.feed(append(append([]byte(nil), first...), first...)); n != 2 {
		t.Errorf("two frames in one read: found %d", n)
	}
}

// The conn wrapper turns request-frame-complete → response-written into
// exactly one ion.conn span per exchange and counts the bytes crossing.
func TestTracedConnRecordsOneSpanPerExchange(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	rec := newRecorder()
	tc := &tracedConn{Conn: server, rec: rec, sh: rec.newShard(), ion: 2}
	defer tc.Close()

	req := frames(t, &rpc.Message{Op: rpc.OpWrite, Path: "/f", Data: make([]byte, 9000)})
	resp := frames(t, &rpc.Message{Op: rpc.OpWrite, Path: "/f", Size: 9000})
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 2; i++ {
			if _, err := client.Write(req); err != nil {
				done <- err
				return
			}
			if _, err := readFull(client, len(resp)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		m, err := rpc.ReadMessage(tc)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
		if got := len(rec.all()); got != i {
			t.Fatalf("exchange %d: %d spans before the response was written", i, got)
		}
		if err := rpc.WriteMessage(tc, &rpc.Message{Op: rpc.OpWrite, Path: "/f", Size: 9000}); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	spans := rec.all()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	for _, s := range spans {
		if s.name != spanConn || s.ion != 2 || s.end < s.start {
			t.Errorf("bad span %+v", s)
		}
	}
	if want := int64(2 * (len(req) + len(resp))); rec.wireBytes.Load() != want {
		t.Errorf("wire bytes = %d, want %d", rec.wireBytes.Load(), want)
	}
}

func readFull(c net.Conn, n int) ([]byte, error) {
	buf := make([]byte, n)
	for got := 0; got < n; {
		k, err := c.Read(buf[got:])
		if err != nil {
			return nil, err
		}
		got += k
	}
	return buf, nil
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {50, 60}}, 80},
		{"overlapping", []interval{{10, 30}, {20, 50}, {70, 80}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}, {40, 50}}, 20},
		{"unsorted", []interval{{70, 80}, {20, 50}, {10, 30}}, 50},
		{"sticking out both ends", []interval{{-10, 10}, {95, 130}}, 85},
		{"covering", []interval{{-5, 200}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLinkByContainment(t *testing.T) {
	spans := []span{
		{name: spanConn, start: 5, end: 8, ion: 0},     // before any op: set-up traffic
		{name: spanOp, start: 10, end: 100, ion: -1},   // op A
		{name: spanConn, start: 20, end: 90, ion: 0},   // A, daemon 0
		{name: spanConn, start: 25, end: 80, ion: 1},   // A, daemon 1, concurrent
		{name: spanPFS, start: 30, end: 40, ion: 1},    // child of the daemon-1 conn
		{name: spanPFS, start: 35, end: 60, ion: 0},    // child of the daemon-0 conn
		{name: spanConn, start: 150, end: 160, ion: 0}, // between ops
		{name: spanOp, start: 200, end: 300, ion: -1},  // op B
		{name: spanConn, start: 290, end: 301, ion: 0}, // B: its end trails the op's by a hair
	}
	link(spans, spanOp)
	want := []struct{ op, parent int }{
		{-1, -1}, {1, -1}, {1, 1}, {1, 1}, {1, 3}, {1, 2}, {-1, -1}, {7, -1}, {7, 7},
	}
	for i, w := range want {
		if spans[i].op != w.op || spans[i].parent != w.parent {
			t.Errorf("span %d (%s %d–%d): op %d parent %d, want op %d parent %d",
				i, spans[i].name, spans[i].start, spans[i].end, spans[i].op, spans[i].parent, w.op, w.parent)
		}
	}

	bd := breakDown(spans, spanOp)
	if bd.ops != 2 || bd.wireReqs != 3 || bd.pfsCalls != 2 {
		t.Errorf("breakdown counted ops=%d wire=%d pfs=%d, want 2, 3, 2", bd.ops, bd.wireReqs, bd.pfsCalls)
	}
	// Op A: conns cover 20–90 (70), pfs calls cover 30–60 (30).
	// Op B: the conn covers 290–300 (10, clipped to the op), no pfs call.
	wantOp, wantFwd, wantIon, wantPFS := 95.0/1e3, 55.0/1e3, 25.0/1e3, 15.0/1e3
	near := func(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }
	if !near(bd.opUS, wantOp) || !near(bd.fwdRPCUS, wantFwd) || !near(bd.ionAgiosUS, wantIon) || !near(bd.pfsUS, wantPFS) {
		t.Errorf("breakdown = %+v, want op %v fwd %v ion %v pfs %v", bd, wantOp, wantFwd, wantIon, wantPFS)
	}
	if !near(bd.fwdRPCUS+bd.ionAgiosUS+bd.pfsUS, bd.opUS) {
		t.Errorf("self times do not sum to the op time: %+v", bd)
	}
}
