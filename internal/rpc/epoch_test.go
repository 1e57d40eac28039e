package rpc

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// TestEpochTrailerByteIdentity pins the opt-in contract on the wire: a
// message with Epoch zero encodes byte-identically to one built before
// the field existed (the flag bit stays clear, no trailer bytes appear).
func TestEpochTrailerByteIdentity(t *testing.T) {
	base := &Message{Op: OpWrite, Path: "/f", Offset: 8, Data: []byte("chunk"), ClientID: "c", Seq: 2, Priority: 1}
	withZero := *base
	withZero.Epoch = 0
	for _, sum := range []bool{false, true} {
		var a, b bytes.Buffer
		if err := writeFrame(&a, base, sum); err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(&b, &withZero, sum); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("sum=%v: zero epoch changed the frame bytes", sum)
		}
	}

	// And a nonzero epoch must round trip.
	m := &Message{Op: OpWrite, Path: "/f", Data: []byte("x"), Epoch: 99}
	var buf bytes.Buffer
	if err := WriteMessageChecksum(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	if got.Epoch != 99 {
		t.Fatalf("epoch lost on the wire: %d", got.Epoch)
	}
}

// TestClientStaleEpochClass drives a fenced response through a live
// client: the error must surface as a ClassFenced *Error carrying the
// server's fence floor, count as a breaker success (the breaker must not
// open), and burn zero transport retries.
func TestClientStaleEpochClass(t *testing.T) {
	const fence = uint64(9)
	calls := 0
	srv := NewServer(func(req *Message) *Message {
		calls++
		if req.Op == OpWrite && req.Epoch != 0 && req.Epoch < fence {
			return &Message{Op: req.Op, Err: StaleEpochErrText(req.Epoch, fence), Epoch: fence}
		}
		return &Message{Op: req.Op, Size: int64(len(req.Data))}
	})
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli := Dial(addr, 2).WithOptions(Options{
		CallTimeout:      2 * time.Second,
		MaxRetries:       3,
		BreakerThreshold: 1, // a single transport failure would open it
		BreakerCooldown:  time.Minute,
	})
	defer cli.Close()

	resp, err := cli.Call(&Message{Op: OpWrite, Path: "/f", Data: []byte("late"), Epoch: 4})
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("want ErrStaleEpoch, got %v", err)
	}
	if e := err.(*Error); e.Class != ClassFenced || e.Fence != fence || e.Addr != addr {
		t.Fatalf("fenced error = %+v, want ClassFenced with fence %d from %s", e, fence, addr)
	}
	if resp == nil || resp.Epoch != fence {
		t.Fatalf("response should carry the fence floor, got %+v", resp)
	}
	if calls != 1 {
		t.Fatalf("fenced write was transport-retried: %d handler calls", calls)
	}
	if st := cli.BreakerState(); st == BreakerOpen {
		t.Fatalf("fenced write tripped the breaker (state %s)", st)
	}

	// The connection stays healthy: a current-epoch write succeeds.
	resp2, err := cli.Call(&Message{Op: OpWrite, Path: "/f", Data: []byte("ok"), Epoch: fence})
	if err != nil {
		t.Fatalf("current-epoch write failed: %v", err)
	}
	if resp2.Size != 2 {
		t.Fatalf("ack size = %d, want 2", resp2.Size)
	}
}
