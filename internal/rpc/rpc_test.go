package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestMessageRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Op: OpPing},
		{Op: OpWrite, Path: "/data/file.bin", Offset: 1 << 40, Size: 0, Data: []byte("hello world"), Trace: 1<<63 + 7},
		{Op: OpRead, Path: "x", Offset: -1, Size: 4096},
		{Op: OpStat, Path: strings.Repeat("p", 1000), Size: 123456789},
		{Op: OpRemove, Path: "/gone", Err: "no such file"},
		{Op: OpWrite, Data: make([]byte, 1<<20)},
	}
	for i, m := range msgs {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("msg %d: write: %v", i, err)
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("msg %d: read: %v", i, err)
		}
		if got.Op != m.Op || got.Path != m.Path || got.Offset != m.Offset ||
			got.Size != m.Size || got.Err != m.Err || got.Trace != m.Trace ||
			!bytes.Equal(got.Data, m.Data) {
			t.Fatalf("msg %d: round trip mismatch:\n  in  %+v\n  out %+v", i, m, got)
		}
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(op uint8, path string, offset, size int64, data []byte, errStr string, trace uint64) bool {
		if len(path) >= maxPath || len(errStr) >= maxErr || len(data) > 1<<16 {
			return true
		}
		m := &Message{Op: Op(op), Path: path, Offset: offset, Size: size, Data: data, Err: errStr, Trace: trace}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			return false
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			return false
		}
		// Compare the wire-visible fields (the decoded message additionally
		// carries internal frame-pool state, which is not message identity).
		return got.Op == m.Op && got.Path == m.Path && got.Offset == m.Offset &&
			got.Size == m.Size && got.Err == m.Err && got.Trace == m.Trace &&
			got.Busy == m.Busy && got.RetryAfter == m.RetryAfter &&
			got.ClientID == m.ClientID && got.Seq == m.Seq &&
			got.Replayed == m.Replayed && bytes.Equal(got.Data, m.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteMessageLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Path: strings.Repeat("x", maxPath)}); err == nil {
		t.Error("oversized path should fail")
	}
	if err := WriteMessage(&buf, &Message{Err: strings.Repeat("x", maxErr)}); err == nil {
		t.Error("oversized error should fail")
	}
}

func TestReadMessageTruncated(t *testing.T) {
	m := &Message{Op: OpWrite, Path: "/f", Data: []byte("abcdef")}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut += 3 {
		if _, err := ReadMessage(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d should fail", cut)
		}
	}
}

func TestReadMessageOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadMessage(&buf); err != ErrFrameTooLarge {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestClientServerEcho(t *testing.T) {
	srv := NewServer(func(req *Message) *Message {
		resp := *req
		resp.Err = ""
		if req.Op == OpPing {
			resp.Data = []byte("pong")
		}
		return &resp
	})
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli := Dial(addr, 2)
	defer cli.Close()

	resp, err := cli.Call(&Message{Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Data) != "pong" {
		t.Fatalf("unexpected response %+v", resp)
	}
}

func TestClientServerError(t *testing.T) {
	srv := NewServer(func(req *Message) *Message {
		return &Message{Op: req.Op, Err: "boom"}
	})
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := Dial(addr, 1)
	defer cli.Close()
	if _, err := cli.Call(&Message{Op: OpWrite}); err == nil || err.Error() != "boom" {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	srv := NewServer(func(req *Message) *Message {
		return &Message{Op: req.Op, Path: req.Path, Data: req.Data}
	})
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := Dial(addr, 4)
	defer cli.Close()

	const workers = 16
	const perWorker = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				path := fmt.Sprintf("/w%d/i%d", w, i)
				resp, err := cli.Call(&Message{Op: OpWrite, Path: path, Data: []byte(path)})
				if err != nil {
					errs <- err
					return
				}
				if resp.Path != path || string(resp.Data) != path {
					errs <- fmt.Errorf("response mismatch: %q vs %q", resp.Path, path)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClientClosed(t *testing.T) {
	cli := Dial("127.0.0.1:1", 1)
	cli.Close()
	if _, err := cli.Call(&Message{Op: OpPing}); !errors.Is(err, ErrClosed) || ClassOf(err) != ClassClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := cli.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(func(req *Message) *Message { return req })
	if _, err := srv.Listen(""); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestCallAfterServerClose(t *testing.T) {
	srv := NewServer(func(req *Message) *Message { return req })
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	cli := Dial(addr, 1)
	defer cli.Close()
	if _, err := cli.Call(&Message{Op: OpPing, Path: "warm"}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := cli.Call(&Message{Op: OpPing}); err == nil {
		t.Fatal("call after server close should fail")
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpPing: "ping", OpCreate: "create", OpWrite: "write", OpRead: "read",
		OpStat: "stat", OpRemove: "remove", OpFsync: "fsync", OpShutdown: "shutdown",
		Op(99): "op(99)",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}
