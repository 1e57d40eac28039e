package rpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testkit"
)

// referenceEncode is the straight-line single-buffer encoder the frame
// layout documentation describes: append every field to one slice in wire
// order, checksum the contiguous body. writeFrame is an optimisation of
// this (pooled scratch, vectored payload, segment-wise CRC) and must stay
// byte-identical to it for every message shape — that equality is the
// wire-compatibility proof for the hot-path rewrite.
func referenceEncode(m *Message, sum bool) []byte {
	hasDedup := m.ClientID != "" || m.Seq != 0
	var body []byte
	body = append(body, byte(m.Op))
	var flags byte
	if m.Busy {
		flags |= flagBusy
	}
	if sum {
		flags |= flagChecksum
	}
	if hasDedup {
		flags |= flagDedup
	}
	if m.Replayed {
		flags |= flagReplay
	}
	if m.Priority != 0 {
		flags |= flagPriority
	}
	if m.Epoch != 0 {
		flags |= flagEpoch
	}
	body = append(body, flags)
	body = binary.BigEndian.AppendUint32(body, retryAfterMicros(m.RetryAfter))
	body = binary.BigEndian.AppendUint64(body, m.Trace)
	body = binary.BigEndian.AppendUint16(body, uint16(len(m.Path)))
	body = append(body, m.Path...)
	body = binary.BigEndian.AppendUint64(body, uint64(m.Offset))
	body = binary.BigEndian.AppendUint64(body, uint64(m.Size))
	body = binary.BigEndian.AppendUint32(body, uint32(len(m.Data)))
	body = append(body, m.Data...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(m.Err)))
	body = append(body, m.Err...)
	if hasDedup {
		body = binary.BigEndian.AppendUint16(body, uint16(len(m.ClientID)))
		body = append(body, m.ClientID...)
		body = binary.BigEndian.AppendUint64(body, m.Seq)
	}
	if m.Priority != 0 {
		body = append(body, m.Priority)
	}
	if m.Epoch != 0 {
		body = binary.BigEndian.AppendUint64(body, m.Epoch)
	}
	if sum {
		body = binary.BigEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	return append(frame, body...)
}

func TestWriteFrameMatchesReferenceEncoder(t *testing.T) {
	payloadSizes := []int{0, 1, 100, vectoredMin - 1, vectoredMin, vectoredMin + 1, 64 << 10, 512 << 10, 1 << 20, 4 << 20}
	msgs := func(data []byte) []*Message {
		return []*Message{
			{Op: OpWrite, Path: "/a/b", Offset: 1 << 30, Size: int64(len(data)), Data: data, Trace: 42},
			{Op: OpRead, Path: "/r", Data: data, Err: "short read"},
			{Op: OpWrite, Path: "/d", Data: data, ClientID: "client-7", Seq: 99},
			{Op: OpWrite, Data: data, Busy: true, RetryAfter: 250 * time.Microsecond, Replayed: true, ClientID: "c", Seq: 1},
			{Op: OpWrite, Path: "/q", Data: data, Priority: 3},
			{Op: OpWrite, Path: "/q2", Data: data, Priority: 1, ClientID: "client-7", Seq: 4, Trace: 7},
			{Op: OpWrite, Path: "/e", Data: data, Epoch: 12},
			{Op: OpWrite, Path: "/e2", Data: data, Epoch: 1 << 40, Priority: 2, ClientID: "client-9", Seq: 6},
		}
	}
	for _, sz := range payloadSizes {
		data := make([]byte, sz)
		for i := range data {
			data[i] = byte(i * 7)
		}
		if sz == 0 {
			data = nil
		}
		for mi, m := range msgs(data) {
			for _, sum := range []bool{false, true} {
				want := referenceEncode(m, sum)
				// The payload as Data, then lent in segments: empty ones,
				// and cuts below and above vectoredMin.
				for ci, cuts := range [][]int{nil, {}, {0, 0}, {1, sz / 2, sz / 2}, {vectoredMin - 1}, {vectoredMin + 1, sz - 1}} {
					sent := m
					if cuts != nil {
						lent := *m
						lent.Data = nil
						lent.Lend(segment(data, cuts...), nil)
						sent = &lent
					}
					var got bytes.Buffer
					if err := writeFrame(&got, sent, sum); err != nil {
						t.Fatalf("size %d msg %d sum %v cuts %d: %v", sz, mi, sum, ci, err)
					}
					if !bytes.Equal(got.Bytes(), want) {
						t.Fatalf("size %d msg %d sum %v cuts %d: frame bytes diverge from reference encoder (%d vs %d bytes)",
							sz, mi, sum, ci, got.Len(), len(want))
					}
				}
			}
		}
	}
}

// segment cuts data at each of cuts (clamped to its length, so repeated
// or out-of-range cuts make empty segments).
func segment(data []byte, cuts ...int) [][]byte {
	segs, from := [][]byte{}, 0
	for _, c := range cuts {
		c = max(from, min(c, len(data)))
		segs = append(segs, data[from:c])
		from = c
	}
	return append(segs, data[from:])
}

// TestReleaseIdempotentAndSafe pins the release-seam contract: Release on
// nil, on caller-built messages, and called twice must all be harmless.
func TestReleaseIdempotentAndSafe(t *testing.T) {
	var nilMsg *Message
	nilMsg.Release()
	m := &Message{Op: OpWrite, Data: []byte("caller-owned")}
	m.Release()
	m.Release()

	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Op: OpWrite, Path: "/p", Data: make([]byte, 1024)}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got.Release()
	got.Release()
}

// TestPooledBufferReuse drives frames of one size class through the
// transport back to back and checks decoded payload integrity — the
// classic aliasing bug (a recycled buffer overwriting a still-referenced
// payload before the consumer copies it) shows up here. One size per
// class that data frames use, the span-sized ones included.
func TestPooledBufferReuse(t *testing.T) {
	for _, size := range []int{2048, 512 << 10, 2 << 20, 4 << 20} {
		var wire bytes.Buffer
		for round := 0; round < 32; round++ {
			data := bytes.Repeat([]byte{byte(round + 1)}, size)
			if err := WriteMessage(&wire, &Message{Op: OpWrite, Path: "/f", Data: data}); err != nil {
				t.Fatal(err)
			}
			m, err := ReadMessage(&wire)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Data) != size {
				t.Fatalf("size %d round %d: decoded %d payload bytes", size, round, len(m.Data))
			}
			for i, b := range m.Data {
				if b != byte(round+1) {
					t.Fatalf("size %d round %d: payload byte %d corrupted: %d", size, round, i, b)
				}
			}
			m.Release()
		}
	}
}

// TestBodyClassesFitPowerOfTwoPayloads pins the payload-only rule: a
// frame carrying a payload of exactly a class's size, a 256-byte path and
// every trailer decodes into a buffer of that class — header and trailers
// never share the payload's buffer — and every buffer a class hands out
// has exactly the class's capacity.
func TestBodyClassesFitPowerOfTwoPayloads(t *testing.T) {
	for _, payload := range bodyClasses {
		m := &Message{
			Op: OpWrite, Path: "/" + strings.Repeat("p", 255), Data: make([]byte, payload),
			ClientID: "application#12", Seq: 9, Priority: 3, Epoch: 7, Trace: 1,
		}
		var wire bytes.Buffer
		if err := WriteMessageChecksum(&wire, m); err != nil {
			t.Fatal(err)
		}
		got, err := ReadMessage(&wire)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Data) != payload || cap(got.Data) != payload {
			t.Fatalf("%d-byte payload decoded into len %d cap %d, want its own class", payload, len(got.Data), cap(got.Data))
		}
		got.Release()
		if b := GetBuffer(payload); cap(b) != payload {
			t.Fatalf("GetBuffer(%d) served with cap %d", payload, cap(b))
		}
	}
}

// TestOversizeBuffersAreNotRetained: frames above the top class work but
// are dropped on release, and no class ever hands out a buffer that is
// not exactly its size — a giant filed under the largest class it covers
// would come back to 512 KiB requests and stay pinned by the pool.
func TestOversizeBuffersAreNotRetained(t *testing.T) {
	top := bodyClasses[len(bodyClasses)-1]
	for i := 0; i < 8; i++ {
		var wire bytes.Buffer
		if err := WriteMessage(&wire, &Message{Op: OpWrite, Path: "/big", Data: make([]byte, 2*top)}); err != nil {
			t.Fatal(err)
		}
		m, err := ReadMessage(&wire)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Data) != 2*top {
			t.Fatalf("oversize frame decoded %d payload bytes", len(m.Data))
		}
		m.Release()
		// Foreign and resliced buffers take the same exit.
		PutBuffer(make([]byte, top+1+i))
		PutBuffer(GetBuffer(512 << 10)[1:])
	}
	// Drain more buffers than the loop could have filed, without returning
	// any, so a misfiled one cannot hide behind the pool's other entries.
	for _, n := range []int{1, 4 << 10, 512 << 10, 1 << 20, 4 << 20} {
		for i := 0; i < 32; i++ {
			if c := cap(GetBuffer(n)); c != classFor(n) {
				t.Fatalf("GetBuffer(%d) returned cap %d, want its class size %d", n, c, classFor(n))
			}
		}
	}
}

func classFor(n int) int {
	for _, size := range bodyClasses {
		if n <= size {
			return size
		}
	}
	return n
}

// TestSpanSizedCallsAllocateNothingFrameSized is the allocation budget of
// the wire path at span sizes: a write request with its ack, and a read
// request with a pooled GetBuffer reply, cost under 4 KiB of
// allocation per call from one chunk up to the default coalesce limit,
// with and without checksums; a frame that misses the pools costs its
// whole size on that side of the wire.
func TestSpanSizedCallsAllocateNothingFrameSized(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	for _, sum := range []bool{false, true} {
		srv := NewServer(func(req *Message) *Message {
			if req.Op == OpRead {
				resp := &Message{Op: OpRead, Path: req.Path}
				resp.Data = GetBuffer(int(req.Size))
				resp.body = resp.Data[:cap(resp.Data)]
				return resp
			}
			req.Size = int64(len(req.Data))
			req.Data = nil
			return req
		}).WithChecksum(sum)
		addr, err := srv.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		cli := Dial(addr, 1).WithOptions(Options{WireChecksum: sum})
		for _, size := range []int{512 << 10, 1 << 20, 2 << 20, 4 << 20} {
			payload := make([]byte, size)
			write := &Message{Op: OpWrite, Path: "/alloc/w", Data: payload}
			read := &Message{Op: OpRead, Path: "/alloc/r", Size: int64(size)}
			for _, req := range []*Message{write, read} {
				per := testkit.SteadyStateBytesPerCall(20, 4<<10, func() {
					resp, err := cli.Call(req)
					if err != nil {
						t.Fatal(err)
					}
					if req.Op == OpRead && len(resp.Data) != size || req.Op == OpWrite && resp.Size != int64(size) {
						t.Fatalf("%v %d: short exchange", req.Op, size)
					}
					resp.Release()
				})
				if per >= 4<<10 {
					t.Errorf("checksum=%v %v of %d bytes: %d bytes allocated per call, want < 4096", sum, req.Op, size, per)
				}
			}
		}
		cli.Close()
		srv.Close()
	}
}

// TestHandlerShallowCopyResponse pins the server-side release seam
// against the handler shape that shallow-copies the request into the
// response: request and response then share one pooled frame buffer,
// which must go back to the pool exactly once (a double release hands the
// same buffer to two connections and corrupts payloads under load).
func TestHandlerShallowCopyResponse(t *testing.T) {
	srv := NewServer(func(req *Message) *Message {
		resp := *req // shares req's pooled body
		return &resp
	})
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := Dial(addr, 4)
	defer cli.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w + 1)}, 2048)
			for i := 0; i < 200; i++ {
				resp, err := cli.Call(&Message{Op: OpWrite, Path: "/f", Data: payload})
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp.Data, payload) {
					errs <- fmt.Errorf("worker %d iter %d: echoed payload corrupted", w, i)
					resp.Release()
					return
				}
				resp.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// BenchmarkWirePathWrite512K measures the rpc layer alone — the part the
// frame pools and vectored writes own end to end: a real TCP round trip
// carrying a 512 KiB write to an acking echo server. The handler strips
// the payload and returns the request message itself, so every allocation
// reported here belongs to the transport. TestWirePathBudgets holds it to
// its allocs/op budget (the end-to-end count in livestack includes
// scheduler and dispatch costs that are out of the wire path's hands).
func BenchmarkWirePathWrite512K(b *testing.B) { benchWirePathWrite(b, 512<<10) }

// BenchmarkWirePathWrite4M is the same round trip at the default coalesce
// limit, the frame the top body class exists for. TestWirePathBudgets
// holds it to its B/op budget: an unpooled 4 MiB frame shows up as
// ~4 MB/op here.
func BenchmarkWirePathWrite4M(b *testing.B) { benchWirePathWrite(b, 4<<20) }

func benchWirePathWrite(b *testing.B, size int) {
	srv := NewServer(func(req *Message) *Message {
		req.Size = int64(len(req.Data))
		req.Data = nil // ack only; the pooled frame is released by the server
		return req
	})
	addr, err := srv.Listen("")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli := Dial(addr, 1)
	defer cli.Close()

	payload := make([]byte, size)
	req := &Message{Op: OpWrite, Path: "/bench/wire", Data: payload}
	if _, err := cli.Call(req); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cli.Call(req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Size != int64(len(payload)) {
			b.Fatalf("ack size %d", resp.Size)
		}
		resp.Release()
	}
}

// TestWirePathBudgets gates the two deterministic numbers of the wire
// path: at 512 KiB a round trip allocates nothing (each side's decoder
// reuses the Path string it saw last), and at 4 MiB — the payload from the
// top body class — at most 4096 B/op. Time-valued numbers belong to bench/.
func TestWirePathBudgets(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	if got := testing.Benchmark(BenchmarkWirePathWrite512K).AllocsPerOp(); got > 0 {
		t.Errorf("512 KiB wire round trip: %d allocs/op, budget 0", got)
	}
	// The other side may still hold the pooled frame when the next call
	// starts, and one cold 4 MiB frame in a run of a few hundred calls is
	// already over budget: the best of three runs is the steady state.
	best := int64(math.MaxInt64)
	for run := 0; run < 3 && best > 4096; run++ {
		best = min(best, testing.Benchmark(BenchmarkWirePathWrite4M).AllocedBytesPerOp())
	}
	if best > 4096 {
		t.Errorf("4 MiB wire round trip: %d B/op, budget 4096", best)
	}
}
