package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/agios"
	"repro/internal/arbiter"
	"repro/internal/fwd"
	"repro/internal/ion"
	"repro/internal/journal"
	"repro/internal/livestack"
	"repro/internal/mapping"
	"repro/internal/mckp"
	"repro/internal/perfmodel"
	"repro/internal/pfs"
	"repro/internal/policy"
	"repro/internal/rpc"
)

// The ledger measures every layer in isolation, on one goroutine, by
// timing calls into its public functions. Each figure is the median over
// ledgerCalls calls unless the comment at the call site says otherwise
// (calls that cost a millisecond or an fsync get fewer so the ledger fits
// inside one traced run).
//
// Derived self times subtract the layers below from the layer above:
//
//	ion.self = ion.call − rpc.roundtrip − agios.pushpop − pfs
//	fwd.self = fwd.op   − ion.call
//
// so the chain pfs + agios + rpc + ion.self + fwd.self equals fwd.op by
// construction, and the reconciliation row compares that hand-assembled
// chain with the same op on a livestack-assembled single-node stack. A
// negative self time or a gap above gapTolerancePct means the subtraction
// model misses a layer; it is reported, never hidden.

const (
	ledgerCalls     = 2000
	gapTolerancePct = 15.0
)

type ledger struct {
	seed uint64
	// bare is a livestack-assembled single-node stack with no opt-ins:
	// the "off" side of the tax pairs and of the reconciliation rows.
	bare       *taxStack
	v          map[string]float64
	unmeasured []string
}

// p50us times each call of f and returns the median in µs.
func p50us(n int, f func() error) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(d)/1e3)
	}
	return median(xs), nil
}

// p50nsBatched is for calls too short to time one by one: it times
// batches of per calls and returns the median per-call cost in ns.
func p50nsBatched(batches, per int, f func() error) (float64, error) {
	xs := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		xs = append(xs, float64(time.Since(t0))/float64(per))
	}
	return median(xs), nil
}

// runLedger measures every layer and returns the per-layer metric values.
func runLedger(seed uint64) (*ledger, error) {
	l := &ledger{seed: seed, v: map[string]float64{}}
	bare, err := newTaxStack("bare", nil)
	if err != nil {
		return nil, err
	}
	defer bare.env.close()
	l.bare = bare
	for _, section := range []func() error{
		l.pfs, l.agios, l.rpcCodec, l.chain,
		l.mapping, l.solver, l.journal, l.arbiter, l.tax,
	} {
		if err := section(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *ledger) set(name string, v float64) { l.v[name] = v }

// derive records a self time and flags it when the model went negative.
func (l *ledger) derive(name string, v float64) {
	l.v[name] = v
	if v < 0 {
		l.unmeasured = append(l.unmeasured, fmt.Sprintf("%s = %.2f: the layers subtracted cost more in isolation than inside the call", name, v))
	}
}

const ledgerFile = 16 * mib

// offsets cycles through seeded aligned offsets so successive calls do
// not hit the same cache lines.
func (l *ledger) offsets(size int) func() int64 {
	rng := newRNG(l.seed, 6)
	return func() int64 { return int64(rng.IntN(ledgerFile/size)) * int64(size) }
}

func fillStore(fs pfs.FileSystem, path string) error {
	if err := fs.Create(path); err != nil {
		return err
	}
	buf := make([]byte, mib)
	for off := 0; off < ledgerFile; off += mib {
		if _, err := fs.Write(path, int64(off), buf); err != nil {
			return err
		}
	}
	return nil
}

func (l *ledger) pfs() error {
	store := pfs.NewStore(pfs.Config{})
	if err := fillStore(store, "/ledger"); err != nil {
		return err
	}
	for _, sz := range []struct {
		tag string
		n   int
	}{{"4k", 4 * kib}, {"512k", 512 * kib}} {
		buf := make([]byte, sz.n)
		next := l.offsets(sz.n)
		w, err := p50us(ledgerCalls, func() error { _, err := store.Write("/ledger", next(), buf); return err })
		if err != nil {
			return err
		}
		r, err := p50us(ledgerCalls, func() error { _, err := store.Read("/ledger", next(), buf); return err })
		if err != nil {
			return err
		}
		l.set("pfs.write_us."+sz.tag, w)
		l.set("pfs.read_us."+sz.tag, r)
	}
	ns, err := p50nsBatched(40, 50, func() error { _, err := store.Stat("/ledger"); return err })
	l.set("pfs.stat_us", ns/1e3)
	return err
}

func (l *ledger) agios() error {
	for _, name := range []string{"FIFO", "SJF", "AIOLI", "TWINS", "WFQ"} {
		sched, err := agios.NewByName(name)
		if err != nil {
			return err
		}
		q := agios.NewQueue(sched)
		next := l.offsets(4 * kib)
		ns, err := p50nsBatched(40, 50, func() error {
			if err := q.Push(&agios.Request{Path: "/ledger", Offset: next(), Size: 4 * kib, Op: agios.OpWrite}); err != nil {
				return err
			}
			q.PopWait()
			return nil
		})
		if err != nil {
			return err
		}
		l.set("agios.pushpop_ns."+name, ns)
	}
	// Aggregation: 64 contiguous pushes, children per dispatch.
	q := agios.NewQueue(agios.NewAIOLI(0))
	for i := 0; i < 64; i++ {
		if err := q.Push(&agios.Request{Path: "/ledger", Offset: int64(i) * 4 * kib, Size: 4 * kib, Op: agios.OpWrite}); err != nil {
			return err
		}
	}
	dispatches := 0
	for q.Len() > 0 {
		q.PopWait()
		dispatches++
	}
	l.set("agios.merge_ratio.AIOLI", 64/float64(dispatches))
	return nil
}

func (l *ledger) rpcCodec() error {
	for _, sz := range []struct {
		tag string
		n   int
	}{{"4k", 4 * kib}, {"512k", 512 * kib}} {
		msg := &rpc.Message{Op: rpc.OpWrite, Path: "/ledger", Offset: 1 << 20, Data: make([]byte, sz.n)}
		enc, err := p50nsBatched(40, 50, func() error { return rpc.WriteMessage(io.Discard, msg) })
		if err != nil {
			return err
		}
		l.set("rpc.encode_ns."+sz.tag, enc)
		var frame bytes.Buffer
		if err := rpc.WriteMessage(&frame, msg); err != nil {
			return err
		}
		rd := bytes.NewReader(nil)
		dec, err := p50nsBatched(40, 50, func() error {
			rd.Reset(frame.Bytes())
			m, err := rpc.ReadMessage(rd)
			if err == nil {
				m.Release()
			}
			return err
		})
		if err != nil {
			return err
		}
		l.set("rpc.decode_ns."+sz.tag, dec)
		if sz.tag == "512k" {
			sum, err := p50nsBatched(40, 50, func() error { return rpc.WriteMessageChecksum(io.Discard, msg) })
			if err != nil {
				return err
			}
			l.set("rpc.checksum_ns.512k", sum-enc)
		}
	}
	return nil
}

// interleave runs the lanes round-robin in blocks of per calls and
// returns each lane's median in µs. Latency on a two-core box drifts
// between scheduler regimes that last hundreds of calls; lanes measured
// side by side see the same mix, so their differences mean something.
func interleave(blocks, per int, lanes ...func() error) ([]float64, error) {
	xs := make([][]float64, len(lanes))
	for b := 0; b < blocks; b++ {
		for i, f := range lanes {
			for k := 0; k < per; k++ {
				t0 := time.Now()
				if err := f(); err != nil {
					return nil, err
				}
				xs[i] = append(xs[i], float64(time.Since(t0))/1e3)
			}
		}
	}
	out := make([]float64, len(lanes))
	for i := range xs {
		out[i] = median(xs[i])
	}
	return out, nil
}

// chain measures one op at every depth of the forwarding path, side by
// side: an rpc round trip carrying the same payload to a no-op handler,
// rpc.Client.Call into one ion.Daemon over a pfs.Store, the same op
// through a fwd.Client pinned to that daemon, and (for the two
// reconciliation rows) through the client of a livestack-assembled
// single-node stack.
func (l *ledger) chain() error {
	echo := rpc.NewServer(func(*rpc.Message) *rpc.Message { return nil })
	echoAddr, err := echo.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer echo.Close()
	wire := rpc.Dial(echoAddr, 1)
	defer wire.Close()

	store := pfs.NewStore(pfs.Config{})
	if err := fillStore(store, "/ledger"); err != nil {
		return err
	}
	sched, err := agios.NewByName("AIOLI")
	if err != nil {
		return err
	}
	d := ion.New(ion.Config{ID: "ledger", Scheduler: sched}, store)
	addr, err := d.Start("")
	if err != nil {
		return err
	}
	defer d.Close()
	raw := rpc.Dial(addr, 1)
	defer raw.Close()
	client, err := fwd.NewClient(fwd.Config{AppID: "ledger", Direct: store})
	if err != nil {
		return err
	}
	defer client.Close()
	client.SetIONs([]string{addr})

	call := func(c *rpc.Client, req *rpc.Message) error {
		resp, err := c.Call(req)
		resp.Release()
		return err
	}
	ops := []struct {
		tag         string
		size        int
		blocks, per int
		read, stat  bool
		wire        string // rpc.roundtrip row this op's frame corresponds to
		pfsRow      string // pfs row of the backend call ("" = measured as a lane)
		reconcile   bool
	}{
		{tag: "write4k", size: 4 * kib, blocks: 200, per: 10, wire: "4k", pfsRow: "pfs.write_us.4k", reconcile: true},
		{tag: "write512k", size: 512 * kib, blocks: 60, per: 10, wire: "512k", pfsRow: "pfs.write_us.512k", reconcile: true},
		{tag: "write4m", size: 4 * mib, blocks: 40, per: 2, wire: "4m"}, // ~3 ms per call
		{tag: "read512k", size: 512 * kib, blocks: 60, per: 10, read: true, wire: "512k", pfsRow: "pfs.read_us.512k"},
		{tag: "stat", blocks: 200, per: 10, stat: true, wire: "0k", pfsRow: "pfs.stat_us"},
	}
	for _, o := range ops {
		buf := make([]byte, o.size)
		next := func() int64 { return 0 }
		if o.size > 0 {
			next = l.offsets(o.size)
		}
		req := func() *rpc.Message {
			switch {
			case o.stat:
				return &rpc.Message{Op: rpc.OpStat, Path: "/ledger"}
			case o.read:
				return &rpc.Message{Op: rpc.OpRead, Path: "/ledger", Offset: next(), Size: int64(o.size)}
			default:
				return &rpc.Message{Op: rpc.OpWrite, Path: "/ledger", Offset: next(), Data: buf}
			}
		}
		through := func(fs pfs.FileSystem) func() error {
			return func() error {
				var err error
				switch {
				case o.stat:
					_, err = fs.Stat("/ledger")
				case o.read:
					_, err = fs.Read("/ledger", next(), buf)
				default:
					_, err = fs.Write("/ledger", next(), buf)
				}
				return err
			}
		}
		lanes := []func() error{
			// The echo handler ignores the payload, so a request-sized frame
			// one way stands in for a read's response-sized frame back.
			func() error { return call(wire, &rpc.Message{Op: rpc.OpWrite, Path: "/ledger", Data: buf}) },
			func() error { return call(raw, req()) },
			through(client),
			through(store),
		}
		if o.reconcile {
			lanes = append(lanes, through(l.bare.env.c))
		}
		us, err := interleave(o.blocks, o.per, lanes...)
		if err != nil {
			return fmt.Errorf("ledger chain %s: %w", o.tag, err)
		}
		rtt, ionCall, fwdOp, pfsUS := us[0], us[1], us[2], us[3]
		if o.pfsRow != "" {
			pfsUS = l.v[o.pfsRow] // the isolated, batched figure is the sharper one
		}
		queue := l.v["agios.pushpop_ns.AIOLI"] / 1e3
		if o.stat {
			queue = 0 // metadata bypasses the scheduler
		}
		if o.tag != "read512k" { // the 512k row comes from write512k
			l.set("rpc.roundtrip_us."+o.wire, rtt)
		}
		l.set("ion.call_us."+o.tag, ionCall)
		l.derive("ion.self_us."+o.tag, ionCall-rtt-queue-pfsUS)
		l.set("fwd.op_us."+o.tag, fwdOp)
		l.derive("fwd.self_us."+o.tag, fwdOp-ionCall)
		if o.reconcile {
			// Σ self times = fwd.op by construction, so the gap is what a
			// livestack-assembled node costs beyond the hand-assembled chain.
			gap := (us[4] - fwdOp) / us[4] * 100
			l.set("ledger.gap_pct."+o.tag, gap)
			if gap > gapTolerancePct || gap < -gapTolerancePct {
				l.unmeasured = append(l.unmeasured, fmt.Sprintf(
					"ledger.gap_pct.%s = %.1f%%: livestack p50 %.1f µs vs summed layers %.1f µs", o.tag, gap, us[4], fwdOp))
			}
		}
	}

	// Allocations per 512 KiB round trip (the PR 6 budget row).
	req := &rpc.Message{Op: rpc.OpWrite, Path: "/ledger", Data: make([]byte, 512*kib)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const allocCalls = 500
	for i := 0; i < allocCalls; i++ {
		if err := call(wire, req); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	l.set("rpc.allocs_per_call.512k", float64(m1.Mallocs-m0.Mallocs)/allocCalls)

	direct, err := fwd.NewClient(fwd.Config{AppID: "ledger-direct", Direct: store})
	if err != nil {
		return err
	}
	defer direct.Close()
	buf := make([]byte, 512*kib)
	next := l.offsets(len(buf))
	us, err := p50us(ledgerCalls, func() error { _, err := direct.Write("/ledger", next(), buf); return err })
	if err != nil {
		return err
	}
	l.set("fwd.direct_us.write512k", us)

	// ApplyMap: alternate between two allocations under rising versions.
	// Connections are dialled lazily, so the second address is never used.
	maps := [2]map[string][]string{{"ledger": {addr}}, {"ledger": {addr, "127.0.0.1:1"}}}
	ver := uint64(0)
	us, err = p50us(ledgerCalls, func() error {
		ver++
		client.ApplyMap(mapping.Map{Version: ver, IONs: maps[ver%2]})
		return nil
	})
	l.set("fwd.applymap_us", us)
	return err
}

func (l *ledger) mapping() error {
	const subscribers = 8
	bus := mapping.NewBus()
	var received atomic.Int64
	var cancels []func()
	done := make(chan struct{}, subscribers)
	for i := 0; i < subscribers; i++ {
		ch, cancel := bus.Subscribe()
		cancels = append(cancels, cancel)
		go func() {
			for range ch {
				received.Add(1)
			}
			done <- struct{}{}
		}()
	}
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
		for i := 0; i < subscribers; i++ {
			<-done
		}
	}()
	assign := sampleAssignment()
	want := int64(subscribers) // the initial map each subscriber starts with
	if !spin(func() bool { return received.Load() >= want }) {
		return fmt.Errorf("ledger: mapping subscribers never drained")
	}
	var publish []float64
	deliver, err := p50us(ledgerCalls, func() error {
		t0 := time.Now()
		bus.Publish(assign)
		publish = append(publish, float64(time.Since(t0))/1e3)
		want += subscribers
		if !spin(func() bool { return received.Load() >= want }) {
			return fmt.Errorf("ledger: mapping delivery stalled")
		}
		return nil
	})
	l.set("mapping.publish_us", median(publish))
	l.set("mapping.deliver_us", deliver)
	return err
}

func (l *ledger) solver() error {
	specs := perfmodel.SectionFiveTwoApps()
	var apps []policy.Application
	live := mckp.Problem{Capacity: churnPool}
	for _, s := range specs {
		apps = append(apps, policy.FromAppSpec(s.Label, s))
		c := mckp.Class{Label: s.Label}
		for _, pt := range s.Curve.Points() {
			c.Items = append(c.Items, mckp.Item{Weight: pt.IONs, Value: pt.Bandwidth.MBps()})
		}
		live.Classes = append(live.Classes, c)
	}
	us, err := p50us(ledgerCalls, func() error { _, err := mckp.SolveDP(live); return err })
	if err != nil {
		return err
	}
	l.set("mckp.solve_us.live", us)
	us, err = p50us(ledgerCalls, func() error { _, err := policy.MCKP{}.Allocate(apps, churnPool); return err })
	if err != nil {
		return err
	}
	l.set("policy.allocate_us.live", us)

	// Paper scale (§5.3): 512 classes × 256 I/O nodes; 5 solves.
	paper := mckp.Problem{Capacity: 256}
	for i := 0; i < 512; i++ {
		c := mckp.Class{Label: fmt.Sprintf("job%03d", i)}
		for j, w := range []int{0, 1, 2, 4, 8} {
			c.Items = append(c.Items, mckp.Item{Weight: w, Value: float64((i*31+j*7)%5000) + 1})
		}
		paper.Classes = append(paper.Classes, c)
	}
	us, err = p50us(5, func() error { _, err := mckp.SolveDP(paper); return err })
	l.set("mckp.solve_us.paper", us)
	return err
}

// sampleAssignment is a mapping of the churn workload's shape: eight jobs
// holding two I/O nodes each.
func sampleAssignment() map[string][]string {
	assign := map[string][]string{}
	for i := 0; i < churnSlots; i++ {
		assign[slotID(i)] = []string{"10.0.0.1:1", "10.0.0.2:1"}
	}
	return assign
}

func (l *ledger) journal() error {
	dir, err := scratchDir("ledger-journal")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jn, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return err
	}
	rec := journal.Record{Kind: journal.KindPublish, Assign: sampleAssignment()}
	// 400 appends: each one is an fsync on the recorded file system.
	us, err := p50us(400, func() error {
		rec.Epoch++
		_, err := jn.Append(rec)
		return err
	})
	jn.Close()
	if err != nil {
		return err
	}
	l.set("journal.append_us", us)

	// Replay of a 10,000-record journal (written without fsync: only the
	// read side is timed); 3 replays.
	big, err := scratchDir("ledger-replay")
	if err != nil {
		return err
	}
	defer os.RemoveAll(big)
	jn, err = journal.Open(big, journal.Options{NoSync: true})
	if err != nil {
		return err
	}
	for i := 0; i < 10000; i++ {
		rec.Epoch++
		if _, err := jn.Append(rec); err != nil {
			jn.Close()
			return err
		}
	}
	jn.Close()
	us, err = p50us(3, func() error { _, _, _, err := journal.Replay(big); return err })
	l.set("journal.replay_ms.10k", us/1e3)
	return err
}

// arbiter times the bare JobStarted/JobFinished call (solve + journal +
// publish, nobody subscribed) on the churn sequence, with and without a
// journal, then a recovery from that journal.
func (l *ledger) arbiter() error {
	addrs := fakePool(churnPool)
	decisions := func(arb *arbiter.Arbiter, calls int) (float64, error) {
		gen := newChurnGen(l.seed)
		var running [churnSlots]bool
		return p50us(calls, func() error {
			s := gen.next()
			var err error
			if running[s.slot] {
				err = arb.JobFinished(slotID(s.slot))
			} else {
				_, err = arb.JobStarted(policy.FromAppSpec(slotID(s.slot), s.app))
			}
			running[s.slot] = !running[s.slot]
			return err
		})
	}
	arb, err := arbiter.New(policy.MCKP{}, addrs, mapping.NewBus())
	if err != nil {
		return err
	}
	us, err := decisions(arb, ledgerCalls)
	if err != nil {
		return err
	}
	l.set("arbiter.decision_us.nojournal", us)

	dir, err := scratchDir("ledger-arbiter")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jn, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return err
	}
	arb, err = arbiter.New(policy.MCKP{}, addrs, mapping.NewBus())
	if err != nil {
		jn.Close()
		return err
	}
	arb.WithJournal(jn)
	us, err = decisions(arb, 400) // two fsyncs per start, one per finish
	jn.Close()
	if err != nil {
		return err
	}
	l.set("arbiter.decision_us.journal", us)

	// Recovery: reopen (replay) + Recover, every journaled node answering.
	us, err = p50us(3, func() error {
		jn, err := journal.Open(dir, journal.Options{})
		if err != nil {
			return err
		}
		defer jn.Close()
		_, err = arbiter.Recover(arbiter.RecoverConfig{
			Journal: jn, Policy: policy.MCKP{}, Bus: mapping.NewBus(),
			Probe: func(string) bool { return true },
		})
		return err
	})
	l.set("arbiter.recover_ms", us/1e3)
	return err
}

// taxStack is a single-I/O-node livestack with one attached client.
type taxStack struct {
	env *dataEnv
	buf []byte
}

func newTaxStack(name string, configure stackConfig) (*taxStack, error) {
	dir, err := scratchDir("ledger-tax-" + name)
	if err != nil {
		return nil, err
	}
	cfg := livestack.Config{IONs: 1}
	if configure != nil {
		if err := configure(&cfg, dir); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	st, err := livestack.Start(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	env := &dataEnv{st: st, tmp: dir}
	if env.c, err = st.NewClient(appID); err != nil {
		env.close()
		return nil, err
	}
	if _, err := st.Arbiter.JobStarted(peakedApp(appID, 1)); err != nil {
		env.close()
		return nil, err
	}
	if !spin(func() bool { return len(env.c.IONs()) == 1 }) {
		env.close()
		return nil, fmt.Errorf("ledger: %s stack never got its I/O node", name)
	}
	if err := fillStore(env.c, "/ledger"); err != nil {
		env.close()
		return nil, err
	}
	return &taxStack{env: env, buf: make([]byte, 512*kib)}, nil
}

func (t *taxStack) write(off int64, n int) error {
	_, err := t.env.c.Write("/ledger", off, t.buf[:n])
	return err
}

// paired interleaves blocks of 4 KiB forwarded writes on two stacks and
// returns both medians.
func (l *ledger) paired(on, off *taxStack) (onUS, offUS float64, err error) {
	next := l.offsets(4 * kib)
	us, err := interleave(200, 10,
		func() error { return on.write(next(), 4*kib) },
		func() error { return off.write(next(), 4*kib) })
	if err != nil {
		return 0, 0, err
	}
	return us[0], us[1], nil
}

// tax measures each opt-in's cost on a single-node 4 KiB forwarded write
// as p50(on) − p50(off), the two stacks interleaved.
func (l *ledger) tax() error {
	measure := func(name string, onCfg, baseCfg stackConfig) error {
		on, err := newTaxStack(name, onCfg)
		if err != nil {
			return err
		}
		defer on.env.close()
		off := l.bare
		if baseCfg != nil {
			if off, err = newTaxStack(name+"-base", baseCfg); err != nil {
				return err
			}
			defer off.env.close()
		}
		onUS, offUS, err := l.paired(on, off)
		if err != nil {
			return fmt.Errorf("ledger tax %s: %w", name, err)
		}
		l.set("tax."+name+"_us", onUS-offUS)
		return nil
	}
	for _, o := range optIns {
		on, base := armed(o.name), stackConfig(nil)
		if o.name == "hedge" { // needs the dedup window, so that is its baseline
			on, base = armed("dedup", "hedge"), armed("dedup")
		}
		if err := measure(o.name, on, base); err != nil {
			return err
		}
	}
	return measure("all", guardedConfig, nil)
}
