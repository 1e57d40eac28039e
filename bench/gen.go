package main

import (
	"encoding/binary"
	"math/rand/v2"

	"repro/internal/perfmodel"
	"repro/internal/policy"
)

// Every input the stack sees is drawn from the run's seed through the
// generators in this file; the program under test never sees the seed.

const (
	kib = 1 << 10
	mib = 1 << 20

	streamReq  = 4 * mib  // paper pattern H request size
	streamFile = 64 * mib // one cycle = 16 writes then 16 read-backs

	smallReq  = 4 * kib
	smallFile = 16 * mib
	// scratchEvery: every 64th metadata op is a Create+Remove pair on a
	// scratch path instead of a Stat.
	scratchEvery = 64

	churnSlots = 8
)

// newRNG derives an independent stream per purpose from one seed, so
// adding a draw to one generator never shifts another.
func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// randomBytes fills a fresh n-byte buffer from rng.
func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
	return b
}

// Op kinds. Each workload uses a prefix of its own table (see kindNames).
const (
	kindWrite = iota
	kindRead
	kindMeta
	numDataKinds
)

const (
	kindStart = iota
	kindFinish
)

// smallOp is one generated request of the small_* workloads.
type smallOp struct {
	kind    int
	off     int64 // file offset (write/read)
	src     int   // payload pool offset (write)
	scratch bool  // meta: Create+Remove instead of Stat
}

// smallGen yields the small_mixed / small_guarded op stream: 50 % 4 KiB
// writes, 40 % 4 KiB reads at random 4 KiB-aligned offsets, 10 % metadata.
type smallGen struct {
	rng   *rand.Rand
	metas int
	pool  int // payload pool size
}

func newSmallGen(seed uint64, pool int) *smallGen {
	return &smallGen{rng: newRNG(seed, 1), pool: pool}
}

func (g *smallGen) next() smallOp {
	r := g.rng.IntN(10)
	switch {
	case r < 5:
		return smallOp{
			kind: kindWrite,
			off:  int64(g.rng.IntN(smallFile/smallReq)) * smallReq,
			src:  g.rng.IntN(g.pool - smallReq),
		}
	case r < 9:
		return smallOp{kind: kindRead, off: int64(g.rng.IntN(smallFile/smallReq)) * smallReq}
	default:
		g.metas++
		return smallOp{kind: kindMeta, scratch: g.metas%scratchEvery == 0}
	}
}

// churnStep is one generated control-plane event: toggle a job slot.
type churnStep struct {
	slot int
	app  perfmodel.AppSpec // drawn application (JobStarted only)
}

// churnGen yields the arbiter_churn toggle sequence. Whether a step is a
// start or a finish follows from the slot's state, which the driver owns.
type churnGen struct {
	rng  *rand.Rand
	apps []perfmodel.AppSpec
}

func newChurnGen(seed uint64) *churnGen {
	return &churnGen{rng: newRNG(seed, 2), apps: perfmodel.EvaluationApps()}
}

func (g *churnGen) next() churnStep {
	return churnStep{slot: g.rng.IntN(churnSlots), app: g.apps[g.rng.IntN(len(g.apps))]}
}

// peakedApp is a synthetic application whose bandwidth curve over
// {1,2,4} I/O nodes peaks at `peak`, so MCKP grants exactly that many
// from a 4-node pool.
func peakedApp(id string, peak int) policy.Application {
	var pts []perfmodel.Point
	for _, k := range []int{1, 2, 4} {
		d := k - peak
		if d < 0 {
			d = -d
		}
		pts = append(pts, perfmodel.Point{IONs: k, Bandwidth: mbps(float64(400 - 100*d))})
	}
	return policy.Application{ID: id, Nodes: 4, Processes: 4, Curve: perfmodel.NewCurve(pts...)}
}
