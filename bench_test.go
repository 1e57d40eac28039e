package repro

import (
	"fmt"
	"testing"

	"repro/internal/agios"
	"repro/internal/experiments"
	"repro/internal/forge"
	"repro/internal/fwd"
	"repro/internal/ion"
	"repro/internal/mckp"
	"repro/internal/perfmodel"
	"repro/internal/pfs"
	"repro/internal/policy"
	"repro/internal/units"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index). Aggregate
// outcomes are reported as benchmark metrics so `go test -bench` output
// doubles as the reproduction record.

// benchSets is the campaign size used by the Figure 2/3 benchmarks. The
// paper uses 10,000 sets; medians are stable well below that, and the full
// size can be reproduced with `go test -bench Figure2 -benchtime 1x
// -timeout 0` after editing this constant.
const benchSets = 2000

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.ExpTable1()
		if len(r.Rows) != 4 {
			b.Fatal("table 1 incomplete")
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.ExpFigure1()
		if len(r.Labels) != 8 {
			b.Fatal("figure 1 incomplete")
		}
	}
}

func BenchmarkOptimumDistribution(b *testing.B) {
	var r experiments.OptimumDistributionResult
	for i := 0; i < b.N; i++ {
		r = experiments.ExpOptimumDistribution()
	}
	for _, k := range []int{0, 1, 2, 4, 8} {
		b.ReportMetric(r.SharePct[k], fmt.Sprintf("pct-best-at-%d-IONs", k))
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpFigure2(benchSets, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GBps["MCKP"][56], "MCKP-GBps-at-56")
		b.ReportMetric(r.GBps["ORACLE"][56], "ORACLE-GBps-at-56")
		b.ReportMetric(r.GBps["STATIC"][56], "STATIC-GBps-at-56")
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpFigure3(benchSets, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PeakMedian, "peak-median-ratio")
		b.ReportMetric(float64(r.PeakPool), "peak-pool-IONs")
		b.ReportMetric(r.OverallMax, "max-ratio")
	}
}

func BenchmarkPolicyHeadlines(b *testing.B) {
	fig2, err := experiments.ExpFigure2(benchSets, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var h experiments.PolicyHeadlinesResult
	for i := 0; i < b.N; i++ {
		h = experiments.ExpPolicyHeadlines(fig2)
	}
	b.ReportMetric(h.OneVsZeroMedianSlowdownPct, "ONE-vs-ZERO-slowdown-pct")
	b.ReportMetric(h.OracleVsZeroMedianBoostPct, "ORACLE-vs-ZERO-boost-pct")
}

// BenchmarkCampaignWorkers measures the parallel campaign engine behind
// Figures 2–3 at several worker counts. workers=1 is the serial baseline;
// the speedup of workers=N over workers=1 is the engine's scaling record
// (results are byte-identical at every worker count, see
// forge.TestParallelCampaignMatchesSerial).
func BenchmarkCampaignWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := forge.DefaultConfig()
			cfg.Sets = 400
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := forge.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cfg.Sets)*float64(b.N)/b.Elapsed().Seconds(), "sets/s")
		})
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.ExpFigure5()
		if len(r.Apps) != 9 {
			b.Fatal("figure 5 incomplete")
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	var r experiments.Figure6Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.ExpFigure6()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MCKPOverStatic12, "MCKP-over-STATIC-at-12")
	b.ReportMetric(r.MCKPOverProcess12, "MCKP-over-PROCESS-at-12")
	b.ReportMetric(float64(r.OracleMatchPool), "oracle-match-pool")
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpTable4()
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 6 {
			b.Fatal("table 4 incomplete")
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExpFigure7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExpFigure8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	var r experiments.Figure9Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.ExpFigure9()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MCKPOverStatic, "MCKP-over-STATIC")
	b.ReportMetric(r.AggregateMBps["MCKP"]/1000, "MCKP-aggregate-GBps")
	b.ReportMetric(r.AggregateMBps["STATIC"]/1000, "STATIC-aggregate-GBps")
}

// --- Solver cost (§5.3: 399 µs live case, 2.7 s at 512 jobs × 256 IONs) --

func BenchmarkMCKPSolverLiveCase(b *testing.B) {
	specs := perfmodel.SectionFiveTwoApps()
	apps := make([]policy.Application, 0, len(specs))
	for _, s := range specs {
		apps = append(apps, policy.FromAppSpec(s.Label, s))
	}
	p := policy.MCKP{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Allocate(apps, 12); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMCKPSolverPaperScale(b *testing.B) {
	prob := mckp.Problem{Capacity: 256}
	for i := 0; i < 512; i++ {
		c := mckp.Class{Label: fmt.Sprintf("job%03d", i)}
		for j, w := range []int{0, 1, 2, 4, 8} {
			c.Items = append(c.Items, mckp.Item{Weight: w, Value: float64((i*31+j*7)%5000) + 1})
		}
		prob.Classes = append(prob.Classes, c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mckp.SolveDP(prob); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Forwarding stack micro-benchmarks ------------------------------------

func BenchmarkPFSWrite1MiB(b *testing.B) {
	store := pfs.NewStore(pfs.Config{Discard: true})
	buf := make([]byte, units.MiB)
	b.SetBytes(units.MiB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Write("/bench", int64(i)*units.MiB, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAGIOSSchedulers(b *testing.B) {
	for _, name := range []string{"FIFO", "SJF", "AIOLI", "TWINS", "HBRR"} {
		b.Run(name, func(b *testing.B) {
			sched, err := agios.NewByName(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				sched.Push(&agios.Request{
					Path:   "/f",
					Offset: int64(i%64) * 4096,
					Size:   4096,
					Op:     agios.OpWrite,
					Seq:    uint64(i),
				})
				if i%8 == 7 {
					for {
						if _, ok := sched.Pop(); !ok {
							break
						}
					}
				}
			}
		})
	}
}

// BenchmarkForwardedWrite measures end-to-end client→ION→PFS throughput
// over loopback TCP with 512 KiB chunks.
func BenchmarkForwardedWrite(b *testing.B) {
	store := pfs.NewStore(pfs.Config{Discard: true})
	daemons := make([]*ion.Daemon, 2)
	addrs := make([]string, 2)
	for i := range daemons {
		daemons[i] = ion.New(ion.Config{ID: fmt.Sprintf("ion%d", i)}, store)
		addr, err := daemons[i].Start("")
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = addr
		defer daemons[i].Close()
	}
	client, err := fwd.NewClient(fwd.Config{AppID: "bench", Direct: store})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	client.SetIONs(addrs)

	buf := make([]byte, units.MiB)
	b.SetBytes(units.MiB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Write("/bench", int64(i)*units.MiB, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDynamic quantifies the value of dynamic reallocation
// (the paper's differentiator against DFRA's fixed-at-start sizing) and of
// the future-work idle-node recruiting.
func BenchmarkAblationDynamic(b *testing.B) {
	var r experiments.AblationDynamicResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.ExpAblationDynamic()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Advantage, "dynamic-over-fixed")
	b.ReportMetric(r.RecruitedMBps/r.NoForwardingMBps, "recruit-over-direct")
}

// BenchmarkQueueRobustness runs the §5.3 comparison over a population of
// random queues instead of the paper's single selected one.
func BenchmarkQueueRobustness(b *testing.B) {
	var r experiments.QueueRobustnessResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.ExpQueueRobustness(50)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Summary.Min, "min-ratio")
	b.ReportMetric(r.Summary.Median, "median-ratio")
	b.ReportMetric(r.Summary.Max, "max-ratio")
}
