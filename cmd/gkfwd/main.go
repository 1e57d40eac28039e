// Command gkfwd runs the live forwarding system end to end on one machine:
// a PFS store, N I/O-node daemons over loopback TCP, the MCKP arbiter, and
// the Table 3 application kernels issuing real I/O through forwarding
// clients — the paper's GekkoFWD deployment in a box.
//
// Usage:
//
//	gkfwd -ions 4 -apps IOR-MPI,HACC -scheduler AIOLI
//	gkfwd -ions 4 -sweep HACC       # bandwidth vs allocated I/O nodes
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"

	"repro/internal/livestack"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/units"
)

func main() {
	cfg, plan, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fail(err)
	}
	st, err := livestack.Start(cfg)
	if err != nil {
		fail(err)
	}
	defer st.Close()
	fmt.Printf("started %d I/O nodes (%s scheduling) and the %s arbiter\n",
		cfg.IONs, st.Scheduler(), st.Arbiter.PolicyName())

	if plan.metricsAddr != "" {
		ln, err := net.Listen("tcp", plan.metricsAddr)
		if err != nil {
			fail(err)
		}
		defer ln.Close()
		srv := &http.Server{Handler: telemetry.Handler(st.Telemetry, st.Tracer)}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Printf("telemetry on http://%s/metrics and /trace/recent\n", ln.Addr())
	}

	switch {
	case plan.queue:
		runLiveQueue(st)
	case plan.sweep != nil:
		runSweep(st, *plan.sweep, cfg.IONs)
	default:
		runConcurrent(st, plan.apps)
	}
}

func runConcurrent(st *livestack.Stack, running []app) {
	var wg sync.WaitGroup
	for i, a := range running {
		id := fmt.Sprintf("%s#%d", a.label, i+1)
		client, err := st.NewClient(id)
		if err != nil {
			fail(err)
		}
		got, err := st.Arbiter.JobStarted(policy.FromAppSpec(id, a.spec))
		if err != nil {
			fail(err)
		}
		fmt.Printf("  %-12s assigned %d I/O nodes (solve %v)\n", id, len(got), st.Arbiter.LastSolveTime())
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := a.kernel.Run(client, "/"+id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "  %-12s FAILED: %v\n", id, err)
				return
			}
			fmt.Printf("  %-12s wrote %s read %s in %v → %s\n",
				id, units.FormatBytes(rep.WriteBytes), units.FormatBytes(rep.ReadBytes),
				rep.Elapsed.Round(1e6), rep.Bandwidth)
			if err := st.Arbiter.JobFinished(id); err != nil {
				fmt.Fprintf(os.Stderr, "  %-12s finish: %v\n", id, err)
			}
		}()
	}
	wg.Wait()

	fmt.Println("\nI/O-node daemon statistics:")
	for _, d := range st.Daemons {
		s := d.Stats()
		fmt.Printf("  %-6s writes %6d reads %6d in %10s dispatches %6d (merged %d)\n",
			d.ID(), s.Writes, s.Reads, units.FormatBytes(s.BytesIn), s.Dispatches, s.Aggregated)
	}
	m := st.Store.Metrics()
	fmt.Printf("PFS: %s written, %s read, %d seeks, %d lock handoffs, per-OST %v\n",
		units.FormatBytes(m.BytesWritten), units.FormatBytes(m.BytesRead), m.Seeks, m.LockWaits, m.PerOSTBytes)
}

// runSweep measures one kernel's live bandwidth at every ION count — the
// live analogue of a Figure 5 column.
func runSweep(st *livestack.Stack, swept app, maxIONs int) {
	label, kernel := swept.label, swept.kernel
	fmt.Printf("live bandwidth sweep for %s:\n", label)
	for k := 0; k <= maxIONs; k++ {
		if k != 0 && k != 1 && k%2 != 0 {
			continue
		}
		client, err := st.NewClient(fmt.Sprintf("%s-k%d", label, k))
		if err != nil {
			fail(err)
		}
		client.SetIONs(st.Addrs[:k])
		rep, err := kernel.Run(client, fmt.Sprintf("/sweep%d", k))
		if err != nil {
			fail(err)
		}
		fmt.Printf("  %d I/O nodes: %s (%s in %v)\n",
			k, rep.Bandwidth, units.FormatBytes(rep.WriteBytes+rep.ReadBytes), rep.Elapsed.Round(1e6))
	}
}

// runLiveQueue replays the §5.3 FIFO queue with tiny-scale kernels.
func runLiveQueue(st *livestack.Stack) {
	q, err := livestack.PaperLiveQueue()
	if err != nil {
		fail(err)
	}
	fmt.Printf("running the §5.3 queue live: %d jobs on 96 virtual compute nodes\n", len(q))
	res, err := livestack.RunQueue(st, q, 96)
	if err != nil {
		fail(err)
	}
	ids := make([]string, 0, len(res.Reports))
	for id := range res.Reports {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return res.Start[ids[i]] < res.Start[ids[j]] })
	for _, id := range ids {
		rep := res.Reports[id]
		fmt.Printf("  %-10s %10v → %10v  %12s  %s\n", id,
			res.Start[id].Round(1e6), res.End[id].Round(1e6),
			units.FormatBytes(rep.WriteBytes+rep.ReadBytes), rep.Bandwidth)
	}
	fmt.Printf("queue completed in %v\n", res.Elapsed.Round(1e6))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gkfwd:", err)
	os.Exit(1)
}
