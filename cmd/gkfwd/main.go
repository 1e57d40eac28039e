// Command gkfwd runs the live forwarding system end to end on one machine:
// a PFS store, N I/O-node daemons over loopback TCP, the MCKP arbiter, and
// the Table 3 application kernels issuing real I/O through forwarding
// clients — the paper's GekkoFWD deployment in a box.
//
// Usage:
//
//	gkfwd -ions 4 -apps IOR-MPI,HACC -scheduler AIOLI
//	gkfwd -ions 12 -queue           # the §5.3 FIFO queue, 14 tiny-scale jobs
//	gkfwd -ions 4 -sweep HACC       # bandwidth vs allocated I/O nodes
//
// -apps and -queue both run their jobs through livestack.RunQueue: -apps
// starts every listed app at once, -queue admits the §5.3 jobs in FIFO
// order on 96 virtual compute nodes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	"repro/internal/livestack"
	"repro/internal/pattern"
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
		q, err := livestack.PaperLiveQueue()
		if err != nil {
			fail(err)
		}
		runJobs(st, "the §5.3 queue", q, 96)
	case plan.sweep != nil:
		runSweep(st, *plan.sweep, cfg.IONs)
	default:
		q, nodes := appJobs(plan.apps)
		runJobs(st, "-apps", q, nodes)
	}
}

// appJobs makes one live job per -apps entry, each arbitrated on its full
// Figure 5 curve (so direct access stays an option), and returns the
// compute nodes they occupy together: on that many, all start at once.
func appJobs(running []app) ([]livestack.LiveJob, int) {
	q := make([]livestack.LiveJob, len(running))
	nodes := 0
	for i, a := range running {
		id := fmt.Sprintf("%s#%d", a.label, i+1)
		q[i] = livestack.LiveJob{ID: id, App: policy.FromAppSpec(id, a.spec), Kernel: a.kernel}
		nodes += q[i].App.Nodes
	}
	return q, nodes
}

// runJobs runs q on the stack with livestack.RunQueue and prints each
// job's span and I/O, then the daemons' and the PFS's statistics.
func runJobs(st *livestack.Stack, what string, q []livestack.LiveJob, computeNodes int) {
	fmt.Printf("running %s live: %d jobs on %d virtual compute nodes\n", what, len(q), computeNodes)
	res, err := livestack.RunQueue(st, q, computeNodes)
	if err != nil {
		fail(err)
	}
	for _, j := range q { // FIFO: queue order is start order
		id, rep := j.ID, res.Reports[j.ID]
		fmt.Printf("  %-12s %2d I/O nodes at start  %10v → %10v  wrote %s read %s → %s\n", id, len(res.IONs[id]),
			res.Start[id].Round(1e6), res.End[id].Round(1e6),
			units.FormatBytes(rep.WriteBytes), units.FormatBytes(rep.ReadBytes), rep.Bandwidth)
	}
	fmt.Printf("completed in %v\n", res.Elapsed.Round(1e6))

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

// runSweep measures one kernel's live bandwidth at every I/O-node count
// Figure 5 has for it — direct access, then each power of two up to
// maxIONs that divides the app's compute nodes (pattern.IONOptions, as
// the model and forge.ReplaySweep count them): the live analogue of a
// Figure 5 column.
func runSweep(st *livestack.Stack, swept app, maxIONs int) {
	label, kernel := swept.label, swept.kernel
	fmt.Printf("live bandwidth sweep for %s:\n", label)
	for _, k := range pattern.IONOptions(swept.spec.Nodes, maxIONs, true) {
		client, err := st.NewClient(fmt.Sprintf("%s-k%d", label, k))
		if err != nil {
			fail(err)
		}
		client.SetIONs(st.Addrs[:k])
		rep, err := kernel.Run(client, fmt.Sprintf("/sweep%d", k))
		client.Close()
		if err != nil {
			fail(err)
		}
		fmt.Printf("  %d I/O nodes: %s (%s in %v)\n",
			k, rep.Bandwidth, units.FormatBytes(rep.WriteBytes+rep.ReadBytes), rep.Elapsed.Round(1e6))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gkfwd:", err)
	os.Exit(1)
}
