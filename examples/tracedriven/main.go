// Tracedriven shows the paper's §3.1 characterization pipeline end to end:
// run an application once under Darshan-style tracing, extract its base
// access pattern from the counters, estimate its bandwidth-vs-I/O-node
// curve with the performance model, and feed that curve to the MCKP policy
// — no per-configuration profiling runs needed.
//
//	go run ./examples/tracedriven
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/apps"
	"repro/internal/darshan"
	"repro/internal/perfmodel"
	"repro/internal/pfs"
	"repro/internal/policy"
	"repro/internal/units"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// First execution of an unknown application: trace it.
	store := pfs.NewStore(pfs.Config{})
	tracer := darshan.NewTracer(store)
	kernel := apps.IOR{
		Label: "mystery-app", Ranks: 32,
		BlockSize: 2 * units.MiB, TransferSize: 128 * units.KiB,
		ReadBack: false,
	}
	if _, err := kernel.Run(tracer, "/run1"); err != nil {
		return err
	}
	rep := tracer.Report()
	fmt.Fprintf(w, "trace: %d files, %d writes (%s), %d consecutive, median request %s\n",
		rep.Files, rep.WriteOps, units.FormatBytes(rep.BytesWritten),
		rep.ConsecWrites, units.FormatBytes(rep.MedianReqSize))

	// Extract the base access pattern (the scheduler knows the geometry).
	const nodes, procs = 8, 32
	pat := rep.ExtractPattern(nodes, procs)
	fmt.Fprintf(w, "extracted pattern: %s\n", pat)

	// Estimate the full curve from the pattern — the paper's alternative
	// to exploratory runs at every forwarding configuration.
	curve := darshan.EstimateCurve(pat, perfmodel.Default(), 8, true)
	fmt.Fprintln(w, "estimated bandwidth curve:")
	for _, pt := range curve.Points() {
		fmt.Fprintf(w, "  %d I/O nodes: %s\n", pt.IONs, pt.Bandwidth)
	}

	// The curve becomes the application's MCKP class next time it runs
	// alongside others.
	known := policy.Application{ID: "mystery-app", Nodes: nodes, Processes: procs, Curve: curve}
	neighbour, err := perfmodel.AppByLabel("IOR-MPI")
	if err != nil {
		return err
	}
	appsList := []policy.Application{known, policy.FromAppSpec("IOR-MPI", neighbour)}
	alloc, err := (policy.MCKP{}).Allocate(appsList, 12)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "MCKP decision with 12 I/O nodes: mystery-app=%d, IOR-MPI=%d\n",
		alloc["mystery-app"], alloc["IOR-MPI"])
	total, err := policy.SumBandwidth(appsList, alloc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "predicted aggregate: %s\n", total)
	return nil
}
