// Sharednode demonstrates the paper's §3.1 sharing extension: on a
// platform where applications cannot bypass the forwarding layer and I/O
// nodes are scarce, one system-wide shared I/O node absorbs the
// least-performant applications (valued at the paper's pessimistic
// bandwidth(1)/numApps estimate) so the dedicated nodes concentrate on the
// applications that convert them into bandwidth.
//
//	go run ./examples/sharednode
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/perfmodel"
	"repro/internal/policy"
	"repro/internal/units"
)

func app(id string, mbps1, mbps2, mbps4, mbps8 float64) policy.Application {
	return policy.Application{
		ID: id, Nodes: 16, Processes: 64,
		Curve: perfmodel.NewCurve(
			perfmodel.Point{IONs: 1, Bandwidth: units.BandwidthFromMBps(mbps1)},
			perfmodel.Point{IONs: 2, Bandwidth: units.BandwidthFromMBps(mbps2)},
			perfmodel.Point{IONs: 4, Bandwidth: units.BandwidthFromMBps(mbps4)},
			perfmodel.Point{IONs: 8, Bandwidth: units.BandwidthFromMBps(mbps8)},
		),
	}
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// One I/O-hungry application and three that barely profit from
	// forwarding — but direct PFS access is not available, so under plain
	// MCKP everyone must occupy at least one dedicated node.
	apps := []policy.Application{
		app("hungry", 500, 1200, 2800, 6000),
		app("meek-1", 50, 55, 58, 60),
		app("meek-2", 40, 44, 46, 48),
		app("meek-3", 30, 33, 35, 36),
	}
	const pool = 10

	evaluate := func(name string, alloc policy.Allocation, shared []string) {
		users := map[string]bool{}
		for _, id := range shared {
			users[id] = true
		}
		var total float64
		fmt.Fprintf(w, "%s:\n", name)
		for _, a := range apps {
			if users[a.ID] {
				bw1, _ := a.Curve.At(1)
				est := float64(bw1) / float64(len(apps))
				total += est
				fmt.Fprintf(w, "  %-8s shared node      (est %7.1f MB/s)\n", a.ID, est/1e6)
				continue
			}
			bw, _ := a.Curve.At(alloc[a.ID])
			total += float64(bw)
			fmt.Fprintf(w, "  %-8s %d dedicated IONs (%9.1f MB/s)\n", a.ID, alloc[a.ID], bw.MBps())
		}
		fmt.Fprintf(w, "  aggregate: %.1f MB/s\n\n", total/1e6)
	}

	plain, err := (policy.MCKP{}).Allocate(apps, pool)
	if err != nil {
		return err
	}
	evaluate("plain MCKP (everyone needs a dedicated node)", plain, nil)

	withShared := policy.WithShared{}
	alloc, shared, err := withShared.AllocateShared(apps, pool)
	if err != nil {
		return err
	}
	evaluate(fmt.Sprintf("%s (one node reserved for sharing)", withShared.Name()), alloc, shared)

	fmt.Fprintln(w, "the meek applications cost almost nothing on the shared node,")
	fmt.Fprintln(w, "freeing the dedicated pool for the application that can use it.")
	return nil
}
