// Quickstart: bring up the live forwarding system, register a job with the
// MCKP arbiter, and move data through the I/O nodes — then watch a dynamic
// remap happen mid-run without disrupting the application.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/livestack"
	"repro/internal/perfmodel"
	"repro/internal/policy"
	"repro/internal/units"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A mini cluster: one PFS, four I/O-node daemons over TCP, and an
	// arbiter running the paper's MCKP policy.
	stack, err := livestack.Start(livestack.Config{IONs: 4})
	if err != nil {
		return err
	}
	defer stack.Close()
	fmt.Fprintf(w, "stack up: %d I/O nodes at %v\n", len(stack.Addrs), stack.Addrs)

	// A forwarding client for our application. Until the arbiter assigns
	// I/O nodes, it talks to the PFS directly.
	client, err := stack.NewClient("demo")
	if err != nil {
		return err
	}

	// Register the job: the arbiter solves the MCKP instance and
	// publishes a mapping, which the client picks up asynchronously.
	spec, err := perfmodel.AppByLabel("IOR-MPI")
	if err != nil {
		return err
	}
	assigned, err := stack.Arbiter.JobStarted(policy.FromAppSpec("demo", spec))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "arbiter assigned %d I/O nodes in %v\n", len(assigned), stack.Arbiter.LastSolveTime())
	if err := livestack.WaitForAllocation(client, len(assigned), 2*time.Second); err != nil {
		return err
	}

	// Do some I/O through the forwarding layer.
	payload := make([]byte, 4*units.MiB)
	for i := range payload {
		payload[i] = byte(i)
	}
	start := time.Now()
	if _, err := client.Write("/demo/data", 0, payload); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s through forwarding in %v\n",
		units.FormatBytes(int64(len(payload))), time.Since(start).Round(time.Millisecond))

	// A second job arrives: the arbiter re-arbitrates and our allocation
	// shrinks — mid-run, without touching the application.
	spec2, err := perfmodel.AppByLabel("HACC")
	if err != nil {
		return err
	}
	if _, err := stack.Arbiter.JobStarted(policy.FromAppSpec("neighbour", spec2)); err != nil {
		return err
	}
	now, _ := client.AwaitIONs(2*time.Second, func(ions []string) bool { return len(ions) != len(assigned) })
	fmt.Fprintf(w, "after the neighbour arrived our allocation is %d I/O nodes\n", len(now))

	// Keep writing and read everything back: the remap was transparent.
	if _, err := client.Write("/demo/data", int64(len(payload)), payload); err != nil {
		return err
	}
	buf := make([]byte, 2*len(payload))
	if _, err := client.Read("/demo/data", 0, buf); err != nil {
		return err
	}
	for i := range payload {
		if buf[i] != payload[i] || buf[len(payload)+i] != payload[i] {
			return fmt.Errorf("data corrupted at %d", i)
		}
	}
	fmt.Fprintln(w, "read back verified: dynamic remap was transparent")

	st := client.Stats()
	fmt.Fprintf(w, "client stats: %d forwarded ops, %d direct ops, %d remaps\n",
		st.ForwardedOps, st.DirectOps, st.RemapsApplied)
	return nil
}
