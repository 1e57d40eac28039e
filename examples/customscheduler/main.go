// Customscheduler shows the AGIOS extension point the paper highlights:
// GekkoFWD embeds a scheduling library precisely so new request schedulers
// can be prototyped at the I/O nodes. Here we implement a deadline-boosted
// shortest-job-first scheduler, plug it into a live daemon, and compare its
// dispatch behaviour against plain FIFO.
//
//	go run ./examples/customscheduler
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/agios"
	"repro/internal/ion"
	"repro/internal/pfs"
	"repro/internal/rpc"
	"repro/internal/units"
)

// DeadlineSJF serves the smallest request first, unless a request has
// waited longer than MaxWait, in which case the oldest starving request is
// served first. It implements agios.Scheduler.
type DeadlineSJF struct {
	MaxWait time.Duration
	q       []*agios.Request
}

// Name implements agios.Scheduler.
func (d *DeadlineSJF) Name() string { return "DEADLINE-SJF" }

// Push implements agios.Scheduler.
func (d *DeadlineSJF) Push(r *agios.Request) { d.q = append(d.q, r) }

// Pop implements agios.Scheduler.
func (d *DeadlineSJF) Pop() (*agios.Request, bool) {
	if len(d.q) == 0 {
		return nil, false
	}
	now := time.Now()
	pick := 0
	starving := false
	for i, r := range d.q {
		if now.Sub(r.Arrival) > d.MaxWait {
			// Oldest starving request wins outright.
			if !starving || r.Arrival.Before(d.q[pick].Arrival) {
				pick, starving = i, true
			}
			continue
		}
		if !starving && r.Size < d.q[pick].Size {
			pick = i
		}
	}
	r := d.q[pick]
	d.q = append(d.q[:pick], d.q[pick+1:]...)
	return r, true
}

// Len implements agios.Scheduler.
func (d *DeadlineSJF) Len() int { return len(d.q) }

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	store := pfs.NewStore(pfs.Config{})
	daemon := ion.New(ion.Config{
		ID:          "custom0",
		Scheduler:   &DeadlineSJF{MaxWait: 50 * time.Millisecond},
		Dispatchers: 1, // one dispatch slot, so ordering is observable
	}, store)
	addr, err := daemon.Start("")
	if err != nil {
		return err
	}
	defer daemon.Close()
	fmt.Fprintf(w, "I/O node %s running the %s scheduler\n", addr, daemon.SchedulerName())

	// Mixed load: large writes from one client, latency-sensitive small
	// writes from another. SJF lets the small ones jump the queue; the
	// deadline keeps the large ones from starving.
	cli := rpc.Dial(addr, 8)
	defer cli.Close()
	var wg sync.WaitGroup
	results := make(chan string, 64)
	submit := func(tag string, path string, size int64, n int) {
		defer wg.Done()
		buf := make([]byte, size)
		for i := 0; i < n; i++ {
			start := time.Now()
			if _, err := cli.Call(&rpc.Message{Op: rpc.OpWrite, Path: path, Offset: int64(i) * size, Data: buf}); err != nil {
				results <- fmt.Sprintf("%s: error %v", tag, err)
				return
			}
			results <- fmt.Sprintf("%-6s %8s in %v", tag, units.FormatBytes(size), time.Since(start).Round(time.Microsecond))
		}
	}
	wg.Add(2)
	go submit("bulk", "/bulk", 4*units.MiB, 6)
	go submit("small", "/small", 4*units.KiB, 12)
	wg.Wait()
	close(results)
	for line := range results {
		fmt.Fprintln(w, " ", line)
	}

	s := daemon.Stats()
	fmt.Fprintf(w, "daemon handled %d writes, %s ingress\n", s.Writes, units.FormatBytes(s.BytesIn))
	fmt.Fprintln(w, "swap in agios.NewFIFO()/NewSJF()/NewAIOLI()/NewTWINS() to compare policies")
	return nil
}
