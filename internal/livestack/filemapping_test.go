package livestack

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fwd"
	"repro/internal/mapping"
	"repro/internal/perfmodel"
	"repro/internal/policy"
)

// TestFileBasedMappingDistribution wires the production GekkoFWD flow end
// to end: the arbiter publishes to the bus, a FileSink mirrors decisions
// into a mapping file, a polling Watcher (the client-side thread that
// checks "every 10 s by default", shortened here) picks them up, and the
// forwarding client applies them.
func TestFileBasedMappingDistribution(t *testing.T) {
	st, err := Start(Config{IONs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	mapPath := filepath.Join(t.TempDir(), "gkfwd.map")
	stopSink := mapping.FileSink(st.Bus, mapPath, nil)
	defer stopSink()

	client, err := fwd.NewClient(fwd.Config{AppID: "filejob", Direct: st.Store})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	w := mapping.NewWatcher(mapPath, 5*time.Millisecond)
	defer w.Stop()
	cancel := client.Watch(w.Updates())
	defer cancel()

	spec, err := perfmodel.AppByLabel("IOR-MPI")
	if err != nil {
		t.Fatal(err)
	}
	assigned, err := st.Arbiter.JobStarted(policy.FromAppSpec("filejob", spec))
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitForAllocation(client, len(assigned), 3*time.Second); err != nil {
		t.Fatalf("file-based mapping never reached the client: %v", err)
	}

	// Traffic flows through the file-assigned I/O nodes.
	if _, err := client.Write("/filejob/x", 0, make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	var daemonBytes int64
	for _, d := range st.Daemons {
		daemonBytes += d.Stats().BytesIn
	}
	if daemonBytes != 64<<10 {
		t.Fatalf("daemons saw %d bytes", daemonBytes)
	}

	// A reallocation travels the same path.
	if err := st.Arbiter.JobFinished("filejob"); err != nil {
		t.Fatal(err)
	}
	if err := waitForMapping(client, 3*time.Second, "its release", func(n int) bool { return n == 0 }); err != nil {
		t.Fatalf("release never reached the client: %v", err)
	}
}
