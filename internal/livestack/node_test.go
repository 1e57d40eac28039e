package livestack

import (
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rpc"
)

// TestElasticNodeRecordLifecycle walks one stack through every way a
// daemon enters, leaves and re-enters it, and checks after each step that
// the per-address record and the exported position-aligned tables tell the
// same story.
func TestElasticNodeRecordLifecycle(t *testing.T) {
	wrapped := map[int]int{} // daemon index → listeners handed to the hook
	st, err := Start(Config{IONs: 2, WrapListener: func(i int, ln net.Listener) net.Listener {
		wrapped[i]++
		return ln
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var spawned string

	steps := []struct {
		name    string
		do      func() error
		refused string // what the step's error must name ("" = it must succeed)
		binds   int    // daemon index whose listener the step hands to the hook (-1 = none)
		nodes   int    // daemons the stack knows afterwards
		gone    bool   // the spawned daemon is decommissioned afterwards
	}{
		{name: "Start(2)", do: func() error { return nil }, binds: -1, nodes: 2},
		{name: "SpawnION", do: func() (err error) { spawned, err = st.SpawnION(); return }, binds: 2, nodes: 3},
		{name: "kill + RestartION(1)", do: func() error { st.Daemons[1].Close(); return st.RestartION(1) }, binds: 1, nodes: 3},
		{name: "DecommissionION(spawned)", do: func() error { return st.DecommissionION(spawned) }, binds: -1, nodes: 3, gone: true},
		{name: "DecommissionION again", do: func() error { return st.DecommissionION(spawned) }, binds: -1, nodes: 3, gone: true},
		{name: "RestartION(decommissioned)", do: func() error { return st.RestartION(2) },
			refused: "was decommissioned", binds: -1, nodes: 3, gone: true},
		{name: "RestartION(out of range)", do: func() error { return st.RestartION(3) },
			refused: "no I/O node 3", binds: -1, nodes: 3, gone: true},
		{name: "DecommissionION(unknown)", do: func() error { return st.DecommissionION("nobody:1") },
			refused: "no I/O node at nobody:1", binds: -1, nodes: 3, gone: true},
	}
	wantWrapped := map[int]int{0: 1, 1: 1} // Start bound one listener per daemon
	for _, step := range steps {
		err := step.do()
		if step.refused == "" && err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if step.refused != "" && (err == nil || !strings.Contains(err.Error(), step.refused)) {
			t.Fatalf("%s: err = %v, want one naming %q", step.name, err, step.refused)
		}
		if step.binds >= 0 {
			wantWrapped[step.binds]++
		}
		if !reflect.DeepEqual(wrapped, wantWrapped) {
			t.Fatalf("%s: WrapListener saw %v, want %v", step.name, wrapped, wantWrapped)
		}
		addrs := st.IONAddrs()
		if len(addrs) != step.nodes || len(st.Daemons) != step.nodes || !reflect.DeepEqual(addrs, st.Addrs) {
			t.Fatalf("%s: %d daemons, Addrs %v, IONAddrs %v; want %d aligned", step.name, len(st.Daemons), st.Addrs, addrs, step.nodes)
		}
		gone := ""
		if step.gone {
			gone = spawned
		}
		for i, a := range addrs {
			if st.Daemons[i].Addr() != a || st.DaemonAt(a) != st.Daemons[i] {
				t.Fatalf("%s: position %d: Daemons[i].Addr()=%s Addrs[i]=%s DaemonAt match=%v",
					step.name, i, st.Daemons[i].Addr(), a, st.DaemonAt(a) == st.Daemons[i])
			}
			// Two looks at an idle daemon: the first is never quiet, the
			// second is; a decommissioned one is quiet at once and keeps no
			// sample.
			st.mu.Lock()
			st.nodes[a].last = nil
			st.mu.Unlock()
			first, second := st.ionQuiesced(a), st.ionQuiesced(a)
			if a == gone {
				st.mu.Lock()
				n := st.nodes[a]
				st.mu.Unlock()
				if !first || !second || !n.gone || n.last != nil {
					t.Fatalf("%s: gone node %s: quiesced %v/%v, record %+v", step.name, a, first, second, *n)
				}
			} else if first || !second {
				t.Fatalf("%s: live idle node %s: quiesced %v then %v, want false then true", step.name, a, first, second)
			}
			cli := rpc.Dial(a, 1)
			_, err := cli.Call(&rpc.Message{Op: rpc.OpPing})
			cli.Close()
			if (err == nil) == (a == gone) {
				t.Fatalf("%s: ping %s: err=%v, gone=%v", step.name, a, err, a == gone)
			}
		}
		if !st.ionQuiesced("nobody:1") || st.DaemonAt("nobody:1") != nil {
			t.Fatalf("%s: an unknown address must be quiet and daemon-less", step.name)
		}
	}
	// The spawned daemon took the next index after the initial pool.
	if id := st.DaemonAt(spawned).ID(); id != "ion02" {
		t.Fatalf("spawned daemon is %s, want ion02 (index = Config.IONs)", id)
	}
}
