package mapping

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/testkit"
)

func TestBusPublishSubscribe(t *testing.T) {
	b := NewBus()
	ch, cancel := b.Subscribe()
	defer cancel()

	first := <-ch // initial (empty) map
	if first.Version != 0 || len(first.IONs) != 0 {
		t.Fatalf("initial map: %+v", first)
	}
	b.Publish(map[string][]string{"app": {"a:1", "b:2"}})
	got := <-ch
	if got.Version != 1 {
		t.Fatalf("version = %d", got.Version)
	}
	if addrs := got.For("app"); len(addrs) != 2 || addrs[0] != "a:1" {
		t.Fatalf("addrs = %v", addrs)
	}
	if got.For("other") != nil {
		t.Fatal("unmapped app should be nil (direct)")
	}
}

func TestBusCurrentIsClone(t *testing.T) {
	b := NewBus()
	b.Publish(map[string][]string{"app": {"x"}})
	m := b.Current()
	m.IONs["app"][0] = "mutated"
	if b.Current().IONs["app"][0] != "x" {
		t.Fatal("Current leaked internal state")
	}
}

func TestBusVersionsMonotone(t *testing.T) {
	b := NewBus()
	for i := 1; i <= 5; i++ {
		m := b.Publish(map[string][]string{})
		if m.Version != uint64(i) {
			t.Fatalf("version %d, want %d", m.Version, i)
		}
	}
}

func TestBusSlowSubscriberNotBlocking(t *testing.T) {
	b := NewBus()
	_, cancel := b.Subscribe() // never drained beyond buffer
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			b.Publish(map[string][]string{})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish blocked on a slow subscriber")
	}
}

// Publish calls every follower once per publication, in registration
// order, before it returns; a follower sees only the publications made
// after it registered, and none once it unfollows.
func TestBusFollowersRunInRegistrationOrder(t *testing.T) {
	b := NewBus()
	b.Publish(map[string][]string{"app": {"ion-0"}})
	var calls []string
	var unfollow []func()
	for i := 0; i < 3; i++ {
		unfollow = append(unfollow, b.Follow(func(m Map) {
			calls = append(calls, fmt.Sprintf("f%d:v%d", i, m.Version))
		}))
	}
	b.Publish(map[string][]string{"app": {"ion-1"}})
	b.Publish(map[string][]string{"app": {"ion-2"}})
	unfollow[1]()
	unfollow[1]()
	b.Publish(map[string][]string{"app": {"ion-3"}})
	want := []string{"f0:v2", "f1:v2", "f2:v2", "f0:v3", "f1:v3", "f2:v3", "f0:v4", "f2:v4"}
	if !slices.Equal(calls, want) {
		t.Fatalf("followers ran %v, want %v", calls, want)
	}
}

// A subscriber whose buffer is full loses its oldest queued map, never the
// newest: however far it lags, the last map it drains is the latest.
func TestBusLaggingSubscriberEndsOnNewest(t *testing.T) {
	b := NewBus()
	ch, cancel := b.Subscribe() // never drained while publishing
	for i := 1; i <= 10; i++ {
		b.Publish(map[string][]string{"app": {fmt.Sprint("ion-", i)}})
	}
	cancel() // closes ch; what is queued stays readable
	var last Map
	n := 0
	for m := range ch {
		if m.Version <= last.Version && n > 0 {
			t.Fatalf("versions out of order: v%d after v%d", m.Version, last.Version)
		}
		last = m
		n++
	}
	if last.Version != 10 || last.For("app")[0] != "ion-10" {
		t.Fatalf("lagging subscriber ended on v%d %v, want v10 [ion-10]", last.Version, last.For("app"))
	}
	if n != cap(ch) {
		t.Fatalf("drained %d maps, want a full buffer of %d", n, cap(ch))
	}
}

// Publish takes the assignment over and hands every subscriber the same
// snapshot: it allocates nothing, however many listen.
func TestBusPublishAllocationPin(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	assign := map[string][]string{"a": {"x:1", "x:2"}, "b": {"x:3"}, "c": nil}
	publishAllocs := func(subscribers int) float64 {
		b := NewBus()
		var chans []<-chan Map
		for i := 0; i < subscribers; i++ {
			ch, cancel := b.Subscribe()
			defer cancel()
			chans = append(chans, ch)
		}
		return testing.AllocsPerRun(100, func() {
			b.Publish(assign)
			for _, ch := range chans {
				<-ch
			}
		})
	}
	if one, eight := publishAllocs(1), publishAllocs(8); one != 0 || eight != 0 {
		t.Fatalf("Publish allocates %v objects with 1 subscriber, %v with 8; want 0", one, eight)
	}
}

func TestBusCancelIdempotent(t *testing.T) {
	b := NewBus()
	_, cancel := b.Subscribe()
	cancel()
	cancel()
}

// A cancelled subscriber is forgotten: later publications neither reach
// its closed channel nor panic sending to it.
func TestBusPublishAfterCancel(t *testing.T) {
	b := NewBus()
	ch, cancel := b.Subscribe()
	<-ch
	cancel()
	b.Publish(map[string][]string{"app": {"x"}})
	if m, ok := <-ch; ok {
		t.Fatalf("cancelled subscriber received v%d", m.Version)
	}
}

// A subscriber that joins late starts on the latest map, not on version 0.
func TestBusLateSubscriberStartsOnCurrent(t *testing.T) {
	b := NewBus()
	for i := 0; i < 3; i++ {
		b.Publish(map[string][]string{"app": {fmt.Sprint("ion-", i)}})
	}
	ch, cancel := b.Subscribe()
	defer cancel()
	m := <-ch
	if m.Version != 3 || m.For("app")[0] != "ion-2" {
		t.Fatalf("late subscriber started on v%d %v, want v3 [ion-2]", m.Version, m.For("app"))
	}
	select {
	case extra := <-ch:
		t.Fatalf("late subscriber replayed v%d", extra.Version)
	default:
	}
}

// After a recovery, the recovery publish reaches subscribers carrying the
// raised fence, even when its assignment is unchanged.
func TestBusSubscribersSeeFence(t *testing.T) {
	b := NewBus()
	assign := map[string][]string{"app": {"ion-0"}}
	b.Publish(assign)
	ch, cancel := b.Subscribe()
	defer cancel()
	<-ch
	b.Resume(7)
	b.Revoke(8)
	b.Publish(assign)
	m := <-ch
	if m.Version != 8 || m.Fence != 8 || m.For("app")[0] != "ion-0" {
		t.Fatalf("recovery publish delivered v%d fence %d %v, want v8 fence 8 [ion-0]", m.Version, m.Fence, m.For("app"))
	}
}

// Publish takes over what it is given: the published snapshot is the
// caller's map and slices, and an empty list stays direct access.
func TestBusPublishTakesOverEntries(t *testing.T) {
	b := NewBus()
	addrs := []string{"ion-0", "ion-1"}
	assign := map[string][]string{"app": addrs, "direct": {}}
	m := b.Publish(assign)
	if got := m.For("app"); len(got) != 2 || &got[0] != &addrs[0] {
		t.Fatalf("published snapshot copied the caller's slice: %v", got)
	}
	if got, ok := m.IONs["direct"]; !ok || len(got) != 0 {
		t.Fatalf("empty list should publish as direct access, got %v present=%v", got, ok)
	}
}

// Every subscriber receives the very snapshot Publish returned, not a copy.
func TestBusSubscribersShareSnapshot(t *testing.T) {
	b := NewBus()
	var chans []<-chan Map
	for i := 0; i < 3; i++ {
		ch, cancel := b.Subscribe()
		defer cancel()
		<-ch
		chans = append(chans, ch)
	}
	m := b.Publish(map[string][]string{"app": {"ion-0", "ion-1"}})
	for i, ch := range chans {
		got := <-ch
		if got.Version != m.Version || &got.For("app")[0] != &m.For("app")[0] {
			t.Fatalf("subscriber %d received a different v%d map than the published v%d", i, got.Version, m.Version)
		}
	}
}

func TestMapCloneIsDeep(t *testing.T) {
	m := Map{Version: 4, Fence: 2, IONs: map[string][]string{"app": {"x", "y"}}}
	c := m.Clone()
	c.IONs["app"][0] = "mutated"
	c.IONs["other"] = nil
	if m.IONs["app"][0] != "x" || len(m.IONs) != 1 {
		t.Fatalf("Clone shares state with the original: %+v", m)
	}
	if c.Version != 4 || c.Fence != 2 {
		t.Fatalf("Clone lost epoch state: v%d fence %d", c.Version, c.Fence)
	}
}

func TestMapApps(t *testing.T) {
	m := Map{IONs: map[string][]string{"b": nil, "a": {"x"}, "c": {"y"}}}
	apps := m.Apps()
	if len(apps) != 3 || apps[0] != "a" || apps[2] != "c" {
		t.Fatalf("apps = %v", apps)
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map.json")
	m := Map{Version: 7, IONs: map[string][]string{"app": {"h:1"}, "other": {}}}
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, path)
	if got.Version != 7 || len(got.For("app")) != 1 {
		t.Fatalf("round trip: %+v", got)
	}
}

// A later decision replaces the earlier one, and the write-temp + rename
// leaves nothing but the mapping file behind.
func TestWriteFileReplacesAndCleansUp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "map.json")
	for v := uint64(1); v <= 3; v++ {
		if err := WriteFile(path, Map{Version: v, IONs: map[string][]string{"app": {fmt.Sprint("ion-", v)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := readFile(t, path); got.Version != 3 || got.For("app")[0] != "ion-3" {
		t.Fatalf("file holds v%d %v, want v3 [ion-3]", got.Version, got.For("app"))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "map.json" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only map.json", names)
	}
}

func TestWriteFileReportsMissingDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "map.json")
	err := WriteFile(path, Map{IONs: map[string][]string{}})
	if err == nil || !strings.HasPrefix(err.Error(), "mapping:") {
		t.Fatalf("want a mapping: error for a missing directory, got %v", err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatalf("failed write left %s behind: %v", path, statErr)
	}
}

// readFile decodes the mapping file at path the way a client would.
func readFile(t *testing.T, path string) Map {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m Map
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}
