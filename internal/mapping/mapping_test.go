package mapping

import (
	"errors"
	"fmt"
	"path/filepath"
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

// Publish copies the assignment once and hands every subscriber the same
// snapshot: what it allocates does not depend on how many listen.
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
	one, eight := publishAllocs(1), publishAllocs(8)
	if one != eight {
		t.Fatalf("Publish allocates %v objects with 1 subscriber, %v with 8", one, eight)
	}
	if one > 3 { // the map, its table, one address backing
		t.Fatalf("Publish allocates %v objects, want ≤ 3", one)
	}
}

func TestBusCancelIdempotent(t *testing.T) {
	b := NewBus()
	_, cancel := b.Subscribe()
	cancel()
	cancel()
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
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 7 || len(got.For("app")) != 1 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.json")); !errors.Is(err, ErrNoMapping) {
		t.Fatalf("want ErrNoMapping, got %v", err)
	}
}

func TestWatcherDeliversVersions(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "map.json")
	if err := WriteFile(path, Map{Version: 1, IONs: map[string][]string{"a": {"x"}}}); err != nil {
		t.Fatal(err)
	}
	w := NewWatcher(path, 5*time.Millisecond)
	defer w.Stop()

	select {
	case m := <-w.Updates():
		if m.Version != 1 {
			t.Fatalf("first update: %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("watcher never delivered the initial map")
	}

	if err := WriteFile(path, Map{Version: 2, IONs: map[string][]string{"a": nil}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-w.Updates():
		if m.Version != 2 {
			t.Fatalf("second update: %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("watcher never delivered the update")
	}
}

func TestWatcherIgnoresStaleVersions(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "map.json")
	WriteFile(path, Map{Version: 5, IONs: map[string][]string{}})
	w := NewWatcher(path, 2*time.Millisecond)
	defer w.Stop()
	<-w.Updates()
	// Rewrite with the same version: no new delivery expected.
	WriteFile(path, Map{Version: 5, IONs: map[string][]string{"x": {"y"}}})
	select {
	case m := <-w.Updates():
		t.Fatalf("stale version redelivered: %+v", m)
	case <-time.After(30 * time.Millisecond):
	}
}

func TestWatcherStopCloses(t *testing.T) {
	w := NewWatcher(filepath.Join(t.TempDir(), "absent.json"), time.Millisecond)
	w.Stop()
	if _, ok := <-w.Updates(); ok {
		t.Fatal("updates channel should be closed after Stop")
	}
	w.Stop() // idempotent
}

func TestFileSinkMirrorsBus(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sink.json")
	bus := NewBus()
	stop := FileSink(bus, path, nil)
	defer stop()
	bus.Publish(map[string][]string{"a": {"x:1"}})
	deadline := time.Now().Add(2 * time.Second)
	for {
		m, err := ReadFile(path)
		if err == nil && m.Version >= 1 {
			if len(m.For("a")) != 1 {
				t.Fatalf("sunk map: %+v", m)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sink never wrote the file")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFileSinkReportsWriteErrors(t *testing.T) {
	bus := NewBus()
	errs := make(chan error, 4)
	// Unwritable destination: directory does not exist.
	stop := FileSink(bus, filepath.Join(t.TempDir(), "no", "such", "dir", "m.json"), errs)
	defer stop()
	bus.Publish(map[string][]string{})
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("nil error delivered")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write error never reported")
	}
}
