package scenario

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/fwd"
	"repro/internal/livestack"
	"repro/internal/perfmodel"
	"repro/internal/policy"
)

// App is one application of a workload: Writers writers, each writing
// Segments segments of Size bytes into its own region of the file /ID.
// With Ranks every writer has a client of its own (ranks of one
// application: one allocation, distinct dedup identities).
type App struct {
	ID, Label               string // job and client ID; perfmodel curve label
	Writers, Segments, Size int
	Ranks                   bool
	Clients                 []*fwd.Client // set by Open
	Alloc                   []string      // the arbiter's answer to the app's JobStarted

	mu       sync.Mutex
	attempts []int           // Write calls per segment, by w*Segments+s
	lat      []time.Duration // every acknowledged write's latency
}

// Path is the app's file.
func (a *App) Path() string { return "/" + a.ID }

// Open starts each app in turn: its client(s), its JobStarted, a wait
// until the allocation reaches every client (none when the arbiter gave
// it none: it writes to the PFS directly), and its file.
func (r *Rig) Open(apps ...*App) {
	r.t.Helper()
	for _, a := range apps {
		for len(a.Clients) == 0 || a.Ranks && len(a.Clients) < a.Writers {
			c, err := r.NewClient(a.ID)
			if err != nil {
				r.t.Fatal(err)
			}
			a.Clients = append(a.Clients, c)
		}
		spec, err := perfmodel.AppByLabel(a.Label)
		if err == nil {
			a.Alloc, err = r.Arbiter.JobStarted(policy.FromAppSpec(a.ID, spec))
		}
		for _, c := range a.Clients {
			if err == nil && len(a.Alloc) > 0 {
				err = livestack.WaitForAllocation(c, 0, 2*time.Second)
			}
		}
		if err == nil {
			err = a.Clients[0].Create(a.Path())
		}
		if err != nil {
			r.t.Fatalf("open %s: %v", a.ID, err)
		}
		a.attempts = make([]int, a.Writers*a.Segments)
	}
}

// Put writes segment s of writer w — the Pattern bytes of its offset, in
// buf — as one counted attempt, and returns how long it took.
func (a *App) Put(w, s int, buf []byte) (time.Duration, error) {
	off := int64(w*a.Segments+s) * int64(a.Size)
	Fill(off, buf)
	a.mu.Lock()
	a.attempts[w*a.Segments+s]++
	a.mu.Unlock()
	begin := time.Now()
	n, err := a.Clients[w%len(a.Clients)].Write(a.Path(), off, buf)
	took := time.Since(begin)
	if err == nil && n != len(buf) {
		err = fmt.Errorf("short write: %d of %d bytes", n, len(buf))
	}
	if err == nil {
		a.mu.Lock()
		a.lat = append(a.lat, took)
		a.mu.Unlock()
	}
	return took, err
}

// Workload says how Drive's writers run. Rewrite keeps each writer
// rewriting its region round robin until Stop, but never before one full
// pass (so all of it is acknowledged). Retry > 0 re-issues a failed write
// until it lands, for at most Retry; without it a failure ends the writer
// and fails the test. Pace > 0 sleeps Pace to 2·Pace before each segment.
// ReadBack > 0 reads an earlier segment back through the client after one
// segment in ReadBack; a read that succeeds must be the Pattern.
type Workload struct {
	Seed     int64
	Rewrite  bool
	Retry    time.Duration
	Pace     time.Duration
	ReadBack int
}

// Run is a running workload; Done is closed once every writer returned.
type Run struct {
	Done chan struct{}
	stop chan struct{}
	once sync.Once
}

// Stop ends a rewriting workload after its current pass and waits for
// every writer (a single pass just runs out).
func (run *Run) Stop() {
	run.once.Do(func() { close(run.stop) })
	<-run.Done
}

// Drive starts the writers of apps. A writer's failure fails the rig's
// test, whose cleanup stops the run before the stack closes.
func (r *Rig) Drive(wl Workload, apps ...*App) *Run {
	run := &Run{Done: make(chan struct{}), stop: make(chan struct{})}
	var wg sync.WaitGroup
	for ai, a := range apps {
		for w := 0; w < a.Writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(wl.Seed ^ int64(0x9e3779b9*(ai<<10+w+1))))
				if err := write(run, wl, a, w, rng); err != nil {
					r.t.Errorf("%s writer %d: %v", a.ID, w, err)
				}
			}()
		}
	}
	go func() {
		wg.Wait()
		close(run.Done)
	}()
	r.t.Cleanup(run.Stop)
	return run
}

func write(run *Run, wl Workload, a *App, w int, rng *rand.Rand) error {
	buf := make([]byte, a.Size)
	for i := 0; ; i++ {
		if i >= a.Segments {
			select {
			case <-run.stop:
				return nil
			default:
				if !wl.Rewrite {
					return nil
				}
			}
		}
		if wl.Pace > 0 {
			time.Sleep(wl.Pace + time.Duration(rng.Int63n(int64(wl.Pace))))
		}
		for deadline := time.Now().Add(wl.Retry); ; time.Sleep(time.Duration(5+rng.Intn(10)) * time.Millisecond) {
			_, err := a.Put(w, i%a.Segments, buf)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("segment %d never landed: %w", i%a.Segments, err)
			}
		}
		if wl.ReadBack > 0 && i > 0 && rng.Intn(wl.ReadBack) == 0 {
			off := int64(w*a.Segments+rng.Intn(min(i, a.Segments))) * int64(a.Size)
			if n, err := a.Clients[w%len(a.Clients)].Read(a.Path(), off, buf); err == nil && n == len(buf) {
				if err := verify(off, buf); err != nil {
					return fmt.Errorf("read back: %w", err)
				}
			}
		}
	}
}
