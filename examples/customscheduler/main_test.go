package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/agios"
)

// TestDeadlineSJFOrder: requests past MaxWait go first, oldest first; the
// rest go smallest first.
func TestDeadlineSJFOrder(t *testing.T) {
	now := time.Now()
	d := &DeadlineSJF{MaxWait: time.Minute}
	for _, r := range []agios.Request{
		{Size: 30, Arrival: now}, {Size: 10, Arrival: now}, {Size: 20, Arrival: now},
		{Size: 50, Arrival: now.Add(-2 * time.Minute)}, {Size: 40, Arrival: now.Add(-3 * time.Minute)},
	} {
		d.Push(&r)
	}
	for _, want := range []int64{40, 50, 10, 20, 30} {
		if r, _ := d.Pop(); r.Size != want {
			t.Fatalf("popped size %d, want %d", r.Size, want)
		}
	}
}

// TestCustomscheduler: all 18 writes of the mixed load reach the daemon
// running DeadlineSJF.
func TestCustomscheduler(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "daemon handled 18 writes") {
		t.Errorf("want all 18 writes at the daemon:\n%s", out.String())
	}
}
