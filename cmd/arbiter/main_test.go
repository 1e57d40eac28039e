package main

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"ZERO", "ONE", "STATIC", "SIZE", "PROCESS", "ORACLE", "MCKP", "mckp", "static"} {
		p, err := policyByName(name)
		if err != nil {
			t.Errorf("policyByName(%q): %v", name, err)
			continue
		}
		if p == nil {
			t.Errorf("policyByName(%q) returned nil", name)
		}
	}
	if _, err := policyByName("BOGUS"); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestParseApps(t *testing.T) {
	for _, tc := range []struct {
		name    string
		list    string
		want    int    // applications parsed
		wantErr string // substring of the error, "" for none
	}{
		{"default", "", 6, ""},
		{"one", "BT-C", 1, ""},
		{"two", "BT-C, BT-D", 2, ""},
		{"repeated", "BT-C,BT-C", 0, "BT-C more than once"},
		{"repeated_apart", "BT-C,BT-D, BT-C", 0, "BT-C more than once"},
		{"unknown", "BT-C,NOPE", 0, "NOPE"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			apps, err := parseApps(tc.list)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("parseApps(%q) error = %v, want one naming %q", tc.list, err, tc.wantErr)
				}
				return
			}
			if err != nil || len(apps) != tc.want {
				t.Errorf("parseApps(%q) = %d apps, %v; want %d", tc.list, len(apps), err, tc.want)
			}
		})
	}
}

// TestMappingForAssignsDistinctIONs: under every policy, the -mapping file
// gives each application as many I/O nodes as it was allocated, names them
// from the pool ion00.. without gaps, and never hands one to two
// applications.
func TestMappingForAssignsDistinctIONs(t *testing.T) {
	apps, err := parseApps("")
	if err != nil {
		t.Fatal(err)
	}
	const ions = 12
	for _, name := range []string{"ZERO", "ONE", "STATIC", "SIZE", "PROCESS", "MCKP"} {
		pol, err := policyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := pol.Allocate(apps, ions)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ids := make([]string, 0, len(alloc))
		for id := range alloc {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		m := mappingFor(alloc, ids)
		owner := map[string]string{}
		for _, id := range ids {
			if got := len(m.For(id)); got != alloc[id] {
				t.Fatalf("%s: %s mapped to %d I/O nodes, allocated %d", name, id, got, alloc[id])
			}
			for _, addr := range m.For(id) {
				if prev, ok := owner[addr]; ok {
					t.Fatalf("%s: %s handed to both %s and %s", name, addr, prev, id)
				}
				owner[addr] = id
			}
		}
		for i := 0; i < alloc.Total(); i++ {
			if _, ok := owner[fmt.Sprintf("ion%02d", i)]; !ok {
				t.Fatalf("%s: ion%02d unassigned while %d of %d are allocated", name, i, alloc.Total(), ions)
			}
		}
	}
}
