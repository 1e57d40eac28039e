// Command arbiter solves one I/O-node allocation problem and prints (or
// writes) the decision — the standalone policy-solver role of the paper's
// §5.3, suitable for invocation from a job manager.
//
// Usage:
//
//	arbiter -policy MCKP -ions 12                     # the §5.2 six apps
//	arbiter -policy STATIC -ions 12 -apps BT-C,BT-D   # a subset
//	arbiter -policy MCKP -ions 12 -mapping map.json   # publish a mapping file
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/mapping"
	"repro/internal/perfmodel"
	"repro/internal/policy"
)

func main() {
	polName := flag.String("policy", "MCKP", "ZERO|ONE|STATIC|SIZE|PROCESS|ORACLE|MCKP")
	ions := flag.Int("ions", 12, "available I/O nodes")
	appsFlag := flag.String("apps", "", "comma-separated Table 3 labels (default: the §5.2 six)")
	mapFile := flag.String("mapping", "", "write the decision as a mapping file (ION names ion00..)")
	explain := flag.Bool("explain", false, "annotate each application with its penalty vs running alone")
	flag.Parse()

	pol, err := policyByName(*polName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbiter:", err)
		os.Exit(1)
	}

	apps, err := parseApps(*appsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbiter:", err)
		os.Exit(1)
	}

	alloc, err := pol.Allocate(apps, *ions)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbiter:", err)
		os.Exit(1)
	}
	total, err := policy.SumBandwidth(apps, alloc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbiter:", err)
		os.Exit(1)
	}

	fmt.Printf("policy %s, %d I/O nodes available:\n", pol.Name(), *ions)
	ids := make([]string, 0, len(alloc))
	for id := range alloc {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		var bw string
		for _, a := range apps {
			if a.ID == id {
				v, _ := a.Curve.At(alloc[id])
				bw = v.String()
			}
		}
		fmt.Printf("  %-10s %d I/O nodes  (%s)\n", id, alloc[id], bw)
	}
	fmt.Printf("allocated %d of %d; aggregate %s\n", alloc.Total(), *ions, total)

	if *explain {
		exps, err := policy.Explain(apps, alloc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "arbiter:", err)
			os.Exit(1)
		}
		fmt.Println("\npenalty vs running alone:")
		for _, e := range exps {
			note := ""
			if e.Sacrificed {
				note = "  <- sacrificed for the global optimum"
			}
			fmt.Printf("  %-10s %6.1f%% of alone-best (%.1f of %.1f MB/s at best %d IONs)%s\n",
				e.ID, e.PctOfBest, e.MBps, e.BestMBps, e.BestIONs, note)
		}
	}

	if *mapFile != "" {
		if err := mapping.WriteFile(*mapFile, mappingFor(alloc, ids)); err != nil {
			fmt.Fprintln(os.Stderr, "arbiter:", err)
			os.Exit(1)
		}
		fmt.Printf("mapping written to %s\n", *mapFile)
	}
}

// mappingFor names the allocated I/O nodes ion00, ion01, … handing them out
// in the order of ids, so no two applications share one.
func mappingFor(alloc policy.Allocation, ids []string) mapping.Map {
	m := mapping.Map{Version: 1, IONs: map[string][]string{}}
	next := 0
	for _, id := range ids {
		var addrs []string
		for i := 0; i < alloc[id]; i++ {
			addrs = append(addrs, fmt.Sprintf("ion%02d", next))
			next++
		}
		m.IONs[id] = addrs
	}
	return m
}

// parseApps resolves the -apps list ("" selects the §5.2 six). A label may
// appear once: the allocation is keyed by application ID, so a second copy
// would share the first one's I/O nodes and count its bandwidth twice.
func parseApps(list string) ([]policy.Application, error) {
	var apps []policy.Application
	if list == "" {
		for _, s := range perfmodel.SectionFiveTwoApps() {
			apps = append(apps, policy.FromAppSpec(s.Label, s))
		}
		return apps, nil
	}
	seen := map[string]bool{}
	for _, label := range strings.Split(list, ",") {
		spec, err := perfmodel.AppByLabel(strings.TrimSpace(label))
		if err != nil {
			return nil, err
		}
		if seen[spec.Label] {
			return nil, fmt.Errorf("-apps lists %s more than once", spec.Label)
		}
		seen[spec.Label] = true
		apps = append(apps, policy.FromAppSpec(spec.Label, spec))
	}
	return apps, nil
}

func policyByName(name string) (policy.Policy, error) {
	switch strings.ToUpper(name) {
	case "ZERO":
		return policy.Zero{}, nil
	case "ONE":
		return policy.One{}, nil
	case "STATIC":
		return policy.Static{}, nil
	case "SIZE":
		return policy.Proportional{}, nil
	case "PROCESS":
		return policy.Proportional{ByProcesses: true}, nil
	case "ORACLE":
		return policy.Oracle{}, nil
	case "MCKP":
		return policy.MCKP{}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}
