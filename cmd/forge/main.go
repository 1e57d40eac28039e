// Command forge is the access-pattern explorer: it predicts the bandwidth
// of an access pattern under different numbers of I/O forwarding nodes,
// the role FORGE plays in the paper's §2 survey.
//
// Usage:
//
//	forge -nodes 32 -ppn 48 -layout shared -spatiality strided -req 512KiB
//	forge -survey          # the full 189-scenario MN4 factorial
//	forge -live -nodes 2 -ppn 8 -volume 4MiB   # replay on a live stack
//
// The §3.2 policy campaign behind Figures 2–3 is
// `experiments figure2 figure3 headlines`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/forge"
	"repro/internal/livestack"
	"repro/internal/pattern"
	"repro/internal/perfmodel"
	"repro/internal/units"
)

func main() {
	nodes := flag.Int("nodes", 32, "compute nodes")
	ppn := flag.Int("ppn", 48, "processes per node")
	layout := flag.String("layout", "shared", "file layout: fpp|shared")
	spatiality := flag.String("spatiality", "contiguous", "spatiality: contiguous|strided")
	req := flag.String("req", "1MiB", "request size (e.g. 32KiB, 4MiB)")
	maxIONs := flag.Int("max-ions", 8, "largest I/O-node count to explore")
	survey := flag.Bool("survey", false, "evaluate the full 189-scenario survey instead")
	live := flag.Bool("live", false, "replay the pattern's profile on a live forwarding stack instead of the model")
	volume := flag.String("volume", "4MiB", "total volume for -live replay")
	flag.Parse()

	m := perfmodel.Default()
	if *survey {
		runSurvey(m)
		return
	}

	p, err := buildPattern(*nodes, *ppn, *layout, *spatiality, *req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "forge:", err)
		os.Exit(1)
	}
	if *live {
		if err := runLive(p, *volume, *maxIONs); err != nil {
			fmt.Fprintln(os.Stderr, "forge:", err)
			os.Exit(1)
		}
		return
	}
	c := m.CurveFor(p, *maxIONs, true)
	fmt.Printf("pattern: %s\n", p)
	fmt.Printf("%-10s %s\n", "I/O nodes", "bandwidth")
	for _, pt := range c.Points() {
		marker := ""
		if pt.IONs == c.Best().IONs {
			marker = "   <- best"
		}
		fmt.Printf("%-10d %s%s\n", pt.IONs, pt.Bandwidth, marker)
	}
}

func buildPattern(nodes, ppn int, layout, spatiality, req string) (pattern.Pattern, error) {
	p := pattern.Pattern{Nodes: nodes, ProcsPerNod: ppn, Operation: pattern.Write}
	switch strings.ToLower(layout) {
	case "fpp", "file-per-process":
		p.Layout = pattern.FilePerProcess
	case "shared", "shared-file":
		p.Layout = pattern.SharedFile
	default:
		return p, fmt.Errorf("unknown layout %q", layout)
	}
	switch strings.ToLower(spatiality) {
	case "contiguous", "contig":
		p.Spatiality = pattern.Contiguous
	case "strided", "1d-strided":
		p.Spatiality = pattern.Strided1D
	default:
		return p, fmt.Errorf("unknown spatiality %q", spatiality)
	}
	size, err := units.ParseBytes(req)
	if err != nil {
		return p, err
	}
	p.RequestSize = size
	return p, p.Validate()
}

// runLive replays the pattern's profile through a live forwarding stack at
// each feasible I/O-node count (FORGE's actual deployment-exploration mode,
// at laptop scale).
func runLive(p pattern.Pattern, volumeStr string, maxIONs int) error {
	volume, err := units.ParseBytes(volumeStr)
	if err != nil {
		return err
	}
	st, err := livestack.Start(livestack.Config{IONs: maxIONs})
	if err != nil {
		return err
	}
	defer st.Close()
	runs, err := forge.ReplaySweep(st.Store, st.Addrs, p, volume, "/live")
	if err != nil {
		return err
	}
	fmt.Printf("live replay of %s (%s total) on %d I/O nodes:\n",
		p, units.FormatBytes(volume), maxIONs)
	for _, r := range runs {
		fmt.Printf("  %d I/O nodes: %s (%d requests in %v)\n",
			r.IONs, r.Bandwidth, r.Requests, r.Elapsed.Round(1e6))
	}
	return nil
}

func runSurvey(m *perfmodel.Model) {
	fmt.Println("189-scenario MN4 survey (bandwidth in MB/s):")
	fmt.Printf("%-52s %8s %8s %8s %8s %8s %6s\n", "pattern", "0", "1", "2", "4", "8", "best")
	for _, p := range pattern.MN4Survey() {
		c := m.CurveFor(p, 8, true)
		row := fmt.Sprintf("%-52s", p)
		for _, k := range []int{0, 1, 2, 4, 8} {
			bw, _ := c.At(k)
			row += fmt.Sprintf(" %8.1f", bw.MBps())
		}
		fmt.Printf("%s %6d\n", row, c.Best().IONs)
	}
	dist := perfmodel.OptimumDistribution(m.SurveyCurves())
	fmt.Println("\noptimum distribution:")
	for _, k := range []int{0, 1, 2, 4, 8} {
		fmt.Printf("  best at %d IONs: %5.1f%%\n", k, dist[k]*100)
	}
}
