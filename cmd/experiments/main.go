// Command experiments regenerates the paper's tables and figures as text
// tables.
//
// Usage:
//
//	experiments [-sets N] [-workers N] [table1|figure1|distribution|headlines|
//	             figure2|figure3|figure5|figure6|table4|figure7|figure8|
//	             figure9|timing|curveerror|all]
//
// With no arguments, everything except the slow campaign experiments runs;
// "all" includes those too. figure2, figure3 and headlines read one §3.2
// campaign, run once per invocation. -sets controls the size of that
// campaign and of the curve-error experiment's (default 2000; the paper
// uses 10000). -workers bounds the campaign worker pool (default: all
// cores); every worker count produces identical tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	sets := flag.Int("sets", 2000, "application sets for the Figure 2/3 campaigns and the curve-error experiment (paper: 10000)")
	workers := flag.Int("workers", 0, "campaign worker goroutines (0 = all cores); results are identical for any value")
	flag.Parse()

	targets := flag.Args()
	if len(targets) == 0 {
		targets = []string{"table1", "figure1", "distribution", "figure5",
			"figure6", "table4", "figure7", "figure8", "figure9", "timing", "ablation", "robustness", "curveerror"}
	}
	if len(targets) == 1 && targets[0] == "all" {
		targets = []string{"table1", "figure1", "distribution", "headlines", "figure2",
			"figure3", "figure5", "figure6", "table4", "figure7", "figure8", "figure9", "timing", "ablation", "robustness", "curveerror"}
	}

	s := &session{sets: *sets, workers: *workers}
	for _, name := range targets {
		if err := s.run(name, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

// session runs experiments for one invocation; the §3.2 campaign behind
// figure2, figure3 and headlines runs at most once.
type session struct {
	sets, workers int
	fig2          *experiments.Figure2Result
}

func (s *session) campaign() (experiments.Figure2Result, error) {
	if s.fig2 == nil {
		r, err := experiments.ExpFigure2(s.sets, s.workers)
		if err != nil {
			return r, err
		}
		s.fig2 = &r
	}
	return *s.fig2, nil
}

func (s *session) run(name string, w io.Writer) error {
	switch name {
	case "table1":
		fmt.Fprintln(w, experiments.ExpTable1().Table())
	case "figure1":
		fmt.Fprintln(w, experiments.ExpFigure1().Table())
	case "figure1live":
		r, err := experiments.ExpFigure1Live(0, 0)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Table())
	case "distribution":
		fmt.Fprintln(w, experiments.ExpOptimumDistribution().Table())
	case "headlines":
		fig2, err := s.campaign()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.ExpPolicyHeadlines(fig2).Table())
	case "figure2":
		fig2, err := s.campaign()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, fig2.Table())
	case "figure3":
		fig2, err := s.campaign()
		if err != nil {
			return err
		}
		r := experiments.ExpFigure3(fig2)
		fmt.Fprintln(w, r.Table())
		fmt.Fprintf(w, "peak median %.2f× at %d IONs; overall max %.2f×; mean %.2f×\n\n",
			r.PeakMedian, r.PeakPool, r.OverallMax, r.OverallMean)
	case "figure5":
		fmt.Fprintln(w, experiments.ExpFigure5().Table())
	case "figure6":
		r, err := experiments.ExpFigure6()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Table())
		fmt.Fprintf(w, "MCKP over STATIC/SIZE/PROCESS at 12 IONs: %.2f× / %.2f× / %.2f× (paper: 4.59/4.59/4.1)\n",
			r.MCKPOverStatic12, r.MCKPOverSize12, r.MCKPOverProcess12)
		fmt.Fprintf(w, "MCKP matches ORACLE at %d IONs (paper: 36)\n\n", r.OracleMatchPool)
	case "table4":
		r, err := experiments.ExpTable4()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Table())
	case "figure7":
		r, err := experiments.ExpFigure7()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Table())
	case "figure8":
		r, err := experiments.ExpFigure8()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Table())
	case "figure9live":
		r, err := experiments.ExpFigure9Live()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Table())
	case "figure9":
		r, err := experiments.ExpFigure9()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Table())
		fmt.Fprintf(w, "MCKP over STATIC: %.2f× (paper: 1.9×)\n\n", r.MCKPOverStatic)
	case "timing":
		r, err := experiments.ExpSolverTiming()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Table())
	case "ablation":
		r, err := experiments.ExpAblationDynamic()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Table())
	case "robustness":
		r, err := experiments.ExpQueueRobustness(0)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Table())
	case "curveerror":
		r, err := experiments.ExpCurveError(s.sets, s.workers)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Table())
		fmt.Fprintf(w, "MCKP's lead survives σ ≤ 20 %% and the one-step shift: %v\n\n", r.LeadSurvives)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}
