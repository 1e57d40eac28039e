// Command bench is the repository's benchmark: five seeded workloads run
// against the whole forwarding stack in one process over loopback TCP,
// every end-to-end metric BENCHMARK.json names, and — in a separate traced
// run — a per-layer ledger measured from outside through public APIs and
// the livestack.Config seams. See README.md in this directory.
//
// One run:
//
//	bash bench/run.sh -workload small_mixed -seed 1 -seconds 12 -trace 0
//
// prints a report object and then, as the last line of standard output,
// {"correct":…,"attempted":…,"failed":…,"metrics":{…}}. Without -workload
// every workload runs, untraced then traced, each in a process of its own
// as under the driver. The exit code is non-zero when an output check
// failed.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: all of them, untraced then traced)")
		seed     = flag.Uint64("seed", 1, "seed for every generated offset, op choice and job sequence")
		seconds  = flag.Float64("seconds", 12, "length of the measured window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run plus the ledger")
		traceOut = flag.String("trace-out", "", "with -workload and -trace 1: write the spans (name,start,end,id,parent,op) to this file")
		agree    = flag.Bool("agree", false, "run the untraced set twice and fail if an end-to-end metric differs by more than its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || (*traceOut != "" && (*name == "" || *trace == 0 || *agree)) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-trace-out file] [-agree]")
		os.Exit(2)
	}
	p := runParams{seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut}

	todo := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		todo = []workloadSpec{w}
	}
	ok := true
	switch {
	case *agree:
		ok = runAgree(todo, p)
	case *name != "":
		ok = runAndPrint(todo[0], p)
	default:
		for _, w := range todo {
			for _, traced := range []bool{false, true} {
				p.trace = traced
				_, correct := runChild(w, p, os.Stdout)
				ok = correct && ok
			}
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runAndPrint runs one workload and prints its report line followed by
// the contract line. A run that cannot complete prints no result at all.
func runAndPrint(w workloadSpec, p runParams) bool {
	res, rep, err := runWorkload(w, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, msg := range rep.Warnings {
		fmt.Fprintf(os.Stderr, "bench: %s: warning: %s\n", w.name, msg)
	}
	for _, msg := range rep.Unmeasured {
		fmt.Fprintf(os.Stderr, "bench: %s: unmeasured layer: %s\n", w.name, msg)
	}
	for _, msg := range rep.Failures {
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", w.name, msg)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]*report{"report": rep}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	return res.Correct
}

// runChild runs one workload in a process of its own — exactly what the
// driver does — so that process-wide figures (peak RSS, heap and pool
// state) of one workload cannot leak into the next. The child's standard
// output goes to out; its last line is returned. correct is the child's
// verdict on its output checks; a child that could not complete ends
// this process too.
func runChild(w workloadSpec, p runParams, out io.Writer) (lastLine []byte, correct bool) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	trace := "0"
	if p.trace {
		trace = "1"
	}
	var stdout bytes.Buffer
	cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(p.seed),
		"-seconds", fmt.Sprint(p.seconds), "-trace", trace)
	cmd.Stdout, cmd.Stderr = io.MultiWriter(&stdout, out), os.Stderr
	err = cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1 && len(lines) >= 2) {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	return lines[len(lines)-1], err == nil
}

// runAgree runs the untraced set twice in one session and compares every
// end-to-end metric of every workload against the metric's own bound.
func runAgree(todo []workloadSpec, p runParams) bool {
	p.trace = false
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, w := range todo {
			line, _ := runChild(w, p, io.Discard)
			res := &result{}
			if err := json.Unmarshal(line, res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: result line: %v\n", w.name, err)
				os.Exit(1)
			}
			sets[i][w.name] = res
		}
	}
	ok := true
	fmt.Printf("%-14s %-17s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range todo {
		a, b := sets[0][w.name], sets[1][w.name]
		if !a.Correct || !b.Correct {
			fmt.Printf("%-14s output checks failed (first %d, second %d)\n", w.name, a.Failed, b.Failed)
			ok = false
		}
		for _, m := range endToEnd {
			va, vb := a.Metrics[m.name].Value, b.Metrics[m.name].Value
			diff := math.Abs(vb-va) / math.Abs(va)
			verdict := ""
			if (m.exact && va != vb) || diff > m.bound {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Printf("%-14s %-17s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", w.name, m.name, va, vb, diff*100, m.bound*100, verdict)
		}
	}
	return ok
}
