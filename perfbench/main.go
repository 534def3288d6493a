// Command perfbench is the repository's end-to-end benchmark. It starts
// a PDP cluster in process on loopback — nodes built with grbacd's
// constructors and defaults — and drives one of four workloads at it
// with an open-loop load generator, checking every answer against an
// independent oracle. See README.md in this directory.
//
//	bash perfbench/run.sh --workload home-read --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics (end-to-end with --trace 0,
// per-layer with --trace 1).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "home-read", "workload: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 12, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()

	spec, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *workload, workloadNames())
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dir, err := runDir(spec.name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	w := &run{spec: spec, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		dir: dir, rep: newReport(), ctx: ctx}
	if *trace == 1 {
		w.tr = NewTracer()
	}
	fmt.Printf("perfbench %s seed %d, %ds measured, trace=%d\n", spec.name, *seed, *seconds, *trace)
	if err := spec.run(w); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		failures.Lock()
		for _, f := range failures.first {
			fmt.Fprintln(os.Stderr, "perfbench: failure:", f)
		}
		failures.Unlock()
		return 1
	}
	if w.tr != nil {
		w.idleLayers()
		traceDir := filepath.Join(".bench_build", "traces")
		if err := os.MkdirAll(traceDir, 0o755); err == nil {
			path := filepath.Join(traceDir, fmt.Sprintf("%s-%d.jsonl", spec.name, *seed))
			if err := w.tr.WriteFile(path); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: trace:", err)
			} else {
				w.rep.info("spans written to " + path)
			}
		}
	}

	wrong := w.gate.Wrong.Load()
	w.rep.human("failed_ratio", float64(w.rep.failed)/float64(max(w.rep.attempted, 1)), "ratio")
	w.rep.info(fmt.Sprintf("answers checked against the oracle: %d, wrong: %d", w.gate.Checked.Load(), wrong))
	failures.Lock()
	for _, f := range failures.first {
		w.rep.info("failure: " + f)
	}
	failures.Unlock()
	if wrong > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answers; first:", w.gate.First())
	}
	if w.rep.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed\n", w.rep.failed, w.rep.attempted)
	}
	correct, code := verdict(w.rep, wrong)
	if code == exitInvalid {
		for _, l := range w.rep.lines {
			fmt.Fprintln(os.Stderr, l)
		}
		fmt.Fprintln(os.Stderr, "perfbench: run invalid:", w.rep.invalid)
		return code
	}
	res, err := w.rep.result(correct, w.tr != nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := w.rep.write(os.Stdout, res); err != nil {
		return 1
	}
	return code
}

// Exit codes of a finished run.
const (
	exitInvalid = 3 // the load generator fell behind: no result is printed
	exitWrong   = 4 // an operation failed or an answer disagreed with the oracle
)

// verdict decides a finished run's outcome from its report and the count
// of answers the gate found wrong: whether the result is correct, and the
// exit code. Every counted operation must succeed: one that was refused,
// timed out or failed has no latency in the figures, so a run with one
// is not a correct result.
func verdict(rep *Report, wrong int64) (correct bool, code int) {
	switch {
	case rep.invalid != "":
		return false, exitInvalid
	case wrong > 0 || rep.failed > 0:
		return false, exitWrong
	}
	return true, 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
