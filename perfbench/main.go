// Command perfbench drives hyperprov's HTTP server end to end with three
// closed-loop workloads and prints one JSON result line. See README.md
// for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: tpcc-oltp, synthetic-whatif or pinned-push")
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "keep starting rounds until this many seconds have passed (a run makes at least fixedRounds rounds)")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		workdir = flag.String("workdir", ".bench_build/work", "scratch directory for data dirs and span files")
	)
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := config{
		setup:   setup,
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
	}
	dir, err := os.MkdirTemp(mkdirAll(*workdir), *name+"-")
	if err != nil {
		fatalf("%v", err)
	}
	cfg.dir = dir
	res, err := run(cfg)
	if err != nil {
		os.RemoveAll(dir)
		fatalf("%v", err)
	}
	if cfg.trace {
		path := filepath.Join(*workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := res.tracer.writeFile(path); err != nil {
			os.RemoveAll(dir)
			fatalf("writing spans: %v", err)
		}
		fmt.Fprintf(os.Stderr, "spans: %s\n", path)
	}
	os.RemoveAll(dir)
	printTable(os.Stdout, res)
	out := map[string]any{
		"correct":   len(res.problems) == 0,
		"attempted": res.attempted(),
		"failed":    res.failed(),
		"metrics":   res.metrics(cfg.trace),
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "check failed: %s\n", p)
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
}

func mkdirAll(d string) string {
	if err := os.MkdirAll(d, 0o755); err != nil {
		fatalf("%v", err)
	}
	return d
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// printTable writes the per-operation table: attempted, failed and
// latency samples per operation type, then the environment line.
func printTable(w *os.File, res *result) {
	names := make([]string, 0, len(res.ops))
	for n := range res.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-10s %9s %7s %8s %10s %10s\n", "op", "attempted", "failed", "samples", "p50", "p90")
	for _, n := range names {
		o := res.ops[n]
		fmt.Fprintf(w, "%-10s %9d %7d %8d %10s %10s\n", n, o.attempted, o.failed, len(o.lat),
			fmtDur(quantile(o.lat, 0.5)), fmtDur(quantile(o.lat, 0.9)))
	}
	fmt.Fprintf(w, "rounds %d, %s, GOMAXPROCS %d, nproc %d\n", res.rounds, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
}

func fmtDur(s float64) string { return time.Duration(s * 1e9).Round(time.Microsecond).String() }
