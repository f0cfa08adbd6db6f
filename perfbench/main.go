// Command perfbench runs one workload of the repository benchmark
// against pnnserve and pnnrouter processes built from this tree and
// prints its measurements. It is normally started through run.sh,
// which builds the binaries first:
//
//	bash perfbench/run.sh --workload spiral-zipf --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// measures the per-layer metrics instead (see BENCHMARK.json). The last
// line of standard output is the result object; the line before it is
// a report with the run's conditions and the per-op-kind figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's parameters.
type config struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	binDir   string
	outDir   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the datasets and the request stream")
	seconds := fs.Int("seconds", 10, "measured seconds of load per phase")
	trace := fs.Int("trace", 0, "0 measures the end-to-end metrics, 1 the per-layer metrics")
	binDir := fs.String("bin", ".bench_build/bin", "directory holding the built pnnserve and pnnrouter")
	outDir := fs.String("out", ".bench_build/out", "directory for stores, spans and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads(*seed)[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := checkBinaries(*binDir); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, binDir: *binDir, outDir: *outDir}
	// Every run must end well inside three minutes, whatever happens.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, report, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep, err := json.Marshal(report)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "report %s\n%s\n", rep, out)
	return 0
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
