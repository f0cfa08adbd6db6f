// Command pnnload offers open-loop, Zipf-skewed load against a
// pnnserve or pnnrouter endpoint and records macro latency rows
// (BENCH_macro-*.json) that cmd/benchdiff gates alongside the micro
// benchmarks.
//
// One run:
//
//	pnnload -target http://localhost:8080 -qps 500 -duration 10s \
//	  -datasets fleet,demo -dataset-theta 0.9 -mix read=9,write=1 \
//	  -admin-token $TOKEN -out /tmp/bench
//
// Arrivals are Poisson at -qps (open loop: a slow server never slows
// the arrival clock, it just accumulates latency); dataset and
// query-point popularity follow seeded Zipf distributions, so the
// request sequence for a given set of parameters is deterministic and
// a committed row names a reproducible workload. -dump prints the
// first N requests as JSON lines without touching any server — two
// invocations with equal parameters emit identical bytes:
//
//	pnnload -dump 100 -seed 7 | sha256sum
//
// An experiment grid sweeps parameter combinations with repeats from a
// JSON spec (see loadgen.GridSpec) and ends with a summary table:
//
//	pnnload -target http://localhost:8080 -grid sweep.json -out /tmp/bench -csv grid.csv
//
// Server-side sweeps (cache on/off, replica count)
// need a server restart per cell; scripts/experiments.sh wraps this
// binary for those.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pnn/client"
	"pnn/internal/loadgen"
)

var (
	target     = flag.String("target", "http://127.0.0.1:8080", "endpoint base URL(s), comma-separated for client-side failover")
	adminToken = flag.String("admin-token", "", "bearer token for insert/delete ops (required by write mixes)")
	httpTO     = flag.Duration("http-timeout", 10*time.Second, "client-side per-request timeout (0 disables)")
	outDir     = flag.String("out", "", "directory for BENCH_<name>.json macro rows (empty disables)")
	csvPath    = flag.String("csv", "", "CSV summary file ('-' for stdout, empty disables)")
	dumpN      = flag.Int("dump", 0, "print the first N generated requests as JSON lines and exit (no server needed)")
	gridPath   = flag.String("grid", "", "experiment-grid JSON spec; runs every cell x repeat")
	warmup     = flag.Bool("warmup", true, "issue one query per dataset before measuring (engine build + connection setup)")
	failNonRet = flag.Bool("fail-on-nonretryable", false, "exit 1 if any non-retryable error was recorded")
)

// specFlags maps every loadgen.Spec parameter onto a flag of the same
// name, funneled through Spec.Set so flags, grid cells, and docs can
// never drift. Defaults shown in -help come from loadgen.DefaultSpec.
func specFlags(spec *loadgen.Spec) {
	for _, p := range []struct{ key, usage string }{
		{"name", "macro record name (BENCH_<name>.json)"},
		{"seed", "master seed; equal seeds replay identical request sequences"},
		{"qps", "open-loop target arrival rate"},
		{"duration", "run length (e.g. 10s)"},
		{"inflight", "max outstanding requests before arrivals are shed (0 = 16x GOMAXPROCS)"},
		{"datasets", "comma-separated target dataset names"},
		{"dataset-theta", "Zipf skew across datasets in [0,1): 0 uniform, 0.99 hot"},
		{"point-theta", "Zipf skew across each dataset's query-point pool"},
		{"points", "per-dataset popular-point pool size"},
		{"extent", "coordinate extent queries and inserts are drawn from"},
		{"mix", "op mix, e.g. read=9,write=1 or nonzero=2,topk=1,batch=1"},
		{"batch-size", "items per batch op"},
		{"k", "k for topk ops"},
		{"tau", "tau for threshold ops"},
		{"backend", "engine backend for queries (index, direct, diagram; empty = server default)"},
		{"method", "quantifier method (exact, spiral, mc, mcbudget; empty = server default)"},
		{"eps", "eps for spiral/mc methods"},
		{"kind", "insert payload kind: disks or discrete"},
	} {
		key := p.key
		flag.Func(key, p.usage, func(v string) error { return spec.Set(key, v) })
	}
}

func main() {
	spec := loadgen.DefaultSpec()
	specFlags(&spec)
	flag.Parse()

	if err := run(spec); err != nil {
		fmt.Fprintf(os.Stderr, "pnnload: %v\n", err)
		os.Exit(1)
	}
}

func run(spec loadgen.Spec) error {
	specs := []loadgen.Spec{spec}
	if *gridPath != "" {
		f, err := os.Open(*gridPath)
		if err != nil {
			return err
		}
		grid, err := loadgen.ParseGrid(f)
		f.Close()
		if err != nil {
			return err
		}
		cells, err := grid.Cells(spec)
		if err != nil {
			return err
		}
		specs = specs[:0]
		for _, c := range cells {
			specs = append(specs, c.Spec)
		}
	}

	// -dump: emit the deterministic request sequences and exit — the
	// byte-stability witness needs no server.
	if *dumpN > 0 {
		for _, s := range specs {
			if len(specs) > 1 {
				fmt.Printf("## %s seed=%d\n", s.Name, s.Seed)
			}
			gen, err := loadgen.NewGen(s)
			if err != nil {
				return err
			}
			if err := gen.Dump(os.Stdout, *dumpN); err != nil {
				return err
			}
		}
		return nil
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	cli, err := buildClient(spec)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var records []loadgen.MacroRecord
	for i, s := range specs {
		if err := ctx.Err(); err != nil {
			break
		}
		if *warmup {
			warmDatasets(ctx, cli, s.Datasets)
		}
		fmt.Printf("== %s: %.0f qps for %v against %s\n", s.Name, s.QPS, s.Duration, *target)
		res, err := loadgen.Run(ctx, cli, s)
		if err != nil {
			return err
		}
		rec := loadgen.Record(res)
		records = append(records, rec)
		fmt.Printf("   achieved %.1f qps, %d ops, p50 %v p99 %v p999 %v, %d failures (%d non-retryable), %d shed\n",
			rec.AchievedQPS, rec.Ops,
			time.Duration(rec.P50Ns).Round(time.Microsecond),
			time.Duration(rec.P99Ns).Round(time.Microsecond),
			time.Duration(rec.P999Ns).Round(time.Microsecond),
			rec.Failures, rec.NonRetryable, rec.Shed)
		for code, n := range rec.Errors {
			fmt.Printf("   error %s: %d\n", code, n)
		}
		if len(res.Slowest) > 0 {
			// Trace IDs of the run's slowest requests; look them up at
			// /debug/traces on the target (slow-capture keeps every trace
			// at or beyond the server's -slow-query threshold).
			fmt.Println("   slowest traces:")
			for _, t := range res.Slowest {
				fmt.Printf("     %v  %s %s  trace=%s\n",
					t.Latency.Round(time.Microsecond), t.Op, t.Dataset, t.TraceID)
			}
		}
		if *outDir != "" {
			if err := rec.WriteJSON(*outDir); err != nil {
				return err
			}
		}
		if len(specs) > 1 {
			fmt.Printf("   [%d/%d]\n", i+1, len(specs))
		}
	}

	if len(records) > 1 {
		fmt.Println()
		loadgen.Summarize(os.Stdout, records)
	}
	if *csvPath != "" {
		w := os.Stdout
		if *csvPath != "-" {
			f, err := os.Create(*csvPath)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := loadgen.WriteCSV(w, records); err != nil {
			return err
		}
	}
	if *failNonRet {
		var bad int64
		for _, r := range records {
			bad += r.NonRetryable
		}
		if bad > 0 {
			return fmt.Errorf("%d non-retryable errors recorded", bad)
		}
	}
	return nil
}

func buildClient(spec loadgen.Spec) (*client.Client, error) {
	inflight := spec.MaxInflight
	if inflight <= 0 {
		inflight = 256
	}
	opts := []client.Option{
		client.WithTimeout(*httpTO),
		client.WithMaxConns(inflight),
	}
	if *adminToken != "" {
		opts = append(opts, client.WithAdminToken(*adminToken))
	}
	bases := strings.Split(*target, ",")
	if len(bases) == 1 {
		return client.New(bases[0], opts...), nil
	}
	return client.NewMulti(bases, opts...)
}

// warmDatasets touches every target dataset once so the measured run
// never pays first-query engine builds or TCP setup. Failures are
// reported but not fatal: the run itself will surface them as errors.
func warmDatasets(ctx context.Context, cli *client.Client, datasets []string) {
	for _, ds := range datasets {
		if _, err := cli.Nonzero(ctx, ds, 0, 0, nil); err != nil {
			fmt.Fprintf(os.Stderr, "pnnload: warmup %s: %v\n", ds, err)
		}
	}
}
