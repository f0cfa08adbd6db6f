package main

import (
	"context"
	"debug/buildinfo"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pnn/api"
	"pnn/internal/datafile"
	"pnn/internal/loadgen"
	"pnn/internal/obs"
)

// setupRuns is how many times a run sets the topology up; setup_s is
// the median.
const setupRuns = 5

// seedChunk is the number of points per seeding insert.
const seedChunk = 500

// quietChecks is the number of reads the churn quiet pass checks.
const quietChecks = 60

// bench is the state of one run.
type bench struct {
	cfg    config
	w      workload
	runDir string
	files  map[string]*datafile.File
	refs   map[string]*reference
	eps    float64

	wrong      int
	firstWrong string
	attempted  int
	failed     int
}

func runWorkload(ctx context.Context, cfg config) (*result, map[string]any, error) {
	w := cfg.workload
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	runDir, err := os.MkdirTemp(cfg.outDir, w.Name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(runDir)
	b := &bench{cfg: cfg, w: w, runDir: runDir, files: map[string]*datafile.File{}, refs: map[string]*reference{}}
	if w.Spec.Method == "spiral" {
		b.eps = w.Spec.Eps
	}
	for _, d := range w.Datasets {
		f, err := d.file()
		if err != nil {
			return nil, nil, fmt.Errorf("dataset %s: %w", d.Name, err)
		}
		ref, err := newReference(f)
		if err != nil {
			return nil, nil, fmt.Errorf("reference %s: %w", d.Name, err)
		}
		b.files[d.Name], b.refs[d.Name] = f, ref
	}
	if cfg.trace {
		return b.layered(ctx)
	}
	return b.endToEnd(ctx)
}

// note counts one wrong answer.
func (b *bench) note(wrong int, err error) {
	b.wrong += wrong
	if err != nil && b.firstWrong == "" {
		b.firstWrong = err.Error()
	}
}

// balanceAttempts bounds the relaunches setUp makes to find a routed
// topology whose backends own equal shares of the datasets; one launch
// succeeds with probability 3/8.
const balanceAttempts = 30

// setUp launches the topology, seeds a durable dataset, and waits for
// the first correct answer on every dataset. It returns the elapsed
// time; the caller stops the topology.
//
// The router assigns datasets to backends by hashing their URLs, and
// the ports are fresh each launch. A routed topology is kept only when
// each backend owns the same number of datasets: otherwise one backend
// may own all four, no envelope is ever scattered, and the cost per
// envelope changes from launch to launch. A rejected launch does not
// count towards the set-up time.
func (b *bench) setUp(ctx context.Context, n int, traced bool) (*topology, *liveSet, time.Duration, error) {
	for attempt := 1; ; attempt++ {
		topo, live, d, err := b.setUpOnce(ctx, n, traced)
		if err != nil || !b.w.Routed {
			return topo, live, d, err
		}
		ok, err := b.balanced(ctx, topo)
		if err != nil || ok {
			return topo, live, d, err
		}
		topo.stop()
		if attempt == balanceAttempts {
			return nil, nil, 0, fmt.Errorf("no balanced routed topology in %d launches", attempt)
		}
	}
}

// balanced reports whether every backend owns the same number of
// datasets.
func (b *bench) balanced(ctx context.Context, topo *topology) (bool, error) {
	owned := map[string]int{}
	for _, d := range b.w.Datasets {
		o, err := ownerOf(ctx, topo.router.url, d.Name, b.w.Spec)
		if err != nil {
			return false, err
		}
		owned[o]++
	}
	for _, p := range topo.backends {
		if owned[p.url]*len(topo.backends) != len(b.w.Datasets) {
			return false, nil
		}
	}
	return true, nil
}

func (b *bench) setUpOnce(ctx context.Context, n int, traced bool) (*topology, *liveSet, time.Duration, error) {
	start := time.Now()
	o := launchOpts{binDir: b.cfg.binDir, traced: traced, storeDir: filepath.Join(b.runDir, fmt.Sprintf("store-%d", n))}
	topo, err := launch(ctx, b.w, o)
	if err != nil {
		return topo, nil, 0, err
	}
	var live *liveSet
	if b.w.Store {
		live = newLiveSet(b.cfg.seed + 5)
	}
	is := newIssuer(topo.entry, b.w, live, 1)
	if b.w.Store {
		for _, d := range b.w.Datasets {
			if _, err := is.cli.CreateDataset(ctx, d.Name, d.Kind); err != nil {
				return topo, nil, 0, fmt.Errorf("creating %s: %w", d.Name, err)
			}
			// Seeding in chunks keeps the transient garbage of one huge
			// request from setting the server's peak resident set.
			var pts []api.DiscretePointJSON
			for _, p := range b.files[d.Name].Discrete {
				pts = append(pts, api.DiscretePointJSON{X: p.X, Y: p.Y, W: p.W})
			}
			for len(pts) > 0 {
				chunk := pts[:min(seedChunk, len(pts))]
				pts = pts[len(chunk):]
				if _, err := is.do(ctx, loadgen.Request{Op: loadgen.OpInsert, Dataset: d.Name, Discrete: chunk}); err != nil {
					return topo, nil, 0, fmt.Errorf("seeding %s: %w", d.Name, err)
				}
			}
		}
	}
	// A nonzero query builds the engine every read of the workload uses.
	var first []answer
	for _, d := range b.w.Datasets {
		req := loadgen.Request{Op: "nonzero", Dataset: d.Name, X: 50, Y: 50}
		resp, err := is.do(ctx, req)
		if err != nil {
			return topo, nil, 0, fmt.Errorf("first answer on %s: %w", d.Name, err)
		}
		first = append(first, answer{req, resp})
	}
	elapsed := time.Since(start)
	for _, a := range first {
		b.note(checkAnswer(b.refs, b.eps, a))
	}
	return topo, live, elapsed, nil
}

// newStream is the run's request stream: loadgen's generator seeded
// with the run seed.
func (b *bench) newStream(spec loadgen.Spec) (*stream, error) {
	gen, err := loadgen.NewGen(spec)
	if err != nil {
		return nil, err
	}
	return &stream{gen: gen}, nil
}

// load runs the warm-up and a measured phase of length d against topo.
// before, when set, runs between the two.
func (b *bench) load(ctx context.Context, topo *topology, live *liveSet, st *stream, arrivals *rand.Rand, tracer *obs.Tracer, before func(), d time.Duration) phase {
	is := newIssuer(topo.entry, b.w, live, b.w.Clients)
	warm := b.w
	warm.Rate = 0
	runPhase(ctx, warm, is, st, 0, b.w.Warmup, keeper{}, nil, nil)
	if before != nil {
		before()
	}
	ph := runPhase(ctx, b.w, is, st, d, 0, b.w.Keep, arrivals, tracer)
	for _, s := range ph.samples {
		b.attempted++
		if s.err != nil {
			b.failed++
		}
	}
	return ph
}

// verify checks a phase's kept answers, or for a durable workload runs
// the quiet pass: reads checked against the set implied by the
// benchmark's log of acknowledged writes.
func (b *bench) verify(ctx context.Context, topo *topology, live *liveSet, ph phase) error {
	if live == nil {
		for _, a := range ph.answers {
			b.note(checkAnswer(b.refs, b.eps, a))
		}
		return nil
	}
	d := b.w.Datasets[0]
	f := &datafile.File{Kind: datafile.KindDiscrete, Discrete: live.snapshot()}
	ref, err := newReference(f)
	if err != nil {
		return fmt.Errorf("reference from the write log: %w", err)
	}
	refs := map[string]*reference{d.Name: ref}
	is := newIssuer(topo.entry, b.w, nil, 1)
	infos, err := is.cli.Datasets(ctx)
	if err != nil {
		return err
	}
	for _, info := range infos {
		if info.Name == d.Name && info.N != len(f.Discrete) {
			b.note(1, fmt.Errorf("%s serves %d points, the write log implies %d", d.Name, info.N, len(f.Discrete)))
		}
	}
	spec := b.w.Spec
	spec.Seed += 7
	spec.Mix, _ = loadgen.ParseMix("") // reads only; the empty mix always parses
	st, err := b.newStream(spec)
	if err != nil {
		return err
	}
	for i := 0; i < quietChecks; i++ {
		req, _ := st.next()
		resp, err := is.do(ctx, req)
		b.attempted++
		if err != nil {
			b.failed++
			continue
		}
		b.note(checkAnswer(refs, b.eps, answer{req, resp}))
	}
	return nil
}

// servedN lists the number of points each dataset serves.
func servedN(ctx context.Context, topo *topology, w workload) (map[string]int, error) {
	is := newIssuer(topo.entry, w, nil, 1)
	infos, err := is.cli.Datasets(ctx)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int)
	for _, info := range infos {
		out[info.Name] = info.N
	}
	return out, nil
}

func (b *bench) endToEnd(ctx context.Context) (*result, map[string]any, error) {
	var setups []float64
	var topo *topology
	var live *liveSet
	for i := 0; i < setupRuns; i++ {
		t, l, d, err := b.setUp(ctx, i, false)
		if err != nil {
			t.stop()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			t.stop()
		} else {
			topo, live = t, l
		}
	}
	defer topo.stop()

	st, err := b.newStream(b.w.Spec)
	if err != nil {
		return nil, nil, err
	}
	var cpu0 float64
	ph := b.load(ctx, topo, live, st, rand.New(rand.NewSource(b.cfg.seed+3)), nil, func() {
		cpu0, err = topo.cpuSeconds()
	}, time.Duration(b.cfg.seconds)*time.Second)
	if err != nil {
		return nil, nil, err
	}
	cpu1, err := topo.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	served, err := servedN(ctx, topo, b.w)
	if err != nil {
		return nil, nil, err
	}
	rss, err := topo.rssMB()
	if err != nil {
		return nil, nil, err
	}
	if err := b.verify(ctx, topo, live, ph); err != nil {
		return nil, nil, err
	}

	kinds := summarizeKinds(ph)
	if len(kinds["all"]) == 0 {
		return nil, nil, fmt.Errorf("no successful requests in %s", b.w.Name)
	}
	res := b.result(map[string]metric{
		"server_cpu_ms_per_op": {(cpu1 - cpu0) * 1000 / float64(len(kinds["all"])), "ms"},
		"server_rss_mb":        {rss, "MiB"},
		"setup_s":              {median(setups), "s"},
	})
	rep := b.report(served)
	rep["setup_s_each"] = setups
	for k, v := range wallReport(ph, kinds) {
		rep[k] = v
	}
	if b.w.Rate > 0 {
		rep["late_ms_p50"], rep["late_ms_p99"] = lateness(ph)
	}
	return res, rep, nil
}

func (b *bench) result(m map[string]metric) *result {
	return &result{
		Correct:   b.wrong == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   m,
	}
}

// report holds what the run measured under: enough to reproduce it.
func (b *bench) report(served map[string]int) map[string]any {
	goVersion := runtime.Version()
	if info, err := buildinfo.ReadFile(filepath.Join(b.cfg.binDir, "pnnserve")); err == nil {
		goVersion = info.GoVersion
	}
	loop := fmt.Sprintf("closed, %d clients", b.w.Clients)
	if b.w.Rate > 0 {
		loop = fmt.Sprintf("open, Poisson %g/s, %d connections", b.w.Rate, b.w.Clients)
	}
	failedRatio := 0.0
	if b.attempted > 0 {
		failedRatio = float64(b.failed) / float64(b.attempted)
	}
	return map[string]any{
		"workload":          b.w.Name,
		"seed":              b.cfg.seed,
		"seconds":           b.cfg.seconds,
		"nproc":             runtime.NumCPU(),
		"server_gomaxprocs": serverGOMAXPROCS,
		"go_version":        goVersion,
		"served_n":          served,
		"loop":              loop,
		"failed_ratio":      failedRatio,
		"wrong_answers":     b.wrong,
		"first_wrong":       b.firstWrong,
	}
}

// durations is a sorted latency sample.
type durations []time.Duration

// pct is the nearest-rank q-quantile in milliseconds.
func (s durations) pct(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(q*float64(len(s))+0.5) - 1
	i = max(0, min(len(s)-1, i))
	return float64(s[i]) / 1e6
}

// tail is the highest of p99, p95 and p90 with at least ten samples
// beyond it.
func (s durations) tail() (string, float64, bool) {
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if float64(len(s))*(1-q) >= 10 {
			return fmt.Sprintf("p%02.0f", q*100), s.pct(q), true
		}
	}
	return "", 0, false
}

// kindOf groups ops the way the metrics report them.
func kindOf(op string) string {
	switch op {
	case "nonzero":
		return "nonzero"
	case "probabilities", "topk", "threshold", "expectednn":
		return "quantify"
	case loadgen.OpBatch:
		return "batch"
	default:
		return "write"
	}
}

// summarizeKinds sorts the successful latencies by kind, plus "read"
// (every non-write) and "all".
func summarizeKinds(ph phase) map[string]durations {
	out := map[string]durations{}
	for _, s := range ph.samples {
		if s.err != nil {
			continue
		}
		k := kindOf(s.op)
		out[k] = append(out[k], s.lat)
		out["all"] = append(out["all"], s.lat)
		if k != "write" {
			out["read"] = append(out["read"], s.lat)
		}
	}
	for _, d := range out {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	}
	return out
}

// wallReport renders the wall-clock figures of a phase: completed
// operations per second, and per kind of op the sample count, the p50
// and the highest percentile the sample supports. They are reported,
// not gated: on a shared two-core host they swing by up to a factor of
// two with the load of neighbouring machines (see perfbench/README.md).
func wallReport(ph phase, kinds map[string]durations) map[string]any {
	out := map[string]any{"ops_per_s": float64(len(kinds["all"])) / ph.wall.Seconds()}
	for _, k := range []string{"read", "nonzero", "quantify", "batch", "write"} {
		s, ok := kinds[k]
		if !ok {
			continue
		}
		out[k+"_samples"] = len(s)
		out[k+"_p50_ms"] = s.pct(0.5)
		if name, v, ok := s.tail(); ok {
			out[k+"_"+name+"_ms"] = v
		}
	}
	return out
}

// lateness is the median and p99 of how late an open loop sent its
// requests against their schedule, in milliseconds.
func lateness(ph phase) (float64, float64) {
	var d []time.Duration
	for _, s := range ph.samples {
		d = append(d, s.late)
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	l := durations(d)
	return l.pct(0.5), l.pct(0.99)
}

func median(v []float64) float64 {
	s := append([]float64{}, v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
