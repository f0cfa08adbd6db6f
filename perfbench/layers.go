package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"pnn"
	"pnn/api"
	"pnn/client"
	"pnn/internal/datafile"
	"pnn/internal/loadgen"
	"pnn/internal/obs"
	"pnn/server"
	"pnn/server/engine"
	"pnn/server/shard"
	"pnn/store"
)

// Budgets of the in-process layer timings: each layer stops at
// whichever limit it reaches first.
const (
	layerRequests = 60
	layerBudget   = 3 * time.Second
	layerWrites   = 20
)

// benchTraceBuffer holds every span the benchmark records in one run.
const benchTraceBuffer = 1 << 15

// layered is the traced run: an untraced phase and a traced phase of
// the workload, then timed calls into each layer from this package.
func (b *bench) layered(ctx context.Context) (*result, map[string]any, error) {
	d := max(time.Second, time.Duration(b.cfg.seconds)*time.Second/2)
	m := map[string]metric{}

	// Untraced phase: the baseline of the tracing overhead.
	topo, live, _, err := b.setUp(ctx, 0, false)
	if err != nil {
		topo.stop()
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	st, err := b.newStream(b.w.Spec)
	if err != nil {
		topo.stop()
		return nil, nil, err
	}
	plain := b.load(ctx, topo, live, st, rand.New(rand.NewSource(b.cfg.seed+3)), nil, nil, d)
	err = b.verify(ctx, topo, live, plain)
	topo.stop()
	if err != nil {
		return nil, nil, err
	}

	// Traced phase: every request is a root span here, forwarded to the
	// servers, which keep every trace.
	topo, live, _, err = b.setUp(ctx, 1, true)
	defer topo.stop()
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	if st, err = b.newStream(b.w.Spec); err != nil {
		return nil, nil, err
	}
	tracer := obs.NewTracer(1, 0, benchTraceBuffer)
	var before []obs.Snapshot
	traced := b.load(ctx, topo, live, st, rand.New(rand.NewSource(b.cfg.seed+3)), tracer, func() {
		before, err = scrape(ctx, topo)
	}, d)
	if err != nil {
		return nil, nil, err
	}
	after, err := scrape(ctx, topo)
	if err != nil {
		return nil, nil, err
	}
	serverTraces, err := fetchTraces(ctx, topo)
	if err != nil {
		return nil, nil, err
	}
	served, err := servedN(ctx, topo, b.w)
	if err != nil {
		return nil, nil, err
	}
	if err := b.verify(ctx, topo, live, traced); err != nil {
		return nil, nil, err
	}

	plainK, tracedK := summarizeKinds(plain), summarizeKinds(traced)
	m["trace.ops_ratio"] = metric{(float64(len(tracedK["all"])) / traced.wall.Seconds()) / (float64(len(plainK["all"])) / plain.wall.Seconds()), "ratio"}
	m["trace.read_p50_ratio"] = metric{tracedK["read"].pct(0.5) / plainK["read"].pct(0.5), "ratio"}
	late := 0.0
	if b.w.Rate > 0 {
		_, late = lateness(plain)
	}
	m["loadgen.late_ms_p99"] = metric{late, "ms"}
	counterMetrics(m, topo, before, after, traced.wall)

	lr := &layerRun{b: b, tracer: tracer, m: m, info: map[string]any{}, topo: topo}
	if err := lr.run(ctx); err != nil {
		return nil, nil, err
	}

	self := selfTimes(tracer.Snapshot(), serverTraces)
	for name, key := range map[string]string{"client": "self.client_us", "server": "self.server_us", "router": "self.router_us"} {
		m[key] = metric{self[name], "us"}
	}
	files, err := b.writeTraces(tracer.Snapshot(), serverTraces)
	if err != nil {
		return nil, nil, err
	}

	rep := b.report(served)
	for k, v := range lr.info {
		rep[k] = v
	}
	rep["self_us"] = self
	rep["trace_files"] = files
	rep["untraced"] = wallReport(plain, plainK)
	rep["traced"] = wallReport(traced, tracedK)
	return b.result(m), rep, nil
}

// scrape reads /debug/obs of every process, backends first.
func scrape(ctx context.Context, topo *topology) ([]obs.Snapshot, error) {
	var out []obs.Snapshot
	for _, p := range topo.procs() {
		var s obs.Snapshot
		if err := getJSON(ctx, p.url+"/debug/obs", &s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// processTraces is one process's /debug/traces.
type processTraces struct {
	Process string          `json:"process"`
	Traces  []obs.TraceData `json:"traces"`
}

func fetchTraces(ctx context.Context, topo *topology) ([]processTraces, error) {
	var out []processTraces
	for _, p := range topo.procs() {
		pt := processTraces{Process: p.name}
		if err := getJSON(ctx, p.url+"/debug/traces", &pt); err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

func getJSON(ctx context.Context, u string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// counterMetrics derives the server, shard and runtime metrics from the
// /debug/obs snapshots taken before and after the traced phase.
// Counters are differences; histogram percentiles are cumulative since
// start-up, which adds only the set-up and warm-up requests.
func counterMetrics(m map[string]metric, topo *topology, before, after []obs.Snapshot, wall time.Duration) {
	nb := len(topo.backends)
	counter := func(snaps []obs.Snapshot, name string) float64 {
		var sum float64
		for _, s := range snaps[:nb] {
			for _, v := range s.Counters[name] {
				sum += float64(v)
			}
		}
		return sum
	}
	delta := func(name string) float64 { return counter(after, name) - counter(before, name) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	// stage is a count-weighted mean of one histogram label's percentile
	// across the backends.
	stage := func(hist, label string, p99 bool) float64 {
		var sum, n float64
		for _, s := range after[:nb] {
			st, ok := s.Histograms[hist][label]
			if !ok || st.Count == 0 {
				continue
			}
			v := st.P50
			if p99 {
				v = st.P99
			}
			sum += v * float64(st.Count)
			n += float64(st.Count)
		}
		return ratio(sum, n) * 1e6
	}
	hits, misses := delta("pnn_cache_hits_total"), delta("pnn_cache_misses_total")
	m["server.cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["server.batch_size_mean"] = metric{ratio(delta("pnn_batched_requests_total"), delta("pnn_batches_total")), "count"}
	m["server.queue_wait_p50_us"] = metric{stage("pnn_stage_duration_seconds", "queue", false), "us"}
	m["server.execute_p50_us"] = metric{stage("pnn_stage_duration_seconds", "execute", false), "us"}
	m["server.encode_p50_us"] = metric{stage("pnn_stage_duration_seconds", "encode", false), "us"}
	m["server.index_builds"] = metric{delta("pnn_index_builds_total"), "count"}
	fallbacks := delta("pnn_delta_fallback_total")
	m["server.delta_fallback_ratio"] = metric{ratio(fallbacks, fallbacks+delta("pnn_delta_applied_total")), "ratio"}
	lockP99 := 0.0
	for _, s := range after[:nb] {
		for _, st := range s.Histograms["pnn_lock_wait_seconds"] {
			lockP99 = max(lockP99, st.P99*1e6)
		}
	}
	m["server.lock_wait_p99_us"] = metric{lockP99, "us"}

	var pause, heap float64
	for i := range after {
		if after[i].Runtime != nil && before[i].Runtime != nil {
			pause += after[i].Runtime.GCPauseTotalSecs - before[i].Runtime.GCPauseTotalSecs
			heap += float64(after[i].Runtime.HeapAllocBytes) / (1 << 20)
		}
	}
	m["runtime.gc_pause_ms_per_s"] = metric{pause * 1000 / wall.Seconds(), "ms/s"}
	m["runtime.heap_mb"] = metric{heap, "MiB"}

	if topo.router != nil {
		r0, r1 := before[nb].Counters, after[nb].Counters
		c := func(cs map[string]map[string]uint64, name string) float64 { return float64(cs[name][""]) }
		m["shard.fanout_per_batch"] = metric{ratio(c(r1, "pnn_router_sub_batches_total")-c(r0, "pnn_router_sub_batches_total"), c(r1, "pnn_router_batches_total")-c(r0, "pnn_router_batches_total")), "count"}
		m["shard.retries"] = metric{c(r1, "pnn_router_failovers_total") - c(r0, "pnn_router_failovers_total"), "count"}
	}
}

// layerRun times calls into each layer's public functions on the
// workload's datasets and a fresh-point variant of its query stream,
// so that no layer answers from a cache.
type layerRun struct {
	b      *bench
	tracer *obs.Tracer
	m      map[string]metric
	info   map[string]any
	topo   *topology
}

// span runs fn under a leaf span named name, a child of ctx's span,
// and returns fn's duration.
func span(ctx context.Context, name string, fn func() error) (time.Duration, error) {
	s := obs.LeafSpan(ctx, name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	s.End()
	return d, err
}

// root starts the root span of one layer request. Its trace id is the
// request id every span of the request shares.
func (lr *layerRun) root(ctx context.Context, layer string) (context.Context, *obs.Span) {
	return obs.StartTrace(ctx, lr.tracer, "layer."+layer, "")
}

func (lr *layerRun) set(name, unit string, v float64) { lr.m[name] = metric{v, unit} }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// medianDur is the median of ds in microseconds (0 when empty).
func medianDur(ds []time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = us(d)
	}
	return median(v)
}

// engineOpts are the pnn options of the workload's serving engine.
func (lr *layerRun) engineOpts() ([]pnn.Option, error) {
	key := server.IndexKey{Backend: "index", Method: "exact", Seed: 1}
	if lr.b.w.Spec.Method == "spiral" {
		key.Method, key.Eps = "spiral", lr.b.w.Spec.Eps
	}
	return key.Options()
}

// layerStream is the workload's read stream with fresh points.
func (lr *layerRun) layerStream(mix string) (*stream, error) {
	spec := lr.b.w.Spec
	spec.Seed += 11
	spec.Points, spec.PointTheta = freshPoints, 0
	var err error
	if spec.Mix, err = loadgen.ParseMix(mix); err != nil {
		return nil, err
	}
	return lr.b.newStream(spec)
}

func (lr *layerRun) run(ctx context.Context) error {
	for _, step := range []func(context.Context) error{lr.requestPath, lr.dynamic, lr.storeLayer, lr.shardLayer} {
		if err := step(ctx); err != nil {
			return err
		}
	}
	return nil
}

func toPnn(r loadgen.Request) (pnn.Request, error) {
	q := pnn.Request{Q: pnn.Pt(r.X, r.Y), K: r.K, Tau: r.Tau}
	switch r.Op {
	case "nonzero":
		q.Op = pnn.OpNonzero
	case "probabilities":
		q.Op = pnn.OpProbabilities
	case "topk":
		q.Op = pnn.OpTopK
	case "threshold":
		q.Op = pnn.OpThreshold
	case "expectednn":
		q.Op = pnn.OpExpectedNN
	default:
		return q, fmt.Errorf("op %q is not a read", r.Op)
	}
	return q, nil
}

// queryURL is the single-query URL the client would send for r.
func (lr *layerRun) queryURL(r loadgen.Request) string {
	v := url.Values{}
	v.Set("dataset", r.Dataset)
	v.Set("x", strconv.FormatFloat(r.X, 'g', -1, 64))
	v.Set("y", strconv.FormatFloat(r.Y, 'g', -1, 64))
	switch r.Op {
	case "topk":
		v.Set("k", strconv.Itoa(r.K))
	case "threshold":
		v.Set("tau", strconv.FormatFloat(r.Tau, 'g', -1, 64))
	}
	if lr.b.w.Spec.Method != "" {
		v.Set("method", lr.b.w.Spec.Method)
		v.Set("eps", strconv.FormatFloat(lr.b.w.Spec.Eps, 'g', -1, 64))
	}
	return api.QueryPath(r.Op) + "?" + v.Encode()
}

// requestPath times one read request three ways: through the client to
// the live server, through an in-process server handler with its cache
// off, and as a direct pnn call. The differences are the client's and
// the server's own shares.
func (lr *layerRun) requestPath(ctx context.Context) error {
	opts, err := lr.engineOpts()
	if err != nil {
		return err
	}
	reg := server.NewRegistry()
	ixs := map[string]*pnn.Index{}
	var builds []time.Duration
	for _, d := range lr.b.w.Datasets {
		set, err := lr.b.files[d.Name].Set()
		if err != nil {
			return err
		}
		var ix *pnn.Index
		rctx, root := lr.root(ctx, "pnn.build")
		dur, err := span(rctx, "pnn.New", func() error {
			var err error
			ix, err = pnn.New(set, opts...)
			return err
		})
		root.End()
		if err != nil {
			return err
		}
		builds = append(builds, dur)
		ixs[d.Name] = ix
		if err := reg.Add(d.Name, set); err != nil {
			return err
		}
	}
	lr.set("pnn.build_ms", "ms", medianDur(builds)/1e3)

	srv := server.New(reg, server.Config{CacheSize: -1, TraceBuffer: -1})
	defer srv.Close()
	h := srv.Handler()
	// The live server answers from the first backend directly, so the
	// client figure carries no router hop.
	cli := client.New(lr.topo.backends[0].url, client.WithMaxConns(1))
	is := &issuer{cli: cli}
	if lr.b.w.Spec.Method != "" {
		is.params = &client.Params{Method: lr.b.w.Spec.Method, Eps: lr.b.w.Spec.Eps}
	}
	serve := func(r loadgen.Request) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, lr.queryURL(r), nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process %s: %d %s", r.Op, rec.Code, rec.Body.String())
		}
		return nil
	}
	// One request per dataset builds the in-process engines untimed.
	for _, d := range lr.b.w.Datasets {
		if err := serve(loadgen.Request{Op: "topk", Dataset: d.Name, X: 50, Y: 50, K: 3}); err != nil {
			return err
		}
	}

	st, err := lr.layerStream("")
	if err != nil {
		return err
	}
	var quantify, nonzero, handler, self, clientOver []time.Duration
	var tSum, nSum float64
	var perCandidate []float64
	start := time.Now()
	for i := 0; i < layerRequests && time.Since(start) < layerBudget; i++ {
		r, _ := st.next()
		q, err := toPnn(r)
		if err != nil {
			return err
		}
		ix := ixs[r.Dataset]
		rctx, root := lr.root(ctx, "request."+r.Op)
		tc, err := span(rctx, "client", func() error { _, err := is.do(rctx, r); return err })
		if err != nil {
			root.End()
			return fmt.Errorf("client %s: %w", r.Op, err)
		}
		th, err := span(rctx, "server.handler", func() error { return serve(r) })
		if err != nil {
			root.End()
			return err
		}
		tp, err := span(rctx, "pnn.QueryBatchOps", func() error {
			res, err := ix.QueryBatchOps(rctx, []pnn.Request{q}, 1)
			if err == nil && res[0].Err != nil {
				err = res[0].Err
			}
			return err
		})
		root.End()
		if err != nil {
			return err
		}
		nz, err := ix.Nonzero(q.Q)
		if err != nil {
			return err
		}
		t := float64(len(nz))
		tSum += t
		nSum += float64(ix.Len())
		if q.Op == pnn.OpNonzero {
			nonzero = append(nonzero, tp)
		} else {
			quantify = append(quantify, tp)
			perCandidate = append(perCandidate, us(tp)/max(t, 1))
		}
		handler = append(handler, th)
		self = append(self, th-tp)
		clientOver = append(clientOver, tc-th)
	}
	n := float64(len(handler))
	lr.set("pnn.quantify_us", "us", medianDur(quantify))
	lr.set("pnn.nonzero_us", "us", medianDur(nonzero))
	// t describes the data and the query stream, not the code, so it is
	// reported beside the metrics rather than as one.
	lr.info["pnn.t_mean"] = tSum / n
	lr.info["pnn.t_over_n"] = tSum / nSum
	lr.set("pnn.quantify_us_per_candidate", "us", median(perCandidate))
	lr.set("server.handler_us", "us", medianDur(handler))
	lr.set("server.self_us", "us", medianDur(self))
	lr.set("client.overhead_us", "us", medianDur(clientOver))
	return nil
}

// extraPoints are points the write timings insert, drawn apart from the
// datasets.
func (lr *layerRun) extraPoints() ([]store.Point, error) {
	d := lr.b.w.Datasets[0]
	f, err := dataset{d.Name, d.Kind, layerWrites, d.K, d.Seed + 99}.file()
	if err != nil {
		return nil, err
	}
	return storePoints(f), nil
}

func storePoints(f *datafile.File) []store.Point {
	var pts []store.Point
	for i := range f.Disks {
		pts = append(pts, store.Point{Disk: &f.Disks[i]})
	}
	for i := range f.Discrete {
		pts = append(pts, store.Point{Discrete: &f.Discrete[i]})
	}
	return pts
}

// quantifyProbe is the quantification the view-rebuild timing issues.
var quantifyProbe = pnn.Request{Q: pnn.Pt(50, 50), Op: pnn.OpTopK, K: 3}

// dynamic times the dynamic index and the engine over it: single
// inserts and deletes, the first quantification after each (which
// rebuilds the live view), one-op deltas through engine.Apply, and the
// engine build.
func (lr *layerRun) dynamic(ctx context.Context) error {
	opts, err := lr.engineOpts()
	if err != nil {
		return err
	}
	d := lr.b.w.Datasets[0]
	pts := storePoints(lr.b.files[d.Name])
	ids := make([]uint64, len(pts))
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	extra, err := lr.extraPoints()
	if err != nil {
		return err
	}

	var eng *engine.Dynamic
	rctx, root := lr.root(ctx, "engine.build")
	build, err := span(rctx, "engine.BuildDynamic", func() error {
		var err error
		eng, err = engine.BuildDynamic(ids, pts, opts)
		return err
	})
	root.End()
	if err != nil {
		return err
	}
	lr.set("engine.build_ms", "ms", us(build)/1e3)

	dyn, err := pnn.NewDynamic(opts...)
	if err != nil {
		return err
	}
	insert := func(p store.Point) (pnn.PointID, error) {
		if p.Disk != nil {
			return dyn.InsertDisk(store.DiskPoint(*p.Disk))
		}
		dp, err := store.DiscretePoint(*p.Discrete)
		if err != nil {
			return 0, err
		}
		return dyn.InsertDiscrete(dp)
	}
	for _, p := range pts {
		if _, err := insert(p); err != nil {
			return err
		}
	}
	firstQuery := func(rctx context.Context) (time.Duration, error) {
		return span(rctx, "pnn.DynamicIndex.QueryBatchOps", func() error {
			_, err := dyn.QueryBatchOps(rctx, []pnn.Request{quantifyProbe}, 1)
			return err
		})
	}
	var ins, del, rebuild, apply []time.Duration
	rebuiltBefore := eng.Cost().RebuiltMembers
	nextID := uint64(len(pts) + 1)
	start := time.Now()
	writes := 0
	for i, p := range extra {
		if time.Since(start) > layerBudget {
			break
		}
		rctx, root := lr.root(ctx, "dynamic.write")
		var id pnn.PointID
		t, err := span(rctx, "pnn.DynamicIndex.Insert", func() error {
			var err error
			id, err = insert(p)
			return err
		})
		if err != nil {
			root.End()
			return err
		}
		ins = append(ins, t)
		if t, err = firstQuery(rctx); err != nil {
			root.End()
			return err
		}
		rebuild = append(rebuild, t)
		if t, err = span(rctx, "pnn.DynamicIndex.Delete", func() error { return dyn.Delete(id) }); err != nil {
			root.End()
			return err
		}
		del = append(del, t)
		if t, err = firstQuery(rctx); err != nil {
			root.End()
			return err
		}
		rebuild = append(rebuild, t)

		// The same insert and a delete of an original point as one-op
		// deltas through the engine.
		seq := uint64(2*i + 1)
		ops := [][]store.DeltaOp{
			{{Seq: seq, IDs: []uint64{nextID}, Points: []store.Point{p}}},
			{{Seq: seq + 1, Deleted: uint64(i + 1)}},
		}
		nextID++
		for _, op := range ops {
			t, err := span(rctx, "engine.Dynamic.Apply", func() error { return eng.Apply(op) })
			if err != nil {
				root.End()
				return err
			}
			apply = append(apply, t)
			writes++
		}
		root.End()
	}
	lr.set("pnn.dyn_insert_us", "us", medianDur(ins))
	lr.set("pnn.dyn_delete_us", "us", medianDur(del))
	lr.set("pnn.dyn_view_rebuild_ms", "ms", medianDur(rebuild)/1e3)
	lr.set("engine.apply_us", "us", medianDur(apply))
	lr.set("engine.rebuilt_members_per_write", "count", float64(eng.Cost().RebuiltMembers-rebuiltBefore)/float64(max(writes, 1)))
	return nil
}

// storeLayer times durable writes in a store on the same filesystem as
// the servers' stores, then the replay of the resulting log.
func (lr *layerRun) storeLayer(ctx context.Context) error {
	d := lr.b.w.Datasets[0]
	dir := filepath.Join(lr.b.runDir, "layer-store")
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	if _, err := st.CreateDataset(ctx, d.Name, d.Kind); err != nil {
		return err
	}
	if _, err := st.InsertPoints(ctx, d.Name, storePoints(lr.b.files[d.Name])); err != nil {
		return err
	}
	extra, err := lr.extraPoints()
	if err != nil {
		return err
	}
	walPath := filepath.Join(dir, "wal.log")
	fi, err := os.Stat(walPath)
	if err != nil {
		return err
	}
	walBefore := fi.Size()
	var ins, del []time.Duration
	for _, p := range extra {
		rctx, root := lr.root(ctx, "store.write")
		var m store.Mutation
		t, err := span(rctx, "store.InsertPoints", func() error {
			var err error
			m, err = st.InsertPoints(rctx, d.Name, []store.Point{p})
			return err
		})
		if err != nil {
			root.End()
			return err
		}
		ins = append(ins, t)
		t, err = span(rctx, "store.DeletePoint", func() error {
			_, err := st.DeletePoint(rctx, d.Name, m.IDs[0])
			return err
		})
		root.End()
		if err != nil {
			return err
		}
		del = append(del, t)
	}
	if fi, err = os.Stat(walPath); err != nil {
		return err
	}
	lr.set("store.insert_us", "us", medianDur(ins))
	lr.set("store.delete_us", "us", medianDur(del))
	lr.set("store.wal_bytes_per_write", "bytes", float64(fi.Size()-walBefore)/float64(2*len(extra)))
	if err := st.Close(); err != nil {
		return err
	}
	st = nil
	rctx, root := lr.root(ctx, "store.open")
	t, err := span(rctx, "store.Open", func() error {
		var err error
		st, err = store.Open(dir)
		return err
	})
	root.End()
	if err != nil {
		return err
	}
	lr.set("store.open_ms", "ms", us(t)/1e3)
	return nil
}

// shardLayer times batch envelopes through a router against the same
// kind of envelopes sent straight to the owning backends. Workloads
// without a live router get an in-process one over their backend.
func (lr *layerRun) shardLayer(ctx context.Context) error {
	routerURL := ""
	if lr.topo.router != nil {
		routerURL = lr.topo.router.url
	} else {
		rt, err := shard.New(shard.Config{Backends: []string{lr.topo.backends[0].url}, ProbeInterval: -1, TraceBuffer: -1})
		if err != nil {
			return err
		}
		defer rt.Close()
		ts := httptest.NewServer(rt.Handler())
		defer ts.Close()
		routerURL = ts.URL
	}
	owners := map[string]string{}
	for _, d := range lr.b.w.Datasets {
		o, err := ownerOf(ctx, routerURL, d.Name, lr.b.w.Spec)
		if err != nil {
			return err
		}
		owners[d.Name] = o
	}
	st, err := lr.layerStream("batch=1")
	if err != nil {
		return err
	}
	viaRouter := client.New(routerURL, client.WithMaxConns(1))
	direct := map[string]*client.Client{}
	for _, p := range lr.topo.backends {
		direct[p.url] = client.New(p.url, client.WithMaxConns(1))
	}
	var routed, straight []time.Duration
	var fanout []float64
	start := time.Now()
	for i := 0; i < layerRequests && time.Since(start) < layerBudget; i++ {
		r, _ := st.next()
		if lr.b.w.Spec.Method == "" {
			// An Exact item costs tens of milliseconds, which would bury
			// the router's share in noise; the router's work does not
			// depend on the op.
			for j := range r.Items {
				r.Items[j].Op, r.Items[j].K, r.Items[j].Tau = "nonzero", 0, 0
			}
		}
		rctx, root := lr.root(ctx, "shard.batch")
		if i%2 == 0 {
			t, err := span(rctx, "router.batch", func() error { _, err := viaRouter.Batch(rctx, r.Items); return err })
			root.End()
			if err != nil {
				return err
			}
			routed = append(routed, t)
			continue
		}
		groups := map[string][]api.BatchItem{}
		for _, it := range r.Items {
			groups[owners[it.Dataset]] = append(groups[owners[it.Dataset]], it)
		}
		fanout = append(fanout, float64(len(groups)))
		t, err := span(rctx, "direct.batch", func() error {
			var wg sync.WaitGroup
			errs := make(chan error, len(groups))
			for owner, items := range groups {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, err := direct[owner].Batch(rctx, items)
					errs <- err
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					return err
				}
			}
			return nil
		})
		root.End()
		if err != nil {
			return err
		}
		straight = append(straight, t)
	}
	lr.set("shard.proxy_overhead_us", "us", medianDur(routed)-medianDur(straight))
	if lr.topo.router == nil {
		lr.set("shard.fanout_per_batch", "count", median(fanout))
		lr.set("shard.retries", "count", 0)
	}
	return nil
}

// ownerOf asks the router which backend answers a dataset, with a
// query on the engine the workload uses, so that no other engine is
// built.
func ownerOf(ctx context.Context, routerURL, dataset string, spec loadgen.Spec) (string, error) {
	v := url.Values{"dataset": {dataset}, "x": {"0"}, "y": {"0"}}
	if spec.Method != "" {
		v.Set("method", spec.Method)
		v.Set("eps", strconv.FormatFloat(spec.Eps, 'g', -1, 64))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, routerURL+api.QueryPath("nonzero")+"?"+v.Encode(), nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	resp.Body.Close()
	owner := resp.Header.Get(api.BackendHeader)
	if resp.StatusCode != http.StatusOK || owner == "" {
		return "", fmt.Errorf("owner of %s: status %s, backend %q", dataset, resp.Status, owner)
	}
	return owner, nil
}

// selfTimes is the mean self time in microseconds of each span name:
// its duration minus the part its children cover. Server spans are
// keyed "<process>:<name>"; "client" is a load request's duration less
// the first server-side root span of the same trace, and "server" and
// "router" are the mean self times of those processes' root spans.
func selfTimes(bench []obs.TraceData, servers []processTraces) map[string]float64 {
	sum, n := map[string]float64{}, map[string]float64{}
	add := func(name string, v float64) { sum[name] += v; n[name]++ }
	entryRoot := map[string]int64{} // trace id → duration of the first tier's root
	visit := func(prefix string, t obs.TraceData, entry bool) {
		children := map[string][]obs.SpanData{}
		for _, s := range t.Spans {
			if s.ParentID != "" {
				children[s.ParentID] = append(children[s.ParentID], s)
			}
		}
		ids := map[string]bool{}
		for _, s := range t.Spans {
			ids[s.SpanID] = true
		}
		for _, s := range t.Spans {
			self := float64(s.DurationNs - covered(s, children[s.SpanID]))
			add(prefix+s.Name, self/1e3)
			if !ids[s.ParentID] { // a root on this process
				switch {
				case prefix == "router:":
					add("router", self/1e3)
				case prefix != "":
					add("server", self/1e3)
				}
				if entry {
					if _, ok := entryRoot[t.TraceID]; !ok {
						entryRoot[t.TraceID] = s.DurationNs
					}
				}
			}
		}
	}
	hasRouter := false
	for _, p := range servers {
		if p.Process == "pnnrouter" {
			hasRouter = true
		}
	}
	for _, p := range servers {
		prefix := "server:"
		if p.Process == "pnnrouter" {
			prefix = "router:"
		}
		for _, t := range p.Traces {
			visit(prefix, t, (prefix == "router:") == hasRouter)
		}
	}
	for _, t := range bench {
		visit("", t, false)
		for _, s := range t.Spans {
			if s.Name == "request" && s.ParentID == "" {
				if d, ok := entryRoot[t.TraceID]; ok {
					add("client", float64(s.DurationNs-d)/1e3)
				}
			}
		}
	}
	out := map[string]float64{}
	for k, v := range sum {
		out[k] = v / n[k]
	}
	return out
}

// covered is how much of s the union of its children's intervals
// covers.
func covered(s obs.SpanData, children []obs.SpanData) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.StartNs, s.StartNs), min(c.StartNs+c.DurationNs, s.StartNs+s.DurationNs)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = -1 << 62
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// writeTraces saves the benchmark's spans and the servers' traces
// next to the run's other outputs.
func (b *bench) writeTraces(spans []obs.TraceData, servers []processTraces) ([]string, error) {
	base := filepath.Join(b.cfg.outDir, fmt.Sprintf("%s-seed%d", b.w.Name, b.cfg.seed))
	files := []string{base + "-spans.json", base + "-server-traces.json"}
	for i, v := range []any{spans, servers} {
		data, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(files[i], data, 0o644); err != nil {
			return nil, err
		}
	}
	return files, nil
}
