package main

import (
	"fmt"
	"sort"

	"pnn/internal/datafile"
	"pnn/internal/loadgen"
)

// dataset is one served uncertain-point set. The server generates it
// in process from the same parameters the benchmark uses for its
// reference, so both sides hold identical points.
type dataset struct {
	Name string
	Kind string // "disks" or "discrete"
	N, K int
	Seed int64
}

// genFlag renders the dataset as a pnnserve -gen value.
func (d dataset) genFlag() string {
	return fmt.Sprintf("%s=%s:n=%d,k=%d,seed=%d", d.Name, d.Kind, d.N, d.K, d.Seed)
}

// file generates the dataset's points exactly as pnnserve -gen does.
func (d dataset) file() (*datafile.File, error) {
	p := datafile.DefaultGenParams()
	p.N, p.K, p.Seed = d.N, d.K, d.Seed
	return datafile.Generate(d.Kind, p)
}

// workload is one topology plus one traffic mix.
type workload struct {
	Name, Why string
	Datasets  []dataset
	// Routed puts a pnnrouter in front of two pnnserve backends that
	// each host every dataset.
	Routed bool
	// Store serves the datasets from a durable store; they are created
	// empty and seeded over HTTP during set-up.
	Store bool
	// Spec shapes the request stream; Seed is filled in per run.
	Spec loadgen.Spec
	// Rate is the open-loop Poisson arrival rate; 0 means a closed loop.
	Rate float64
	// Clients is the number of closed-loop clients or open-loop
	// connections.
	Clients int
	// Warmup is the number of unmeasured requests a closed loop sends
	// before each measured phase, so that engines are built and caches
	// are filled.
	Warmup int
	// Keep selects the answers checked against the reference.
	Keep keeper
}

// freshPoints is the query-pool size of the workloads whose query
// points must never repeat: with uniform choice over this many
// locations a run of a few thousand requests has almost no repeats, so
// every request misses the result cache.
const freshPoints = 1 << 20

// workloads returns the benchmark's workloads for one seed. The seed
// drives the request stream, the open-loop arrivals and the choice of
// points to delete. The datasets are fixed, like fixtures: with a
// dataset drawn per seed, the Exact quantification cost of exact-disks
// moved by 0.2 (interquartile range over median) across seeds, from the
// data alone.
func workloads(seed int64) map[string]workload {
	spec := func(kind, mix string, datasets ...string) loadgen.Spec {
		s := loadgen.DefaultSpec()
		s.Name = "perfbench"
		s.Seed = seed
		s.Kind = kind
		s.Datasets = datasets
		m, err := loadgen.ParseMix(mix)
		if err != nil {
			panic(err) // the mixes below are constants
		}
		s.Mix = m
		return s
	}

	exact := spec("disks", "", "disks")
	exact.Points = freshPoints

	zipf := spec("discrete", "", "zipf")
	zipf.Points, zipf.PointTheta = 512, 0.9
	zipf.Method, zipf.Eps = "spiral", 0.05

	// read=2 puts weight 2 on each of the five reads and write=5 weight
	// 5 on insert and on delete: half the ops are writes.
	churn := spec("discrete", "read=2,write=5", "churn")
	churn.Points, churn.PointTheta = 512, 0.9
	churn.Method, churn.Eps = "spiral", 0.05

	routed := spec("discrete", "batch=1", "r0", "r1", "r2", "r3")
	routed.Points = freshPoints
	routed.BatchSize = 8
	routed.Method, routed.Eps = "spiral", 0.05

	var routedSets []dataset
	for i, name := range routed.Datasets {
		routedSets = append(routedSets, dataset{name, "discrete", 2000, 4, 10 + int64(i)})
	}
	return map[string]workload{
		"exact-disks": {
			Name:     "exact-disks",
			Why:      "serving default: continuous disks with the Exact quantifier, fresh points, so quantification does nearly all the work",
			Datasets: []dataset{{"disks", "disks", 400, 4, 1}},
			Spec:     exact,
			Clients:  2,
			Warmup:   40,
			// The reference integrates at 4096 panels, eight times the
			// served engine's count, so few answers are checked.
			Keep: keeper{every: 4, max: 16},
		},
		"spiral-zipf": {
			Name:     "spiral-zipf",
			Why:      "cheap spiral quantification under open-loop Zipf traffic, so HTTP, the result cache, the batcher window and encoding take the time",
			Datasets: []dataset{{"zipf", "discrete", 20000, 4, 1}},
			Spec:     zipf,
			Rate:     spiralRate,
			Clients:  2,
			// After 4000 Zipf draws about 0.8 of requests hit the
			// result cache, so the measured phase does not start cold.
			Warmup: 4000,
			Keep:   keeper{every: 8, max: 200},
		},
		"churn": {
			Name:     "churn",
			Why:      "half writes on a durable store: the only workload through the WAL, delta apply and dynamic-view rebuilds",
			Datasets: []dataset{{"churn", "discrete", 5000, 4, 1}},
			Store:    true,
			Spec:     churn,
			Clients:  2,
			Warmup:   100,
			// Answers are checked by a quiet pass after the run instead:
			// during it, the set changes under every read.
		},
		"routed-batch": {
			Name:     "routed-batch",
			Why:      "batch envelopes through pnnrouter to two backends: the only workload through scatter-gather and reassembly",
			Datasets: routedSets,
			Routed:   true,
			Spec:     routed,
			Clients:  2,
			Warmup:   200,
			Keep:     keeper{every: 8, max: 100},
		},
	}
}

// spiralRate is the open-loop arrival rate of spiral-zipf, about half
// of the capacity a closed loop of two clients reaches on a two-core
// machine, so the queue stays short and latency measures the stack
// rather than a backlog.
const spiralRate = 200

// workloadNames lists the workloads in a stable order.
func workloadNames() []string {
	var names []string
	for name := range workloads(1) {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
