package server

import (
	"pnn/internal/obs"
)

// Metrics holds the server's instruments, rendered at /metrics in the
// Prometheus text exposition format through the shared obs registry
// (stdlib only — no client library).
type Metrics struct {
	reg *obs.Registry

	requests    *obs.CounterVec // pnn_requests_total{endpoint=}
	errors      *obs.CounterVec // pnn_errors_total{code=}
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	indexBuilds *obs.Counter
	// deltaApplied counts refreshes served by the in-place delta write
	// path; deltaFallbacks the refreshes that reset the dataset's entry
	// instead, by reason ("tail_gap", "kind_change") — together they
	// make the fast path observable.
	deltaApplied   *obs.Counter    // pnn_delta_applied_total
	deltaFallbacks *obs.CounterVec // pnn_delta_fallback_total{reason=}

	// reqLatency is the per-endpoint end-to-end latency; dsLatency the
	// same by dataset (only datasets the registry resolves, so the
	// label cardinality is bounded by hosted datasets, not client
	// input); stages decomposes the answer core (cache probe, engine
	// build, engine execute, JSON encode); execute splits the execute
	// stage by op kind (labels from api.Ops).
	reqLatency *obs.HistogramVec // pnn_request_duration_seconds{endpoint=}
	dsLatency  *obs.HistogramVec // pnn_dataset_duration_seconds{dataset=}
	stages     *obs.HistogramVec // pnn_stage_duration_seconds{stage=}
	execute    *obs.HistogramVec // pnn_execute_duration_seconds{op=}
	// Contention telemetry: lockWait is the time mutations block on the
	// per-dataset refresh lock (labels are dataset names the registry
	// resolves, so cardinality stays bounded by hosted datasets), and
	// deltaApply the in-place delta fold.
	lockWait   *obs.HistogramVec // pnn_lock_wait_seconds{dataset=}
	deltaApply *obs.Histogram    // pnn_delta_apply_duration_seconds
}

func newMetrics() *Metrics {
	reg := obs.NewRegistry()
	return &Metrics{
		reg:            reg,
		requests:       reg.NewCounterVec("pnn_requests_total", "endpoint"),
		errors:         reg.NewCounterVec("pnn_errors_total", "code"),
		cacheHits:      reg.NewCounter("pnn_cache_hits_total"),
		cacheMisses:    reg.NewCounter("pnn_cache_misses_total"),
		indexBuilds:    reg.NewCounter("pnn_index_builds_total"),
		deltaApplied:   reg.NewCounter("pnn_delta_applied_total"),
		deltaFallbacks: reg.NewCounterVec("pnn_delta_fallback_total", "reason"),
		reqLatency:     reg.NewHistogramVec("pnn_request_duration_seconds", "endpoint", obs.DurationBuckets),
		dsLatency:      reg.NewHistogramVec("pnn_dataset_duration_seconds", "dataset", obs.DurationBuckets),
		stages:         reg.NewHistogramVec("pnn_stage_duration_seconds", "stage", obs.DurationBuckets),
		execute:        reg.NewHistogramVec("pnn_execute_duration_seconds", "op", obs.DurationBuckets),
		lockWait:       reg.NewHistogramVec("pnn_lock_wait_seconds", "dataset", obs.DurationBuckets),
		deltaApply:     reg.NewHistogram("pnn_delta_apply_duration_seconds", obs.DurationBuckets),
	}
}

// Registry exposes the underlying obs registry, so embedding servers
// can mount extra collectors onto the same /metrics page.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// Snapshot is a point-in-time copy of the counters, for tests and
// introspection.
type Snapshot struct {
	// CacheHits and CacheMisses count result-cache probes.
	CacheHits, CacheMisses uint64
	// IndexBuilds counts lazily built engines; Errors the failed
	// requests (non-2xx responses and failed batch items), across all
	// codes.
	IndexBuilds, Errors uint64
	// Requests counts requests per endpoint name.
	Requests map[string]uint64
	// ErrorsByCode counts failures per stable api code.
	ErrorsByCode map[string]uint64
}

// Snapshot copies every counter.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		CacheHits:    m.cacheHits.Value(),
		CacheMisses:  m.cacheMisses.Value(),
		IndexBuilds:  m.indexBuilds.Value(),
		Errors:       m.errors.Total(),
		Requests:     m.requests.Values(),
		ErrorsByCode: m.errors.Values(),
	}
}

// render writes the full exposition page in deterministic order.
func (m *Metrics) render() string { return m.reg.Render() }
