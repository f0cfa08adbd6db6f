package server

import (
	"log/slog"
	"net/http"
	"strconv"
	"strings"

	"pnn/api"
	"pnn/internal/obs"
)

// endpointOf maps a request path onto a bounded endpoint label: the op
// name for single-query paths, the section name for everything else.
// Labels are derived from the route table, never from raw client
// input, so metric cardinality cannot be inflated by path scans.
func endpointOf(path string) string {
	switch path {
	case "/healthz":
		return "healthz"
	case "/metrics":
		return "metrics"
	case "/debug/obs", "/debug/traces":
		return "debug"
	case api.BatchPath:
		return "batch"
	case "/v1/datasets":
		return "datasets"
	}
	if strings.HasPrefix(path, "/v1/datasets/") {
		return "admin"
	}
	if strings.HasPrefix(path, "/debug/pprof") {
		return "debug"
	}
	if op, ok := strings.CutPrefix(path, "/v1/"); ok {
		for _, name := range api.Ops {
			if op == name {
				return name
			}
		}
	}
	return "other"
}

// statusWriter captures the response status for logging and error
// accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// instrument is the server's edge middleware: it assigns the request
// ID (minting one unless the client or a fronting router supplied it),
// joins or starts the distributed trace from the traceparent header,
// echoes both on the response before any handler writes, counts and
// times the request per endpoint, and emits one structured log line
// per request — Debug normally, Warn at or beyond the slow-query
// threshold.
//
// It wraps OUTSIDE the timeout handler on purpose: http.TimeoutHandler
// discards headers its inner handler set once the deadline fires, so
// the request and trace IDs must land on the real ResponseWriter
// first — a timed-out response still correlates with its log lines and
// its trace.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(api.RequestIDHeader)
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set(api.RequestIDHeader, id)

		endpoint := endpointOf(r.URL.Path)
		ctx, root := obs.StartTrace(obs.WithRequestID(r.Context(), id),
			s.tracer, endpoint, r.Header.Get(api.TraceParentHeader))
		w.Header().Set(api.TraceParentHeader, obs.TraceParent(ctx))
		root.SetAttr("dataset", r.URL.Query().Get("dataset"))
		r = r.WithContext(ctx)

		s.metrics.requests.Inc(endpoint)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t := obs.StartTimer()
		next.ServeHTTP(sw, r)
		d := t.Total()
		s.metrics.reqLatency.With(endpoint).ObserveDuration(d)
		root.SetAttr("status", strconv.Itoa(sw.status))
		root.End()

		level := slog.LevelDebug
		msg := "request"
		if s.cfg.SlowQueryThreshold > 0 && d >= s.cfg.SlowQueryThreshold {
			level = slog.LevelWarn
			msg = "slow request"
		}
		s.logger.Log(ctx, level, msg,
			"request_id", id,
			"trace_id", obs.TraceID(ctx),
			"endpoint", endpoint,
			"dataset", r.URL.Query().Get("dataset"),
			"status", sw.status,
			"duration", d,
		)
	})
}

// handleDebugObs serves GET /debug/obs: the registry's derived
// statistics (p50/p99/p999 per histogram label) as JSON, for humans
// and load harnesses that want latency numbers without a Prometheus
// stack, plus a runtime-health block (goroutines, heap, GC pauses) and
// the result cache's entry count.
func (s *Server) handleDebugObs(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.reg.Snapshot()
	rs := obs.ReadRuntimeStats()
	snap.Runtime = &rs
	s.writeJSON(w, http.StatusOK, struct {
		obs.Snapshot
		CacheEntries int `json:"cache_entries"`
	}{snap, s.cache.Len()}, "")
}

// handleDebugTraces serves GET /debug/traces: the tracer's in-memory
// ring of kept traces (sampled plus every slow one), newest first.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	traces := s.tracer.Snapshot()
	if traces == nil {
		traces = []obs.TraceData{}
	}
	s.writeJSON(w, http.StatusOK, struct {
		Traces []obs.TraceData `json:"traces"`
	}{traces}, "")
}
