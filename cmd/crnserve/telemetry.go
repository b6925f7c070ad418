package main

import (
	"net/http"
	"net/http/pprof"
	"time"

	"crn"
	"crn/internal/telemetry"
)

// This file wires the serving telemetry bundle into the HTTP front end:
// GET /metrics (Prometheus text exposition over the estimator's registry),
// the server-level families (HTTP routes, ingest gate, wire codec traffic
// and frame sizes), and the separate operational listener (-metrics-addr).

// registerMetrics registers the server-level families on the bundle's
// registry: per-request SQL parse time, statement-cache lookups, per-route
// HTTP outcomes, the ingest gate, /estimate/batch codec traffic with
// frame-size histograms, recorded queries, and process uptime. The counters
// the handlers bump are the registry's own children; /metrics is their only
// surface.
func (s *server) registerMetrics() {
	reg := s.tel.Registry()

	// SQL front end: the span between request decode and the estimator's own
	// end-to-end timer, per request so a 64-query batch is one observation.
	s.parseDur = reg.Histogram("crn_parse_duration_seconds",
		"Time one /estimate or /estimate/batch request spent parsing its SQL into canonical queries.",
		telemetry.DurationOpts)
	reg.CollectCounter("crn_stmtcache_lookups_total",
		"Statement-cache lookups by result: request texts answered without parsing vs parsed.",
		"result", func(emit telemetry.Emit) {
			cs := s.sys.StatementCacheStats()
			emit(float64(cs.Hits), "hit")
			emit(float64(cs.Misses), "miss")
		})
	reg.GaugeFunc("crn_stmtcache_entries", "Request texts held by the statement cache.",
		func() float64 { return float64(s.sys.StatementCacheStats().Entries) })

	// Wire layer: frame sizes as histograms (the shape of batch traffic)
	// plus request and byte totals, one child of each per codec.
	reqBytes := reg.HistogramVec("crn_wire_request_bytes",
		"Request body size of /estimate/batch calls, per codec.",
		"codec", telemetry.SizeOpts)
	respBytes := reg.HistogramVec("crn_wire_response_bytes",
		"Response body size of /estimate/batch calls, per codec.",
		"codec", telemetry.SizeOpts)
	requests := reg.CounterVec("crn_wire_requests_total", "Batch estimate requests by codec.", "codec")
	bytesIn := reg.CounterVec("crn_wire_in_bytes_total", "Batch request bytes read by codec.", "codec")
	bytesOut := reg.CounterVec("crn_wire_out_bytes_total", "Batch response bytes written by codec.", "codec")
	for _, c := range []struct {
		name string
		io   *codecCounters
	}{{"json", &s.jsonIO}, {"binary", &s.binaryIO}} {
		*c.io = codecCounters{
			requests: requests.With(c.name), bytesIn: bytesIn.With(c.name), bytesOut: bytesOut.With(c.name),
			reqBytes: reqBytes.With(c.name), respBytes: respBytes.With(c.name),
		}
	}
	reg.CollectCounter("crn_wire_buffer_ops_total",
		"Binary-path pooled buffer operations (get, miss, oversize drop).", "op", func(emit telemetry.Emit) {
			gets, misses, drops := s.bufPool.Stats()
			emit(float64(gets), "get")
			emit(float64(misses), "miss")
			emit(float64(drops), "drop")
		})

	// HTTP layer: per-route outcome counters the counted middleware bumps.
	httpRequests := reg.CounterVec("crn_http_requests_total", "HTTP requests by route.", "route")
	httpShed := reg.CounterVec("crn_http_shed_total", "HTTP requests shed with 429 by route.", "route")
	httpFailed := reg.CounterVec("crn_http_failures_total",
		"HTTP requests failed with a non-shed 4xx/5xx by route.", "route")
	for _, rt := range []struct {
		name string
		ep   *endpointCounters
	}{
		{"estimate", &s.epEstimate},
		{"estimate_batch", &s.epBatch},
		{"record", &s.epRecord},
		{"feedback", &s.epFeedback},
	} {
		*rt.ep = endpointCounters{
			requests: httpRequests.With(rt.name), shed: httpShed.With(rt.name), failed: httpFailed.With(rt.name),
		}
	}

	// Ingest gate: the server-level admission bound over /record and
	// /feedback (the endpoints that execute the truth oracle).
	reg.GaugeFunc("crn_ingest_inflight",
		"Concurrently admitted /record + /feedback requests.", func() float64 {
			return float64(s.ingestGate.Stats().Inflight)
		})
	reg.CollectCounter("crn_ingest_requests_total",
		"Ingest-gate decisions over /record + /feedback (admitted, shed).",
		"decision", func(emit telemetry.Emit) {
			gs := s.ingestGate.Stats()
			emit(float64(gs.Admitted), "admitted")
			emit(float64(gs.Shed), "shed")
		})
	s.recorded = reg.Counter("crn_recorded_queries_total", "Queries appended to the pool via /record.")
	reg.GaugeFunc("crn_process_uptime_seconds",
		"Seconds since the server started.", func() float64 {
			return time.Since(s.started).Seconds()
		})
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", crn.MetricsContentType)
	if err := s.tel.Registry().WriteText(w); err != nil && s.logger != nil {
		s.logger.Printf("write metrics: %v", err)
	}
}

// metricsHandler builds the route table of the separate operational
// listener (-metrics-addr): /metrics plus /debug/pprof, the only place
// profiling is served — the point of the second listener is that neither
// is exposed on the public serving port.
func (s *server) metricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
