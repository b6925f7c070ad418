package main

import (
	"math"
	"net/http"
	"net/http/pprof"
	"time"

	"crn"
	"crn/internal/telemetry"
)

// This file wires the serving telemetry bundle into the HTTP front end:
// GET /metrics (Prometheus text exposition over the estimator's registry),
// the server-level families (HTTP routes, ingest gate, wire codec traffic
// and frame sizes), the separate operational listener (-metrics-addr), and
// the registry-snapshot rendering of the /healthz latency, stage and
// accuracy sections.

// registerMetrics registers the server-level families on the bundle's
// registry: per-request SQL parse time, statement-cache lookups, per-route
// HTTP outcomes, the ingest gate, /estimate/batch codec traffic with
// frame-size histograms, recorded queries, and process uptime. The counters
// the handlers bump are the registry's own children, so /healthz and
// /metrics read one source.
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
	reg.CollectGauge("crn_ingest_inflight",
		"Concurrently admitted /record + /feedback requests.", "", func(emit telemetry.Emit) {
			emit(float64(s.ingestGate.Stats().Inflight), "")
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

// --- /healthz telemetry rendering -------------------------------------------

// stageQuantiles is one stage's latency summary in the /healthz
// "telemetry" section.
type stageQuantiles struct {
	Count     uint64  `json:"count"`
	P50Micros float64 `json:"p50_micros"`
	P99Micros float64 `json:"p99_micros"`
}

// qerrorQuantiles is one estimator arm's live-accuracy summary.
type qerrorQuantiles struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
}

// telemetrySummary is the "telemetry" section of /healthz, rendered from
// one registry gather: request outcomes, per-stage latency quantiles, and
// the per-arm live q-error distributions.
type telemetrySummary struct {
	// Requests counts estimate outcomes (ok, error, shed, fallback).
	Requests map[string]uint64 `json:"requests"`
	// Stages maps stage name -> count and p50/p99 latency.
	Stages map[string]stageQuantiles `json:"stages"`
	// QError maps estimator arm (crn, fallback) -> live q-error quantiles
	// from feedback truths joined against recent estimates.
	QError map[string]qerrorQuantiles `json:"qerror"`
	// AccuracyJoined/Unmatched count feedback truths that did / did not
	// find their estimate in the recent-estimate ring.
	AccuracyJoined    uint64 `json:"accuracy_joined"`
	AccuracyUnmatched uint64 `json:"accuracy_unmatched"`
}

// latencyFromHist renders the legacy latency snapshot shape from a
// histogram snapshot: the average from the approximate sum, the max as the
// upper edge of the highest occupied bucket (clamped to the histogram
// ceiling when the overflow bucket is occupied).
func latencyFromHist(snap telemetry.HistSnapshot) latencySnapshot {
	n := snap.Total()
	out := latencySnapshot{Count: int64(n)}
	if n == 0 {
		return out
	}
	out.AvgMicros = snap.ApproxSum() / float64(n) * 1e6
	max := snap.Max()
	if math.IsInf(max, 1) {
		max = math.Ldexp(1, snap.Opts.MaxExp)
	}
	out.MaxMicros = max * 1e6
	return out
}

// telemetrySnapshot gathers every telemetry-backed /healthz value in one
// pass — each histogram snapshotted exactly once, counters read once — so
// related values in the response come from a single coherent gather
// instead of field-by-field reads spread across the render. Returns the
// summary section plus the estimate/batch latency snapshots derived from
// the same end-to-end histograms /metrics exposes.
func (s *server) telemetrySnapshot() (telemetrySummary, latencySnapshot, latencySnapshot) {
	t := s.tel
	stageHists := map[string]*telemetry.Histogram{
		telemetry.StageAdmission:          t.Stages.Admission,
		telemetry.StageCoalesceWait:       t.Stages.CoalesceWait,
		telemetry.StageCacheLookup:        t.Stages.CacheLookup,
		telemetry.StageCandidateSelection: t.Stages.CandidateSelection,
		telemetry.StageNNForward:          t.Stages.NNForward,
		telemetry.StageFinalize:           t.Stages.Finalize,
	}
	sum := telemetrySummary{
		Requests: map[string]uint64{
			telemetry.OutcomeOK:       t.ReqOK.Load(),
			telemetry.OutcomeError:    t.ReqError.Load(),
			telemetry.OutcomeShed:     t.ReqShed.Load(),
			telemetry.OutcomeFallback: t.ReqFallback.Load(),
		},
		Stages: make(map[string]stageQuantiles, len(stageHists)),
		QError: make(map[string]qerrorQuantiles, 2),
	}
	for name, h := range stageHists {
		snap := h.Snapshot()
		sum.Stages[name] = stageQuantiles{
			Count:     snap.Total(),
			P50Micros: snap.Quantile(0.50) * 1e6,
			P99Micros: snap.Quantile(0.99) * 1e6,
		}
	}
	for _, arm := range []telemetry.Arm{telemetry.ArmCRN, telemetry.ArmFallback} {
		snap := t.Accuracy.Hist(arm).Snapshot()
		sum.QError[arm.String()] = qerrorQuantiles{
			Count: snap.Total(),
			P50:   snap.Quantile(0.50),
			P95:   snap.Quantile(0.95),
		}
	}
	sum.AccuracyJoined = t.Accuracy.Joined()
	sum.AccuracyUnmatched = t.Accuracy.Unmatched()
	return sum, latencyFromHist(t.E2E.Snapshot()), latencyFromHist(t.BatchE2E.Snapshot())
}
