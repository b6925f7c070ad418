package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crn"
	"crn/internal/guard"
	"crn/internal/telemetry"
	"crn/internal/wire"
)

// server is the HTTP front end over the estimation facade: a live queries
// pool and the adaptive cardinality estimator serving it. All handlers are
// safe for concurrent use — the pool accepts concurrent /record and
// /feedback appends while /estimate reads — and every estimation runs under
// the request context, so a disconnecting client cancels its work.
type server struct {
	sys  *crn.System
	pool *crn.QueriesPool
	// est answers every estimate on the live model generation; /feedback
	// ingests execution feedback through it and /healthz reports the
	// adaptation loop's counters.
	est *crn.AdaptiveEstimator

	started time.Time
	logger  *log.Logger

	// ready gates /readyz: set once startup (model load or checkpoint
	// recovery, WAL replay) completes, cleared when shutdown starts so load
	// balancers stop routing here before the listener closes.
	ready atomic.Bool

	// ingestGate sheds /record and /feedback under overload. Those
	// endpoints execute the truth oracle and so bypass the estimator's own
	// admission gate — without their own ceiling a feedback storm could
	// exhaust the server even while /estimate is protected. Nil: unlimited.
	ingestGate *guard.Gate

	// bufPool recycles the byte buffers of both codecs: request bodies read
	// in, response bodies encoded out.
	bufPool wire.BufferPool
	// sqlBufs recycles a JSON batch's decoded texts, queryBufs
	// estimateBatchSQL's parsed queries.
	sqlBufs   slicePool[string]
	queryBufs slicePool[crn.Query]

	// tel is the telemetry bundle est records into: GET /metrics serves its
	// registry. The server's own instruments below are registered on the
	// same registry (see registerMetrics), and /metrics is their only
	// surface.
	tel           *crn.Telemetry
	metricsOnMain bool // mount /metrics on the public mux (no -metrics-addr)
	// parseDur is the time each /estimate or /estimate/batch request spent
	// turning its SQL into canonical queries (one observation per request,
	// however many queries).
	parseDur *telemetry.Histogram
	recorded *telemetry.Counter // queries appended via /record
	jsonIO   codecCounters
	binaryIO codecCounters

	epEstimate endpointCounters
	epBatch    endpointCounters
	epRecord   endpointCounters
	epFeedback endpointCounters
}

// newServer builds the front end over est and registers the server-level
// families on tel, the bundle est records into.
func newServer(sys *crn.System, pool *crn.QueriesPool, est *crn.AdaptiveEstimator, tel *crn.Telemetry, logger *log.Logger) *server {
	s := &server{sys: sys, pool: pool, est: est, tel: tel, started: time.Now(), logger: logger, metricsOnMain: true}
	s.registerMetrics()
	return s
}

// setReady flips the /readyz gate; main sets it once construction (model
// load or checkpoint recovery) finishes and clears it when shutdown begins.
func (s *server) setReady(ready bool) { s.ready.Store(ready) }

// setIngestLimit bounds concurrent /record + /feedback requests (0: off).
func (s *server) setIngestLimit(n int) { s.ingestGate = guard.NewGate(n) }

// handler builds the route table of the public serving port.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /estimate", s.counted(&s.epEstimate, s.handleEstimate))
	mux.HandleFunc("POST /estimate/batch", s.counted(&s.epBatch, s.handleEstimateBatch))
	mux.HandleFunc("POST /record", s.counted(&s.epRecord, s.handleRecord))
	mux.HandleFunc("POST /feedback", s.counted(&s.epFeedback, s.handleFeedback))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /livez", s.handleLivez)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.metricsOnMain {
		mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	return mux
}

// --- Per-endpoint accounting ------------------------------------------------

// endpointCounters are one route's children of the crn_http_* families:
// total requests, requests shed with 429 (admission control), and other
// failures.
type endpointCounters struct {
	requests, shed, failed *telemetry.Counter
}

// statusWriter captures the response status so counted can classify the
// outcome without threading counters through every writeError call site.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// counted wraps a handler with per-endpoint outcome accounting.
func (s *server) counted(ep *endpointCounters, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ep.requests.Inc()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		switch {
		case sw.status == http.StatusTooManyRequests:
			ep.shed.Inc()
		case sw.status >= 400:
			ep.failed.Inc()
		}
	}
}

// --- Batch wire accounting ---------------------------------------------------

// codecCounters are one codec's /estimate/batch instruments, children of
// the crn_wire_* families: request and byte totals plus frame-size
// histograms.
type codecCounters struct {
	requests, bytesIn, bytesOut *telemetry.Counter
	reqBytes, respBytes         *telemetry.Histogram
}

// readAllInto reads r to EOF appending into buf (typically pooled), like
// io.ReadAll without the fresh allocation.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// --- Wire types -------------------------------------------------------------

// estimateRequest drives /estimate: either Query (cardinality mode) or Q1+Q2
// (containment mode).
type estimateRequest struct {
	Query string `json:"query,omitempty"`
	Q1    string `json:"q1,omitempty"`
	Q2    string `json:"q2,omitempty"`
}

type estimateResponse struct {
	Cardinality *float64 `json:"cardinality,omitempty"`
	Containment *float64 `json:"containment,omitempty"`
}

type batchRequest struct {
	Queries []string `json:"queries"`
}

type batchResponse struct {
	Cardinalities []float64 `json:"cardinalities"`
	Count         int       `json:"count"`
}

type recordRequest struct {
	Query string `json:"query"`
}

type recordResponse struct {
	Cardinality int64 `json:"cardinality"`
	Added       bool  `json:"added"`
	PoolSize    int   `json:"pool_size"`
}

// feedbackRequest drives /feedback: execution feedback for a query the
// workload actually ran. Cardinality is a pointer so a missing field is
// distinguishable from an observed empty result.
type feedbackRequest struct {
	Query       string `json:"query"`
	Cardinality *int64 `json:"cardinality"`
}

type feedbackResponse struct {
	// Accepted reports whether the record was staged for retraining
	// (false: already pooled/staged, or the feedback buffer is full).
	Accepted bool `json:"accepted"`
	// Staged is the number of records waiting for the background trainer.
	Staged int `json:"staged"`
	// Generation is the live model generation at response time.
	Generation uint64 `json:"generation"`
	PoolSize   int    `json:"pool_size"`
}

type healthzResponse struct {
	Status   string `json:"status"`
	PoolSize int    `json:"pool_size"`
	// Pool reports the candidate index and capacity bound: entries and FROM
	// keys, configured capacity (0: unbounded), LRU evictions, bounded
	// (top-K) selections, the candidates they scanned/truncated, and the
	// indexed-vs-linear split (index_hits / index_fallbacks routing,
	// scanned_indexed / scanned_fallback cost). All selection counters stay
	// zero when -max-candidates is 0.
	Pool     crn.PoolStats     `json:"pool"`
	RepCache crn.RepCacheStats `json:"rep_cache"`
	// StmtCache reports ParseQuery's statement cache: request texts answered
	// without parsing (hits) vs parsed (misses), statements held, and
	// well-formed texts too long to be admitted.
	StmtCache crn.StatementCacheStats `json:"stmt_cache"`
	// Coalescer reports request-coalescing effectiveness: calls vs batch
	// executions, average and max batch size (batched_items / batches),
	// dedup hits, and abandons. All zeros when -coalesce-batch < 2.
	Coalescer crn.CoalescerStats `json:"coalescer"`
	// Online reports the adaptation loop: live model generation, feedback
	// ingestion, background retraining and drift monitoring.
	Online crn.AdaptationStats `json:"online"`
	// Durable reports the durability layer — WAL appends/syncs/segments,
	// checkpoint history, recovery replay counters — and is omitted without
	// -data-dir.
	Durable *crn.DurabilityStats `json:"durable,omitempty"`
	// Guard reports the estimator's operational guards: admission gate
	// (inflight/peak/shed) and circuit breaker (state, trips, diversions).
	// All zeros unless -max-inflight or a breaker flag is set.
	Guard crn.GuardStats `json:"guard"`
	// IngestGate reports the server-level admission gate over /record and
	// /feedback (the endpoints that execute the truth oracle).
	IngestGate crn.GateStats `json:"ingest_gate"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// --- Handlers ---------------------------------------------------------------

func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeEstimate(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	switch {
	case req.Query != "" && req.Q1 == "" && req.Q2 == "":
		parseStart := time.Now()
		q, err := s.sys.ParseQuery(req.Query)
		s.parseDur.ObserveDuration(time.Since(parseStart))
		if err != nil {
			s.writeError(w, statusFor(err), err)
			return
		}
		card, err := s.est.EstimateCardinality(r.Context(), q)
		if err != nil {
			s.writeError(w, statusFor(err), err)
			return
		}
		out, ok := wire.AppendJSONCardinality(s.bufPool.Get(), card)
		if ok {
			s.writeBody(w, http.StatusOK, out)
		} else {
			s.writeJSON(w, http.StatusOK, estimateResponse{Cardinality: &card})
		}
		s.bufPool.Put(out)
	case req.Query == "" && req.Q1 != "" && req.Q2 != "":
		parseStart := time.Now()
		q1, err := s.sys.ParseQuery(req.Q1)
		var q2 crn.Query
		if err == nil {
			q2, err = s.sys.ParseQuery(req.Q2)
		}
		s.parseDur.ObserveDuration(time.Since(parseStart))
		if err != nil {
			s.writeError(w, statusFor(err), err)
			return
		}
		rate, err := s.est.EstimateContainment(r.Context(), q1, q2)
		if err != nil {
			s.writeError(w, statusFor(err), err)
			return
		}
		s.writeJSON(w, http.StatusOK, estimateResponse{Containment: &rate})
	default:
		s.writeError(w, http.StatusBadRequest,
			errors.New(`provide either "query" (cardinality) or "q1"+"q2" (containment)`))
	}
}

func (s *server) handleEstimateBatch(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); ct == wire.ContentType ||
		strings.HasPrefix(ct, wire.ContentType+";") {
		s.handleEstimateBatchBinary(w, r)
		return
	}
	s.jsonIO.requests.Inc()
	in, out := s.serveJSONBatch(w, r)
	s.jsonIO.bytesIn.Add(uint64(in))
	s.jsonIO.bytesOut.Add(uint64(out))
	s.jsonIO.reqBytes.Observe(float64(in))
	s.jsonIO.respBytes.Observe(float64(out))
}

// serveJSONBatch answers a JSON /estimate/batch request and returns the
// request and response body sizes. A canonical body is decoded by the
// strict reader into one arena and answered by append; any other goes
// through encoding/json (see replayReader).
func (s *server) serveJSONBatch(w http.ResponseWriter, r *http.Request) (in, out int) {
	sqls := s.sqlBufs.get()
	defer s.sqlBufs.put(sqls)
	body, err := s.readBody(r)
	in = len(body)
	ok := false
	if err == nil {
		*sqls, ok = wire.AppendJSONQueries(*sqls, body)
	}
	if !ok {
		var req batchRequest
		err = decodeJSON(&replayReader{body: body, err: err}, &req)
		*sqls = append(*sqls, req.Queries...)
	}
	s.bufPool.Put(body) // decoded strings live in their own memory, not body
	if err != nil {
		return in, s.writeError(w, http.StatusBadRequest, err)
	}
	if len(*sqls) == 0 {
		return in, s.writeError(w, http.StatusBadRequest, errors.New(`"queries" must be non-empty`))
	}
	cards, status, err := s.estimateBatchSQL(r.Context(), *sqls)
	if err != nil {
		return in, s.writeError(w, status, err)
	}
	resp, ok := wire.AppendJSONCardinalities(s.bufPool.Get(), cards)
	if ok {
		out = s.writeBody(w, http.StatusOK, resp)
	} else {
		out = s.writeJSON(w, http.StatusOK, batchResponse{Cardinalities: cards, Count: len(cards)})
	}
	s.bufPool.Put(resp)
	return in, out
}

// estimateBatchSQL is the codec-independent core of /estimate/batch: parse
// every query, then run the batched estimate. Both content types
// funnel through it, so JSON and binary responses are bit-identical for the
// same queries.
func (s *server) estimateBatchSQL(ctx context.Context, sqls []string) ([]float64, int, error) {
	buf := s.queryBufs.get()
	defer s.queryBufs.put(buf)
	*buf = slices.Grow(*buf, len(sqls))[:len(sqls)]
	queries := *buf
	parseStart := time.Now()
	for i, sql := range sqls {
		q, err := s.sys.ParseQuery(sql)
		if err != nil {
			s.parseDur.ObserveDuration(time.Since(parseStart))
			return nil, statusFor(err), fmt.Errorf("queries[%d]: %w", i, err)
		}
		queries[i] = q
	}
	s.parseDur.ObserveDuration(time.Since(parseStart))
	cards, err := s.est.EstimateCardinalityBatch(ctx, queries)
	if err != nil {
		return nil, statusFor(err), err
	}
	return cards, http.StatusOK, nil
}

// slicePool recycles the per-request slices of the batch path.
type slicePool[T any] struct{ pool sync.Pool }

// get returns a recycled slice of length 0, behind the pointer put takes
// back.
func (p *slicePool[T]) get() *[]T {
	if b, ok := p.pool.Get().(*[]T); ok {
		return b
	}
	return new([]T)
}

// put clears *b, so a parked slice pins nothing, and recycles it unless a
// rare large request grew it past maxPooledSlice.
func (p *slicePool[T]) put(b *[]T) {
	clear(*b)
	if cap(*b) <= maxPooledSlice {
		*b = (*b)[:0]
		p.pool.Put(b)
	}
}

// maxPooledSlice is the longest per-request slice a slicePool keeps between
// requests (4096 parsed queries are ~450 KB; maxBatchQueries of them ~7 MB).
const maxPooledSlice = 4096

// maxBatchQueries bounds a binary batch's declared query count before any
// per-query work happens (the JSON path is equivalently bounded by
// maxBodyBytes and parse cost).
const maxBatchQueries = 1 << 16

// handleEstimateBatchBinary serves the application/x-crn-batch frame
// protocol (see internal/wire): pooled buffers carry the request body in
// and the response frame out, the decoder's arena carries the query
// strings, and no JSON reflection runs anywhere on the path. Errors are
// still reported as JSON bodies with the usual status mapping — a client
// that speaks the protocol can always read them.
func (s *server) handleEstimateBatchBinary(w http.ResponseWriter, r *http.Request) {
	s.binaryIO.requests.Inc()
	body, err := s.readBody(r)
	if err != nil {
		s.bufPool.Put(body)
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, status, err)
		return
	}
	s.binaryIO.bytesIn.Add(uint64(len(body)))
	s.binaryIO.reqBytes.Observe(float64(len(body)))
	sqls, err := wire.DecodeRequest(body, maxBatchQueries)
	s.bufPool.Put(body) // decoded strings live in their own arena, not body
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(sqls) == 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("batch must contain at least one query"))
		return
	}
	cards, status, err := s.estimateBatchSQL(r.Context(), sqls)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	out := s.bufPool.Get()
	if cap(out) < wire.ResponseSize(len(cards)) {
		out = make([]byte, 0, wire.ResponseSize(len(cards)))
	}
	out = wire.AppendResponse(out, cards)
	w.Header().Set("Content-Type", wire.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(out); err != nil && s.logger != nil {
		s.logger.Printf("write response: %v", err)
	}
	s.binaryIO.bytesOut.Add(uint64(len(out)))
	s.binaryIO.respBytes.Observe(float64(len(out)))
	s.bufPool.Put(out)
}

func (s *server) handleRecord(w http.ResponseWriter, r *http.Request) {
	if err := s.ingestGate.Acquire(); err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	defer s.ingestGate.Release()
	var req recordRequest
	if err := decodeJSON(http.MaxBytesReader(nil, r.Body, maxBodyBytes), &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	q, err := s.sys.ParseQuery(req.Query)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	card, added, err := s.sys.RecordExecuted(r.Context(), s.pool, q)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	if added {
		s.recorded.Inc()
		// No cache flush here: the estimator's representation cache is
		// subscribed to the pool and absorbs the mutation surgically (an
		// insert invalidates nothing, an eviction drops exactly the
		// evicted entry's rows), so the warm working set keeps serving.
	}
	s.writeJSON(w, http.StatusOK, recordResponse{
		Cardinality: card,
		Added:       added,
		PoolSize:    s.pool.Len(),
	})
}

// handleFeedback ingests execution feedback: the query the workload ran
// and the true cardinality it observed. The record feeds the adaptation
// loop (pool growth, background retraining, drift monitoring); the call
// itself never blocks on training.
func (s *server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if err := s.ingestGate.Acquire(); err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	defer s.ingestGate.Release()
	var req feedbackRequest
	if err := decodeJSON(http.MaxBytesReader(nil, r.Body, maxBodyBytes), &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Query == "" || req.Cardinality == nil {
		s.writeError(w, http.StatusBadRequest,
			errors.New(`provide "query" and its observed "cardinality"`))
		return
	}
	if *req.Cardinality < 0 {
		s.writeError(w, http.StatusBadRequest,
			errors.New(`"cardinality" must be a non-negative observed row count`))
		return
	}
	accepted, err := s.est.RecordFeedback(r.Context(), req.Query, *req.Cardinality)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	// Lightweight accessors, not AdaptationStats: the full snapshot merges
	// and walks the drift window's histograms and reads every collector and
	// trainer counter, which has no place on a per-request path.
	s.writeJSON(w, http.StatusOK, feedbackResponse{
		Accepted:   accepted,
		Staged:     s.est.StagedFeedback(),
		Generation: s.est.ModelGeneration(),
		PoolSize:   s.pool.Len(),
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{
		Status:     "ok",
		PoolSize:   s.pool.Len(),
		Pool:       s.pool.Stats(),
		RepCache:   s.est.CacheStats(),
		StmtCache:  s.sys.StatementCacheStats(),
		Coalescer:  s.est.CoalescerStats(),
		Guard:      s.est.GuardStats(),
		IngestGate: s.ingestGate.Stats(),
		Online:     s.est.AdaptationStats(),
		Durable:    s.est.DurabilityStats(),
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleLivez answers liveness: the process is up and serving HTTP. It
// stays 200 through overload, open breakers, and degraded durability — a
// restart fixes none of those, so orchestrators must not kill on them.
func (s *server) handleLivez(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "alive"})
}

// handleReadyz answers readiness: startup (model load or checkpoint
// recovery, WAL replay) completed, shutdown has not begun, and the circuit
// breaker is not open. An open breaker means primary estimates are being
// diverted — still correct via the fallback, but a load balancer with a
// healthy replica should prefer it.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case !s.ready.Load():
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "unready", "reason": "starting or shutting down",
		})
	case s.est.BreakerOpen():
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "unready", "reason": "circuit breaker open",
		})
	default:
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// --- Plumbing ---------------------------------------------------------------

const maxBodyBytes = 1 << 20 // 1 MiB of JSON is far beyond any sane request

// decodeJSON decodes the first JSON value of body into dst, refusing
// unknown fields. Every JSON body goes through it, except the canonical
// estimate bodies the strict reader answers (see replayReader).
func decodeJSON(body io.Reader, dst any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}

// readBody reads an estimate request's body, up to maxBodyBytes, into a
// pooled buffer the caller puts back; err is the read error that ended it
// (nil at EOF).
func (s *server) readBody(r *http.Request) ([]byte, error) {
	return readAllInto(s.bufPool.Get(), http.MaxBytesReader(nil, r.Body, maxBodyBytes))
}

// replayReader reads back a body readBody already read, then the error
// that ended the read (io.EOF when it ended cleanly). Only a completely
// read JSON body goes to the strict reader (wire.DecodeJSONQuery,
// wire.AppendJSONQueries); anything it refuses, and any body whose read
// failed, goes to decodeJSON over a replayReader: the very bytes and error
// the reflective decoder would have read from the request itself, so it
// answers with the same status and error text.
type replayReader struct {
	body []byte
	err  error
}

func (r *replayReader) Read(p []byte) (int, error) {
	if len(r.body) == 0 {
		if r.err == nil {
			return 0, io.EOF
		}
		return 0, r.err
	}
	n := copy(p, r.body)
	r.body = r.body[n:]
	return n, nil
}

// decodeEstimate decodes an /estimate body: the strict reader answers
// {"query":"…"}, decodeJSON everything else (containment requests
// included).
func (s *server) decodeEstimate(r *http.Request) (estimateRequest, error) {
	body, err := s.readBody(r)
	defer s.bufPool.Put(body)
	if err == nil {
		if q, ok := wire.DecodeJSONQuery(body); ok {
			return estimateRequest{Query: q}, nil
		}
	}
	var req estimateRequest
	err = decodeJSON(&replayReader{body: body, err: err}, &req)
	return req, err
}

// statusFor maps the facade's typed sentinel errors to HTTP status codes —
// the reason the facade exposes them.
func statusFor(err error) int {
	switch {
	case errors.Is(err, crn.ErrDialect), errors.Is(err, crn.ErrNotComparable):
		return http.StatusBadRequest
	case errors.Is(err, crn.ErrNoPoolMatch):
		return http.StatusUnprocessableEntity
	case errors.Is(err, crn.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, crn.ErrBreakerOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON writes body as json.Encoder renders it and returns the bytes
// written. A body encoding/json refuses (a NaN or infinite estimate) still
// sends the status, with an empty body.
func (s *server) writeJSON(w http.ResponseWriter, status int, body any) int {
	out, err := json.Marshal(body)
	if err != nil {
		if s.logger != nil {
			s.logger.Printf("write response: %v", err)
		}
		out = nil
	} else {
		out = append(out, '\n')
	}
	return s.writeBody(w, status, out)
}

// writeBody writes an encoded JSON body and returns the bytes written.
func (s *server) writeBody(w http.ResponseWriter, status int, body []byte) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	n, err := w.Write(body)
	if err != nil && s.logger != nil {
		s.logger.Printf("write response: %v", err)
	}
	return n
}

// writeError writes err as the JSON error body and returns the bytes
// written.
func (s *server) writeError(w http.ResponseWriter, status int, err error) int {
	if s.logger != nil && status >= 500 {
		s.logger.Printf("request failed: %v", err)
	}
	if status == http.StatusTooManyRequests {
		// Shed by admission control: momentary pressure, retry immediately
		// after a short pause rather than backing off for long.
		w.Header().Set("Retry-After", "1")
	}
	return s.writeJSON(w, status, errorResponse{Error: err.Error()})
}
