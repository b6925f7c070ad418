// Command crnserve serves cardinality and containment estimates over HTTP —
// the paper's §5.2 deployment scenario: a DBMS continuously executes
// queries, appends them to the queries pool with their actual
// cardinalities, and answers estimation requests concurrently.
//
// At startup it opens the synthetic database, loads the CRN containment
// model crntrain wrote (-model), seeds the queries pool, and listens. A
// -data-dir holding a checkpoint resumes the previous deployment instead:
// the checkpoint's model generation and grown pool win over -model and
// pool seeding, and the -model file is not read. With neither a model nor
// a checkpoint crnserve exits non-zero. Endpoints:
//
//	POST /estimate        {"query": "SELECT ..."}              -> {"cardinality": 123.0}
//	POST /estimate        {"q1": "...", "q2": "..."}           -> {"containment": 0.42}
//	POST /estimate/batch  {"queries": ["...", "..."]}          -> {"cardinalities": [...], "count": 2}
//	POST /record          {"query": "SELECT ..."}              -> {"cardinality": 17, "added": true, "pool_size": 301}
//	POST /feedback        {"query": "...", "cardinality": 17}  -> {"accepted": true, "staged": 3, ...}
//	GET  /healthz                                              -> {"status": "ok", ...}
//	GET  /livez                                                -> {"status": "alive"}
//	GET  /readyz                                               -> {"status": "ready"} or 503
//	GET  /metrics                                              -> Prometheus text exposition
//
// /estimate/batch amortizes feature encoding and runs the CRN forward pass
// matrix-batched across the whole request. /record executes the query
// exactly and appends it to the pool, sharpening subsequent estimates —
// POST the queries your workload actually runs. /estimate/batch and
// containment estimates run under the request context, so a disconnecting
// client cancels that work.
//
// High-QPS clients can POST /estimate/batch with Content-Type:
// application/x-crn-batch — a length-prefixed little-endian binary frame
// protocol (format spec in the README and internal/wire) that skips JSON
// reflection entirely and runs on pooled buffers; cardinalities are
// bit-identical to the JSON path. JSON stays the default. /metrics reports
// per-codec traffic and body-buffer reuse (crn_wire_*).
//
// Every estimate — /estimate is a batch of one — runs the estimator's one
// pipeline: admission gate, deadline, breaker, cache revalidation, the
// learned pass, the degraded fallback, telemetry. The learned pass of a
// single-query /estimate is the coalescer: concurrent requests are coalesced
// into shared batched passes (bit-identical results, one pool scan per batch
// instead of one per request); tune with -coalesce-batch / -coalesce-wait,
// observe on /healthz ("coalescer", "rep_cache") and the latency histograms
// on /metrics. A coalesced request that disconnects abandons its slot
// immediately, but the shared batch — work other callers still need — runs
// to completion (disable coalescing with -coalesce-batch 1 to get strict
// per-request cancellation back).
//
// Large pools: -max-candidates K bounds every estimate to the K most
// containment-comparable pool entries, keeping per-request latency flat as
// /record grows the pool. Bounded selection runs through the pool's inverted
// signature-class index — bit-identical candidates at sublinear cost — and
// the pool itself falls back to the linear scan on clauses with too many
// distinct signature patterns. -pool-cap N bounds the pool with
// LRU-by-last-match eviction. /healthz reports the index, scan-split and
// eviction counters under "pool".
//
// Online adaptation (always on): /feedback ingests execution feedback — a
// query the workload actually ran and its observed true cardinality.
// Feedback grows the queries pool and feeds a background trainer that
// incrementally retrains the containment model and atomically hot-swaps
// improved generations under live traffic, gated on validation q-error
// (-promote-tolerance). The drift monitor compares live estimates against
// arriving truths; when more than half the windowed q-errors exceed
// -drift-threshold, a retrain is kicked early. Tune with -feedback-buffer,
// -retrain-interval, -retrain-epochs; observe on /healthz ("online":
// generation, collector, trainer, drift).
//
// Operational guards: -max-inflight sheds estimation requests beyond a
// concurrency ceiling with 429 + Retry-After (and independently bounds
// /record + /feedback, which execute the truth oracle); -request-timeout
// deadlines every estimate; -breaker-error-rate / -breaker-p99 arm a circuit
// breaker that diverts estimates to the baseline fallback while the primary
// path is failing or slow, with half-open probing after -breaker-cooldown.
// /livez answers process liveness (always 200 while serving); /readyz turns
// 503 during startup, shutdown drain, or while the breaker is open. /healthz
// reports the guard counters ("guard", "ingest_gate"); /metrics counts each
// route's requests, sheds and failures (crn_http_*).
//
// Telemetry (always on): the serving stack records per-stage latency
// histograms (admission → coalesce-wait → cache-lookup → candidate-selection
// → NN-forward → finalize), request outcomes, subsystem counters, and live
// per-arm q-error (feedback truths joined against recent estimates), all
// exposed on GET /metrics in Prometheus text format with no external
// dependency. /metrics is the only surface of those instruments; /healthz
// carries the subsystem snapshots (pool, caches, coalescer, online loop,
// durability, guards).
// -metrics-addr moves /metrics onto a separate listener and serves
// /debug/pprof there — the only place profiling is served — so operational
// endpoints stay off the public serving port. `crndiag -watch` renders a
// terminal dashboard over /metrics.
//
// Errors map typed facade sentinels to statuses: unparseable dialect -> 400,
// no usable pool match (estimator without fallback) -> 422, shed by
// admission control -> 429, cancelled or breaker-diverted without
// fallback -> 503.
//
// Usage:
//
//	crntrain -titles 4000 -pairs 5000 -o crn.model
//	crnserve -addr :8080 -model crn.model -pool 300
//	crnserve -addr :8080 -model crn.model -metrics-addr 127.0.0.1:9090   # /metrics + /debug/pprof
//	crnserve -addr :8080 -model crn.model -pool-cap 100000 -max-candidates 64
//	crnserve -addr :8080 -model crn.model -data-dir state -retrain-interval 30s -drift-threshold 16
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crn"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	titles := flag.Int("titles", 4000, "synthetic database size (title rows)")
	dbSeed := flag.Int64("db-seed", 1, "database generation seed")
	modelPath := flag.String("model", "", "serialized model from crntrain (required unless -data-dir holds a checkpoint, whose model then wins and this file is not read)")
	poolSize := flag.Int("pool", 300, "initial queries-pool size (0: start empty)")
	poolSeed := flag.Int64("pool-seed", 7, "queries-pool generation seed")
	poolCap := flag.Int("pool-cap", 0, "queries-pool capacity; /record evicts the least-recently-matched entry once full (0: unbounded)")
	maxCandidates := flag.Int("max-candidates", 0, "bound each estimate to the K most comparable pool entries via the signature index (0: full scan)")
	noFallback := flag.Bool("no-fallback", false, "fail pool misses with 422 instead of using the PostgreSQL-style baseline")
	coalesceBatch := flag.Int("coalesce-batch", 64, "max concurrent /estimate requests coalesced into one batched pass (< 2 disables coalescing)")
	coalesceWait := flag.Duration("coalesce-wait", 0, "how long to hold a non-full coalescing batch open for stragglers (0: adaptive, never waits)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this separate listener so operational endpoints stay off the public port (empty: /metrics rides -addr, pprof is not served)")
	feedbackBuffer := flag.Int("feedback-buffer", 1024, "staged execution-feedback records before /feedback rejects")
	retrainInterval := flag.Duration("retrain-interval", 5*time.Second, "background trainer polling period; negative disables scheduled retraining")
	retrainEpochs := flag.Int("retrain-epochs", 8, "incremental training epochs per retrain cycle")
	promoteTolerance := flag.Float64("promote-tolerance", 0.05, "promotion gate: candidate validation q-error may exceed live by this fraction")
	driftThreshold := flag.Float64("drift-threshold", 0, "q-error of live estimates vs feedback truths that, exceeded by more than half the drift window, kicks an early retrain (0: observe only)")
	driftWindow := flag.Int("drift-window", 256, "drift monitor window: two tumbling halves of N/2 feedback q-errors, so the last N/2..N")
	dataDir := flag.String("data-dir", "", "durable state directory: feedback WAL + promotion checkpoints, recovered on restart (empty: memory-only)")
	walSync := flag.String("wal-sync", "interval", "feedback WAL sync policy: interval (batched fsync), always (fsync per record), none")
	checkpointRetain := flag.Int("checkpoint-retain", 3, "checkpoints kept on disk; older ones and fully-covered WAL segments are pruned")
	maxInflight := flag.Int("max-inflight", 0, "concurrent estimation requests admitted before shedding with 429; also bounds /record+/feedback (0: unlimited)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request estimation deadline (0: none)")
	breakerErrorRate := flag.Float64("breaker-error-rate", 0, "windowed error rate that trips the circuit breaker onto the fallback path (0 with -breaker-p99 0: breaker off)")
	breakerP99 := flag.Duration("breaker-p99", 0, "windowed p99 estimate latency that trips the circuit breaker (0: latency trip off)")
	breakerWindow := flag.Int("breaker-window", 128, "outcomes per tumbling circuit-breaker window (error-rate and p99 trips both count over it)")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "open time before the breaker half-opens and probes the primary path")
	shutdownTimeout := flag.Duration("shutdown-timeout", 5*time.Second, "graceful shutdown drain deadline for in-flight requests")
	flag.Parse()

	logger := log.New(os.Stderr, "crnserve: ", log.LstdFlags)

	// A data dir with a completed checkpoint is a resumable deployment: the
	// checkpoint's model generation and grown pool supersede -model and pool
	// seeding (OpenAdaptiveEstimator restores both), so the model file is
	// not read.
	resume := *dataDir != "" && crn.HasCheckpoint(*dataDir)
	if !resume && *modelPath == "" {
		logger.Fatalf("no model: train one with crntrain (crntrain -o crn.model) and pass -model crn.model, or resume from a -data-dir checkpoint")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger.Printf("opening synthetic database (titles=%d seed=%d)", *titles, *dbSeed)
	sys, err := crn.OpenSynthetic(ctx, crn.WithTitles(*titles), crn.WithDataSeed(*dbSeed))
	if err != nil {
		logger.Fatalf("open database: %v", err)
	}

	var model *crn.ContainmentModel
	if resume {
		logger.Printf("data dir %s holds a checkpoint: resuming previous deployment (its model wins over -model; skipping pool seeding)", *dataDir)
	} else {
		blob, err := os.ReadFile(*modelPath)
		if err != nil {
			logger.Fatalf("read model: %v", err)
		}
		if model, err = sys.LoadContainmentModel(blob); err != nil {
			logger.Fatalf("load model: %v", err)
		}
		logger.Printf("loaded model from %s", *modelPath)
	}

	var poolOpts []crn.PoolOption
	if *poolCap > 0 {
		poolOpts = append(poolOpts, crn.WithPoolCap(*poolCap))
		logger.Printf("pool capacity bounded to %d entries (LRU-by-last-match eviction)", *poolCap)
	}
	pool := sys.NewQueriesPool(poolOpts...)
	if *poolSize > 0 && !resume {
		logger.Printf("seeding queries pool (n=%d)", *poolSize)
		if err := sys.SeedPool(ctx, pool, *poolSize, *poolSeed); err != nil {
			logger.Fatalf("seed pool: %v", err)
		}
	}

	tel := crn.NewTelemetry()
	opts := []crn.EstimatorOption{
		crn.WithTelemetry(tel),
		crn.WithFeedbackBuffer(*feedbackBuffer),
		crn.WithRetrainInterval(*retrainInterval),
		crn.WithRetrainEpochs(*retrainEpochs),
		crn.WithPromoteTolerance(*promoteTolerance),
		crn.WithDriftTrigger(*driftThreshold, *driftWindow),
	}
	if !*noFallback {
		base, err := sys.AnalyzeBaseline()
		if err != nil {
			logger.Fatalf("analyze baseline: %v", err)
		}
		opts = append(opts, crn.WithFallback(base))
	}
	if *coalesceBatch >= 2 {
		opts = append(opts, crn.WithCoalescing(*coalesceBatch, *coalesceWait))
		logger.Printf("request coalescing on (max batch %d, max wait %v)", *coalesceBatch, *coalesceWait)
	}
	if *maxCandidates > 0 {
		opts = append(opts, crn.WithMaxCandidates(*maxCandidates))
		logger.Printf("candidate selection bounded to top-%d pool entries per estimate", *maxCandidates)
	}
	if *maxInflight > 0 {
		opts = append(opts, crn.WithMaxInflight(*maxInflight))
		logger.Printf("admission control on (max %d concurrent estimates, overflow shed with 429)", *maxInflight)
	}
	if *requestTimeout > 0 {
		opts = append(opts, crn.WithRequestTimeout(*requestTimeout))
		logger.Printf("per-request estimation deadline %v", *requestTimeout)
	}
	if *breakerErrorRate > 0 || *breakerP99 > 0 {
		opts = append(opts, crn.WithBreaker(crn.BreakerConfig{
			Window:     *breakerWindow,
			ErrorRate:  *breakerErrorRate,
			LatencyP99: *breakerP99,
			Cooldown:   *breakerCooldown,
		}))
		logger.Printf("circuit breaker armed (window=%d error-rate=%g p99=%v cooldown=%v)",
			*breakerWindow, *breakerErrorRate, *breakerP99, *breakerCooldown)
	}
	if *dataDir != "" {
		opts = append(opts,
			crn.WithDataDir(*dataDir),
			crn.WithWALSync(*walSync),
			crn.WithCheckpointRetain(*checkpointRetain),
		)
	}

	est, err := sys.OpenAdaptiveEstimator(model, pool, opts...)
	if err != nil {
		logger.Fatalf("open adaptive estimator: %v", err)
	}
	logger.Printf("online adaptation on (buffer=%d interval=%v epochs=%d tolerance=%.2f drift-threshold=%g)",
		*feedbackBuffer, *retrainInterval, *retrainEpochs, *promoteTolerance, *driftThreshold)
	if ds := est.DurabilityStats(); ds != nil {
		logger.Printf("durable state on under %s (wal-sync=%s retain=%d): generation=%d pool=%d staged=%d replayed=%d",
			*dataDir, *walSync, *checkpointRetain,
			est.ModelGeneration(), pool.Len(), est.StagedFeedback(), ds.ReplayedRecords)
	}

	handler := newServer(sys, pool, est, tel, logger)
	handler.setIngestLimit(*maxInflight)
	handler.metricsOnMain = *metricsAddr == ""
	// Construction is done: model published (loaded or recovered) and any
	// WAL replay absorbed — flip /readyz before the listener opens.
	handler.setReady(true)
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler.handler(),
		// Full-lifecycle timeouts so a stalled or malicious peer cannot pin a
		// connection: headers, whole-request read, whole-response write, and
		// keep-alive idle. WriteTimeout leaves headroom over any
		// -request-timeout since it also covers response serialization.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      90 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	var metricsSrv *http.Server
	if *metricsAddr != "" {
		metricsSrv = &http.Server{
			Addr:              *metricsAddr,
			Handler:           handler.metricsHandler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		// Bound here, not in the goroutine: a client that saw /readyz on the
		// serving port may scrape /metrics at once.
		if ln, err := net.Listen("tcp", *metricsAddr); err != nil {
			logger.Printf("metrics listener: %v", err)
		} else {
			logger.Printf("operational listener on %s (/metrics + /debug/pprof/)", *metricsAddr)
			go func() {
				if err := metricsSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
					logger.Printf("metrics listener: %v", err)
				}
			}()
		}
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		// Unready first so load balancers drain before the listener closes.
		handler.setReady(false)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
		if metricsSrv != nil {
			_ = metricsSrv.Shutdown(shutdownCtx)
		}
	}()

	logger.Printf("serving on %s (pool=%d)", *addr, pool.Len())
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatalf("serve: %v", err)
	}
	// ListenAndServe returns as soon as the listener closes; wait for
	// Shutdown to finish draining in-flight requests before exiting.
	<-drained
	// Graceful teardown: the listener has drained, so no new feedback
	// arrives; stop the trainer and — with -data-dir — flush the WAL and
	// write the final checkpoint (staged feedback stays journaled past the
	// checkpoint LSN and is re-staged on the next boot).
	if est.DurabilityStats() != nil {
		logger.Printf("flushing durable state (generation=%d staged=%d)",
			est.ModelGeneration(), est.StagedFeedback())
	}
	est.Close()
	fmt.Fprintln(os.Stderr, "crnserve: shut down")
}
