// Command crnserve serves cardinality and containment estimates over HTTP —
// the paper's §5.2 deployment scenario: a DBMS continuously executes
// queries, appends them to the queries pool with their actual
// cardinalities, and answers estimation requests concurrently.
//
// At startup it opens the synthetic database, loads (or trains) a CRN
// containment model, seeds the queries pool, and listens. Endpoints:
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
// bit-identical to the JSON path. JSON stays the default. /healthz reports
// per-codec traffic and the buffer reuse rate under "wire".
//
// Every estimate — /estimate is a batch of one — runs the estimator's one
// pipeline: admission gate, deadline, breaker, cache revalidation, the
// learned pass, the degraded fallback, telemetry. The learned pass of a
// single-query /estimate is the coalescer: concurrent requests are coalesced
// into shared batched passes (bit-identical results, one pool scan per batch
// instead of one per request); tune with -coalesce-batch / -coalesce-wait,
// observe on /healthz ("coalescer", "estimate_latency", "batch_latency",
// "rep_cache"). A coalesced request that disconnects abandons its slot
// immediately, but the shared batch — work other callers still need — runs
// to completion (disable coalescing with -coalesce-batch 1 to get strict
// per-request cancellation back). -pprof mounts net/http/pprof under
// /debug/pprof/.
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
// Online adaptation (on by default, disable with -adapt=false): /feedback
// ingests execution feedback — a query the workload actually ran and its
// observed true cardinality. Feedback grows the queries pool and feeds a
// background trainer that incrementally retrains the containment model and
// atomically hot-swaps improved generations under live traffic, gated on
// validation q-error (-promote-tolerance). The drift monitor compares live
// estimates against arriving truths; when more than half the windowed
// q-errors exceed -drift-threshold, a retrain is kicked early. Tune with
// -feedback-buffer, -feedback-min-batch, -retrain-interval,
// -retrain-epochs; observe on /healthz ("online": generation, collector,
// trainer, drift).
//
// Operational guards: -max-inflight sheds estimation requests beyond a
// concurrency ceiling with 429 + Retry-After (and independently bounds
// /record + /feedback, which execute the truth oracle); -request-timeout
// deadlines every estimate; -breaker-error-rate / -breaker-p99 arm a circuit
// breaker that diverts estimates to the baseline fallback while the primary
// path is failing or slow, with half-open probing after -breaker-cooldown.
// /livez answers process liveness (always 200 while serving); /readyz turns
// 503 during startup, shutdown drain, or while the breaker is open. /healthz
// reports guard and per-endpoint counters ("guard", "ingest_gate",
// "endpoints").
//
// Telemetry (always on): the serving stack records per-stage latency
// histograms (admission → coalesce-wait → cache-lookup → candidate-selection
// → NN-forward → finalize), request outcomes, subsystem counters, and live
// per-arm q-error (feedback truths joined against recent estimates), all
// exposed on GET /metrics in Prometheus text format with no external
// dependency. /healthz renders its latency, stage and accuracy sections from
// the same registry — request latency comes only from the end-to-end
// histograms.
// -metrics-addr moves /metrics plus /debug/pprof onto a separate listener
// so operational endpoints stay off the public serving port. `crndiag
// -watch` renders a terminal dashboard over /metrics.
//
// Errors map typed facade sentinels to statuses: unparseable dialect -> 400,
// no usable pool match (estimator without fallback) -> 422, shed by
// admission control -> 429, cancelled or breaker-diverted without
// fallback -> 503.
//
// Usage:
//
//	crnserve -addr :8080 -titles 4000 -pairs 5000 -pool 300
//	crnserve -addr :8080 -model crn.model   # skip training, load weights
//	crnserve -addr :8080 -coalesce-batch 128 -coalesce-wait 200us -pprof
//	crnserve -addr :8080 -pool-cap 100000 -max-candidates 64
//	crnserve -addr :8080 -retrain-interval 30s -drift-threshold 16
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
	modelPath := flag.String("model", "", "serialized model from crntrain (empty: train at startup)")
	pairs := flag.Int("pairs", 5000, "training pairs when training at startup")
	trainSeed := flag.Int64("train-seed", 1, "workload generation seed for startup training")
	hidden := flag.Int("hidden", 64, "hidden layer size H for startup training")
	epochs := flag.Int("epochs", 30, "training epochs for startup training")
	poolSize := flag.Int("pool", 300, "initial queries-pool size (0: start empty)")
	poolSeed := flag.Int64("pool-seed", 7, "queries-pool generation seed")
	poolCap := flag.Int("pool-cap", 0, "queries-pool capacity; /record evicts the least-recently-matched entry once full (0: unbounded)")
	maxCandidates := flag.Int("max-candidates", 0, "bound each estimate to the K most comparable pool entries via the signature index (0: full scan)")
	noFallback := flag.Bool("no-fallback", false, "fail pool misses with 422 instead of using the PostgreSQL-style baseline")
	coalesceBatch := flag.Int("coalesce-batch", 64, "max concurrent /estimate requests coalesced into one batched pass (< 2 disables coalescing)")
	coalesceWait := flag.Duration("coalesce-wait", 0, "how long to hold a non-full coalescing batch open for stragglers (0: adaptive, never waits)")
	pprofFlag := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (profiling opt-in)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this separate listener so operational endpoints stay off the public port (empty: /metrics rides -addr)")
	adapt := flag.Bool("adapt", true, "enable the online-adaptation loop (/feedback ingestion, background retraining, model hot-swap)")
	feedbackBuffer := flag.Int("feedback-buffer", 1024, "staged execution-feedback records before /feedback rejects (adaptation)")
	feedbackMinBatch := flag.Int("feedback-min-batch", 16, "staged records that make a scheduled retrain worthwhile (adaptation)")
	retrainInterval := flag.Duration("retrain-interval", 5*time.Second, "background trainer polling period; negative disables scheduled retraining (adaptation)")
	retrainEpochs := flag.Int("retrain-epochs", 8, "incremental training epochs per retrain cycle (adaptation)")
	promoteTolerance := flag.Float64("promote-tolerance", 0.05, "promotion gate: candidate validation q-error may exceed live by this fraction (adaptation)")
	driftThreshold := flag.Float64("drift-threshold", 0, "q-error of live estimates vs feedback truths that, exceeded by more than half the drift window, kicks an early retrain (0: observe only)")
	driftWindow := flag.Int("drift-window", 256, "drift monitor window: two tumbling halves of N/2 feedback q-errors, so the last N/2..N (adaptation)")
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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger.Printf("opening synthetic database (titles=%d seed=%d)", *titles, *dbSeed)
	sys, err := crn.OpenSynthetic(ctx, crn.WithTitles(*titles), crn.WithDataSeed(*dbSeed))
	if err != nil {
		logger.Fatalf("open database: %v", err)
	}

	// A data dir with a completed checkpoint is a resumable deployment: the
	// checkpoint's model generation and grown pool supersede startup
	// training and seeding (an explicit -model still loads, as the escape
	// hatch for swapping weights under a kept data dir).
	resume := *adapt && *dataDir != "" && crn.HasCheckpoint(*dataDir)
	if resume {
		logger.Printf("data dir %s holds a checkpoint: resuming previous deployment (skipping startup training and pool seeding)", *dataDir)
	}

	var model *crn.ContainmentModel
	if resume && *modelPath == "" {
		// The checkpoint carries the model; OpenAdaptiveEstimator restores it.
	} else if *modelPath != "" {
		blob, err := os.ReadFile(*modelPath)
		if err != nil {
			logger.Fatalf("read model: %v", err)
		}
		model, err = sys.LoadContainmentModel(blob)
		if err != nil {
			logger.Fatalf("load model: %v", err)
		}
		logger.Printf("loaded model from %s", *modelPath)
	} else {
		mcfg := crn.DefaultModelConfig()
		mcfg.Hidden = *hidden
		mcfg.Epochs = *epochs
		logger.Printf("training containment model (pairs=%d hidden=%d epochs=%d)", *pairs, *hidden, *epochs)
		start := time.Now()
		model, err = sys.TrainContainmentModel(ctx,
			crn.WithPairs(*pairs),
			crn.WithSeed(*trainSeed),
			crn.WithModelConfig(mcfg),
			crn.WithProgress(func(epoch int, valQ float64) {
				if epoch%5 == 0 {
					logger.Printf("  epoch %3d: validation mean q-error %.3f", epoch, valQ)
				}
			}),
		)
		if err != nil {
			logger.Fatalf("train: %v", err)
		}
		logger.Printf("trained in %v", time.Since(start).Round(time.Second))
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
	opts := []crn.EstimatorOption{crn.WithTelemetry(tel)}
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

	var est *crn.CardinalityEstimator
	var adaptive *crn.AdaptiveEstimator
	if *adapt {
		adaptOpts := append(opts,
			crn.WithFeedbackBuffer(*feedbackBuffer),
			crn.WithRetrainBatch(*feedbackMinBatch),
			crn.WithRetrainInterval(*retrainInterval),
			crn.WithRetrainEpochs(*retrainEpochs),
			crn.WithPromoteTolerance(*promoteTolerance),
			crn.WithDriftTrigger(*driftThreshold, *driftWindow),
		)
		if *dataDir != "" {
			adaptOpts = append(adaptOpts,
				crn.WithDataDir(*dataDir),
				crn.WithWALSync(*walSync),
				crn.WithCheckpointRetain(*checkpointRetain),
			)
		}
		adaptive, err = sys.OpenAdaptiveEstimator(model, pool, adaptOpts...)
		if err != nil {
			logger.Fatalf("open adaptive estimator: %v", err)
		}
		defer adaptive.Close()
		est = adaptive.CardinalityEstimator
		logger.Printf("online adaptation on (buffer=%d min-batch=%d interval=%v epochs=%d tolerance=%.2f drift-threshold=%g)",
			*feedbackBuffer, *feedbackMinBatch, *retrainInterval, *retrainEpochs, *promoteTolerance, *driftThreshold)
		if ds := adaptive.DurabilityStats(); ds != nil {
			logger.Printf("durable state on under %s (wal-sync=%s retain=%d): generation=%d pool=%d staged=%d replayed=%d",
				*dataDir, *walSync, *checkpointRetain,
				adaptive.ModelGeneration(), pool.Len(), adaptive.StagedFeedback(), ds.ReplayedRecords)
		}
	} else {
		if *dataDir != "" {
			logger.Printf("warning: -data-dir is ignored with -adapt=false (durability rides the adaptation loop)")
		}
		est = sys.CardinalityEstimator(model, pool, opts...)
	}

	handler := newServer(sys, model, pool, est, logger)
	handler.adaptive = adaptive
	handler.pprof = *pprofFlag
	handler.setIngestLimit(*maxInflight)
	handler.setTelemetry(tel)
	handler.metricsOnMain = *metricsAddr == ""
	if *pprofFlag {
		logger.Printf("pprof enabled under /debug/pprof/")
	}
	if *metricsAddr == "" {
		logger.Printf("telemetry on (/metrics on the serving port; stage timers and live q-error tracking armed)")
	} else {
		logger.Printf("telemetry on (stage timers and live q-error tracking armed)")
	}
	// Construction is done: model published (trained, loaded, or recovered)
	// and any WAL replay absorbed — flip /readyz before the listener opens.
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
	if adaptive != nil {
		// Graceful teardown: the listener has drained, so no new feedback
		// arrives; stop the trainer and — with -data-dir — flush the WAL and
		// write the final checkpoint (staged feedback stays journaled past
		// the checkpoint LSN and is re-staged on the next boot).
		if adaptive.DurabilityStats() != nil {
			logger.Printf("flushing durable state (generation=%d staged=%d)",
				adaptive.ModelGeneration(), adaptive.StagedFeedback())
		}
		adaptive.Close()
	}
	fmt.Fprintln(os.Stderr, "crnserve: shut down")
}
