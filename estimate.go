package crn

import (
	"context"
	"errors"
	"runtime"
	"time"

	"crn/internal/card"
	"crn/internal/contain"
	icrn "crn/internal/crn"
	"crn/internal/guard"
	"crn/internal/online"
	"crn/internal/serve"
	"crn/internal/telemetry"
)

// CardinalityEstimator is the pool-based Cnt2Crd estimator of §5. It is
// safe for concurrent use on a trained model; the pool may grow
// concurrently via RecordExecuted.
//
// CRN-backed estimators carry a serving cache: for every stable pool entry
// (and any recurring probe) the set-module encodings AND the precomputed
// pair-head partial products are memoized by canonical query key across
// requests, the recurring working set held in a zero-copy resident tier —
// so in steady state a single-query estimate computes only its own probe
// side — and the containment rate of two resident queries is memoized by
// their row pair, so a recurring probe does not run the pair head at all.
// The cache subscribes to its pool and absorbs mutations surgically: an
// insert drops nothing, an eviction drops exactly the evicted entry's rows
// (and with them its memoized rates). Revalidation against the pool's
// version counter before every estimate is the safety net — it flushes only
// on a mutation the cache did not witness — and InvalidateRepresentations
// flushes explicitly; estimates with and without the cache are
// bit-identical.
//
// With WithCoalescing, concurrent EstimateCardinality calls are
// additionally micro-batched into shared estimation passes; coalesced
// results are bit-identical to uncoalesced calls.
type CardinalityEstimator struct {
	est   *card.Estimator
	cache *icrn.RepCache
	pool  *QueriesPool
	coal  *serve.Coalescer[Query, float64]

	// box, when non-nil, is the atomic model-generation indirection of an
	// AdaptiveEstimator: the rate model and its representation cache are
	// read through one atomic pointer load per estimation pass, so a
	// background promotion swaps both coherently under live traffic.
	box *online.ModelBox

	// Operational guards (all optional, all nil-safe): gate sheds load
	// beyond WithMaxInflight, reqTimeout deadline-bounds each call, and
	// breaker diverts an unhealthy learned path to the fallback estimator.
	gate       *guard.Gate
	breaker    *guard.Breaker
	reqTimeout time.Duration
	// wheel amortizes the per-request deadline for non-cancellable parent
	// contexts: one shared timer per granule instead of one per request
	// (see guard.DeadlineWheel). Cancellable parents — every HTTP request
	// context — fall back to context.WithTimeout for real cancel
	// propagation.
	wheel *guard.DeadlineWheel

	// tel, when non-nil, records per-request latency spans, outcome
	// counters and subsystem collector families (see WithTelemetry). Nil
	// keeps the estimate path free of clock reads.
	tel *telemetry.Telemetry
}

// applyGuards wires the admission gate, request timeout and circuit
// breaker from the collected options.
func (e *CardinalityEstimator) applyGuards(set estimatorSettings) {
	e.gate = guard.NewGate(set.maxInflight)
	e.reqTimeout = set.reqTimeout
	e.wheel = guard.NewDeadlineWheel(set.reqTimeout)
	if set.breaker != nil {
		e.breaker = guard.NewBreaker(*set.breaker)
	}
}

// applyTelemetry threads the telemetry bundle through every layer the
// estimator owns — stage histograms into the coalescer, card estimator,
// rate adapter and pool; collector families over the guard, cache,
// coalescer and pool stats the facade already keeps. Called once at
// construction, before any traffic, because the subsystem telemetry
// fields are read without synchronization.
func (e *CardinalityEstimator) applyTelemetry(set estimatorSettings) {
	t := set.tel
	if t == nil {
		return
	}
	e.tel = t
	e.est.Tel = t
	e.coal.SetTelemetry(t.Stages.CoalesceWait, t.CoalesceBatch)
	if e.pool != nil {
		e.pool.SetTelemetry(t.TopKScanned, t.TopKPruned)
	}
	if e.box != nil {
		e.box.SetStages(t.Stages)
	} else if r, ok := e.est.Rates.(*icrn.Rates); ok {
		// Stage-instrument a private copy so sibling estimators sharing the
		// model's adapter stay untouched.
		r2 := *r
		r2.Stages = t.Stages
		e.est.Rates = &r2
	}
	e.registerCollectors()
}

// registerCollectors bridges the estimator's existing stats atomics onto
// the registry as gather-time collector families, so /healthz and /metrics
// render from the same source of truth without a second set of hot-path
// writes.
func (e *CardinalityEstimator) registerCollectors() {
	r := e.tel.Registry()

	// Admission gate.
	r.GaugeFunc("crn_gate_inflight", "Currently admitted estimate calls.",
		func() float64 { return float64(e.gate.Stats().Inflight) })
	r.CollectCounter("crn_gate_requests_total",
		"Admission decisions: admitted into the estimate path vs shed with ErrOverloaded.",
		"decision", func(emit telemetry.Emit) {
			gs := e.gate.Stats()
			emit(float64(gs.Admitted), "admitted")
			emit(float64(gs.Shed), "shed")
		})

	// Circuit breaker.
	r.GaugeFunc("crn_breaker_state", "Circuit breaker state: 0 closed, 1 half-open, 2 open.",
		func() float64 {
			switch e.breaker.State() {
			case guard.BreakerOpen:
				return 2
			case guard.BreakerHalfOpen:
				return 1
			}
			return 0
		})
	r.CollectCounter("crn_breaker_events_total",
		"Circuit-breaker lifecycle events and diverted requests.",
		"event", func(emit telemetry.Emit) {
			bs := e.breaker.Stats()
			emit(float64(bs.Trips), "trip")
			emit(float64(bs.Closes), "close")
			emit(float64(bs.Diverted), "diverted")
		})

	// Representation cache.
	r.CollectCounter("crn_repcache_lookups_total",
		"Representation-cache lookups by result.",
		"result", func(emit telemetry.Emit) {
			cs := e.CacheStats()
			emit(float64(cs.Hits), "hit")
			emit(float64(cs.Misses), "miss")
		})
	r.GaugeFunc("crn_repcache_entries", "Cached representations across both tiers.",
		func() float64 { return float64(e.CacheStats().Size) })
	r.GaugeFunc("crn_repcache_resident", "Representations in the zero-copy resident tier.",
		func() float64 { return float64(e.CacheStats().Resident) })
	r.CollectCounter("crn_ratememo_lookups_total",
		"Pair-rate memo lookups by result (attempted only for pairs of two resident rows).",
		"result", func(emit telemetry.Emit) {
			cs := e.CacheStats()
			emit(float64(cs.MemoHits), "hit")
			emit(float64(cs.MemoMisses), "miss")
		})
	r.GaugeFunc("crn_ratememo_entries", "Containment rates memoized by resident row pair.",
		func() float64 { return float64(e.CacheStats().MemoEntries) })

	// Request coalescer.
	r.CollectCounter("crn_coalesce_calls_total",
		"Coalescer call dispositions: total Do invocations, calls answered by another call's slot, solo fast-path runs, early abandonments.",
		"kind", func(emit telemetry.Emit) {
			cs := e.coal.Stats()
			emit(float64(cs.Calls), "call")
			emit(float64(cs.Deduped), "deduped")
			emit(float64(cs.Solo), "solo")
			emit(float64(cs.Abandoned), "abandoned")
		})
	r.CollectCounter("crn_coalesce_batches_total", "Batch executions (solo runs included).",
		"", func(emit telemetry.Emit) { emit(float64(e.coal.Stats().Batches), "") })

	// Queries pool.
	if e.pool != nil {
		r.GaugeFunc("crn_pool_entries", "Pooled executed queries.",
			func() float64 { return float64(e.pool.Stats().Entries) })
		r.CollectCounter("crn_pool_evictions_total", "Entries evicted by the capacity bound.",
			"", func(emit telemetry.Emit) { emit(float64(e.pool.Stats().Evictions), "") })
		r.CollectCounter("crn_pool_selections_total",
			"Bounded top-K selections by serving path (signature-class index vs linear scan).",
			"path", func(emit telemetry.Emit) {
				ps := e.pool.Stats()
				emit(float64(ps.IndexHits), "indexed")
				emit(float64(ps.IndexFallbacks), "fallback")
			})
		r.CollectCounter("crn_pool_scanned_total",
			"Candidates visited by bounded selection, by serving path.",
			"path", func(emit telemetry.Emit) {
				ps := e.pool.Stats()
				emit(float64(ps.ScannedIndexed), "indexed")
				emit(float64(ps.ScannedFallback), "fallback")
			})
	}

	// Batch-level candidate sharing.
	r.CollectCounter("crn_candidate_selections_total",
		"Per-probe candidate gatherings: requested across all batches, and the subset answered by reusing an earlier selection of the same batch.",
		"kind", func(emit telemetry.Emit) {
			ss := e.est.SelectionStats()
			emit(float64(ss.Selections), "requested")
			emit(float64(ss.Shared), "shared")
		})
}

// finish closes out one request's telemetry: end-to-end latency (into the
// batch histogram when batch is set) and the outcome counter. fellBack
// marks answers diverted to the fallback estimator (breaker-open routing
// or the degraded-answer path).
func (e *CardinalityEstimator) finish(st telemetry.StageTimer, batch bool, err error, fellBack bool) {
	if e.tel == nil {
		return
	}
	hist := e.tel.E2E
	if batch {
		hist = e.tel.BatchE2E
	}
	hist.ObserveDuration(st.Total())
	switch {
	case fellBack && err == nil:
		e.tel.ReqFallback.Inc()
	case err != nil:
		e.tel.ReqError.Inc()
	default:
		e.tel.ReqOK.Inc()
	}
}

// shed counts one request shed at the admission gate.
func (e *CardinalityEstimator) shed(st telemetry.StageTimer, batch bool) {
	if e.tel == nil {
		return
	}
	hist := e.tel.E2E
	if batch {
		hist = e.tel.BatchE2E
	}
	hist.ObserveDuration(st.Total())
	e.tel.ReqShed.Inc()
}

// withTimeout applies the configured per-request deadline (a no-op cancel
// is returned when none is configured). Non-cancellable parents get a
// shared-timer deadline from the wheel — no allocation-and-timer per
// request; cancellable parents get a real context.WithTimeout.
func (e *CardinalityEstimator) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if e.reqTimeout <= 0 {
		return ctx, func() {}
	}
	if wctx, ok := e.wheel.Context(ctx); ok {
		return wctx, func() {}
	}
	return context.WithTimeout(ctx, e.reqTimeout)
}

// activeCache resolves the representation cache estimates run against: the
// current generation's cache for an adaptive estimator, the fixed one
// otherwise. May be nil (ImproveBaseline, WithoutRepCache); RepCache
// methods are nil-safe.
func (e *CardinalityEstimator) activeCache() *icrn.RepCache {
	if e.box != nil {
		return e.box.Current().Rates.Cache
	}
	return e.cache
}

// RepCacheStats reports representation-cache effectiveness (see
// CardinalityEstimator.CacheStats).
type RepCacheStats = icrn.RepCacheStats

// CoalescerStats reports request-coalescing effectiveness (see
// CardinalityEstimator.CoalescerStats).
type CoalescerStats = serve.Stats

// CardinalityEstimator builds the paper's Cnt2Crd(CRN) estimator from a
// trained containment model and a queries pool. Options tune the Figure 8
// algorithm (WithFinal, WithEpsilon, WithFallback, WithWorkers) and the
// serving-side representation cache (WithRepCacheSize, WithoutRepCache).
func (s *System) CardinalityEstimator(m *ContainmentModel, p *QueriesPool, opts ...EstimatorOption) *CardinalityEstimator {
	set := estimatorSettings{cacheSize: icrn.DefaultRepCacheSize}
	est := card.New(m.rates, p)
	set.est = est
	for _, o := range opts {
		o(&set)
	}
	ce := &CardinalityEstimator{est: est, pool: p}
	if set.cacheSize > 0 {
		// Bind a private cached view of the rate adapter, leaving the
		// model's own adapter (and any sibling estimator) untouched.
		ce.cache = icrn.NewRepCache(set.cacheSize)
		rates := *m.rates
		rates.Cache = ce.cache
		est.Rates = &rates
		if p != nil {
			// Surgical invalidation: the cache absorbs pool mutations as they
			// happen (an eviction drops one cached row, an insert none), so
			// record/feedback traffic no longer flushes the warm working set.
			p.Subscribe(ce.cache)
			// Callers predating Close never call it; when such an estimator
			// is garbage collected, reclaim the subscription so discarded
			// estimators cannot pin their caches in the pool's listener list
			// forever. (Close does this deterministically; the cleanup's
			// duplicate Unsubscribe is a no-op.)
			runtime.AddCleanup(ce, func(s poolSub) { s.pool.Unsubscribe(s.cache) },
				poolSub{pool: p, cache: ce.cache})
		}
	}
	ce.initCoalescer(set)
	ce.applyGuards(set)
	ce.applyTelemetry(set)
	return ce
}

// poolSub is the GC-cleanup payload releasing a discarded estimator's
// pool subscription; it must not reference the estimator itself.
type poolSub struct {
	pool  *QueriesPool
	cache *icrn.RepCache
}

// Close releases the estimator's pool subscription (the surgical cache
// invalidation hook). Estimators are usually process-lived; call Close when
// discarding one while its pool lives on.
func (e *CardinalityEstimator) Close() {
	if e.box != nil {
		e.box.Close()
		return
	}
	if e.cache != nil && e.pool != nil {
		e.pool.Unsubscribe(e.cache)
	}
}

// initCoalescer wires the request micro-batcher when WithCoalescing asked
// for one. The batch runner revalidates the cache and answers through the
// same indexed batch pass as EstimateCardinalityBatch, so coalesced results
// are bit-identical to direct calls. Shared batches run under the
// background context the coalescer supplies, because the batch outlives any
// single caller (individual callers that cancel abandon their slot without
// cancelling the shared work); a solo fast-path run receives its one
// caller's context, so an uncontended request stays fully cancellable.
func (e *CardinalityEstimator) initCoalescer(set estimatorSettings) {
	if set.coalesceBatch < 2 {
		return
	}
	e.coal = serve.NewCoalescer(set.coalesceBatch, set.coalesceWait, Query.Key,
		func(ctx context.Context, qs []Query) ([]float64, error) {
			e.revalidate()
			return e.est.EstimateCards(ctx, qs)
		})
}

// ImproveBaseline wraps an existing cardinality model with the paper's §7
// construction — Cnt2Crd(Crd2Cnt(M)) over the pool — without changing M.
// Representation caching does not apply (the wrapped model has no
// set-module representations), so the cache options WithRepCacheSize and
// WithoutRepCache are ignored and CacheStats reports zeros. WithCoalescing
// is honored: request micro-batching is model-agnostic.
func (s *System) ImproveBaseline(m BaselineEstimator, p *QueriesPool, opts ...EstimatorOption) *CardinalityEstimator {
	est := card.Improved(m, p)
	set := estimatorSettings{est: est}
	for _, o := range opts {
		o(&set)
	}
	ce := &CardinalityEstimator{est: est, pool: p}
	ce.initCoalescer(set)
	ce.applyGuards(set)
	ce.applyTelemetry(set)
	return ce
}

// revalidate flushes the representation cache when the pool has mutated
// since the last estimate in a way the cache did not absorb surgically.
// A nil pool is left for the underlying estimator's configuration check to
// report as an error.
func (e *CardinalityEstimator) revalidate() {
	if e.pool != nil {
		e.activeCache().Validate(e.pool.Version())
	}
}

// EstimateCardinality estimates |q| using the pool (Figure 8 algorithm).
// Queries without a usable pool match fail with an error wrapping
// ErrNoPoolMatch unless a fallback is configured.
//
// On a coalescing estimator (WithCoalescing) the call may share one
// batched estimation pass with other concurrent callers — same results,
// bit for bit, at a fraction of the per-request cost. A shared batch fails
// as a whole, so on a coalesced error the query is transparently re-run
// alone and the caller sees its own error (or its own success when another
// query in the batch was the one that failed). A request that ran on the
// coalescer's solo fast path already executed alone, so its error is
// returned directly without the redundant retry.
// Operational guards apply when configured: WithMaxInflight sheds the call
// with ErrOverloaded before any work happens, WithRequestTimeout bounds it
// with a deadline, and an open WithBreaker diverts it to the fallback
// estimator (ErrBreakerOpen without one).
func (e *CardinalityEstimator) EstimateCardinality(ctx context.Context, q Query) (float64, error) {
	st := e.tel.StartTimer()
	if err := e.gate.Acquire(); err != nil {
		e.shed(st, false)
		return 0, err
	}
	defer e.gate.Release()
	ctx, cancel := e.withTimeout(ctx)
	defer cancel()
	if e.tel != nil {
		st.Mark(e.tel.Stages.Admission)
	}
	if e.breaker == nil {
		v, err := e.estimatePrimary(ctx, q)
		e.finish(st, false, err, false)
		return v, err
	}
	allowed, probe := e.breaker.Allow()
	if !allowed {
		v, err := e.fallbackOne(ctx, q)
		e.finish(st, false, err, true)
		return v, err
	}
	var start time.Time
	if e.breaker.TracksLatency() {
		start = time.Now()
	}
	v, err := e.estimatePrimary(ctx, q)
	failed := breakerCountable(ctx, err)
	var lat time.Duration
	if !start.IsZero() {
		lat = time.Since(start)
	}
	if probe {
		e.breaker.RecordProbe(lat, failed)
	} else {
		e.breaker.Record(lat, failed)
	}
	if failed {
		// A countable primary failure with a fallback available: answer
		// degraded instead of erroring — the same routing an open breaker
		// applies, one request early.
		if fv, ferr := e.fallbackOne(ctx, q); ferr == nil {
			e.finish(st, false, nil, true)
			return fv, nil
		}
	}
	e.finish(st, false, err, false)
	return v, err
}

// estimatePrimary is the learned estimate path (pre-guard
// EstimateCardinality): coalesced when configured, with the solo-error
// unwrap and the retry-alone fallback on shared-batch failure.
func (e *CardinalityEstimator) estimatePrimary(ctx context.Context, q Query) (float64, error) {
	e.revalidate()
	if e.coal == nil {
		return e.est.EstimateCardCtx(ctx, q)
	}
	v, err := e.coal.Do(ctx, q)
	if err == nil {
		return v, nil
	}
	var solo *serve.SoloError
	if errors.As(err, &solo) {
		return 0, solo.Err
	}
	if ctx.Err() != nil {
		return 0, ctx.Err()
	}
	return e.est.EstimateCardCtx(ctx, q)
}

// fallbackOne answers one query from the configured fallback estimator —
// the breaker's divert target. Mirrors card.Estimator's own fallback
// dispatch (context-aware when the fallback supports it).
func (e *CardinalityEstimator) fallbackOne(ctx context.Context, q Query) (float64, error) {
	fb := e.est.Fallback
	if fb == nil {
		return 0, guard.ErrBreakerOpen
	}
	var v float64
	var err error
	if cfb, ok := fb.(contain.CtxCardEstimator); ok {
		v, err = cfb.EstimateCardCtx(ctx, q)
	} else if cerr := ctx.Err(); cerr != nil {
		return 0, cerr
	} else {
		v, err = fb.EstimateCard(q)
	}
	if err == nil && e.tel != nil {
		// The divert path bypasses card.EstimateCards, which notes every
		// estimate it serves; note the fallback answer here so execution
		// feedback still joins it into the fallback arm's q-error.
		e.tel.Accuracy.Note(q.Key(), v, telemetry.ArmFallback)
	}
	return v, err
}

// fallbackBatch is fallbackOne over a batch; it fails as a whole like the
// primary batch path.
func (e *CardinalityEstimator) fallbackBatch(ctx context.Context, queries []Query) ([]float64, error) {
	out := make([]float64, len(queries))
	for i, q := range queries {
		v, err := e.fallbackOne(ctx, q)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// breakerCountable reports whether an estimate error should count against
// the circuit breaker. Client errors (bad dialect, no pool match,
// incomparable queries) and caller cancellation say nothing about the
// health of the learned path; internal failures and deadline blowouts do.
func breakerCountable(ctx context.Context, err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrDialect) || errors.Is(err, ErrNoPoolMatch) ||
		errors.Is(err, ErrNotComparable) || errors.Is(err, guard.ErrOverloaded) {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	return true
}

// EstimateCardinalityBatch estimates |q| for every query with one amortized
// containment-rate pass over all pool pairs of the batch: feature encoding
// and the set-module forward of recurring pool entries are shared (and
// memoized across requests by the representation cache), and the CRN head
// runs matrix-batched. Results are identical to per-query
// EstimateCardinality calls; the batch fails as a whole on the first query
// that errors.
// The operational guards apply per batch call: one admission slot, one
// deadline, one breaker outcome — a batch is one unit of serving work.
func (e *CardinalityEstimator) EstimateCardinalityBatch(ctx context.Context, queries []Query) ([]float64, error) {
	st := e.tel.StartTimer()
	if err := e.gate.Acquire(); err != nil {
		e.shed(st, true)
		return nil, err
	}
	defer e.gate.Release()
	ctx, cancel := e.withTimeout(ctx)
	defer cancel()
	if e.tel != nil {
		st.Mark(e.tel.Stages.Admission)
	}
	if e.breaker == nil {
		e.revalidate()
		out, err := e.est.EstimateCards(ctx, queries)
		e.finish(st, true, err, false)
		return out, err
	}
	allowed, probe := e.breaker.Allow()
	if !allowed {
		out, err := e.fallbackBatch(ctx, queries)
		e.finish(st, true, err, true)
		return out, err
	}
	var start time.Time
	if e.breaker.TracksLatency() {
		start = time.Now()
	}
	e.revalidate()
	out, err := e.est.EstimateCards(ctx, queries)
	failed := breakerCountable(ctx, err)
	var lat time.Duration
	if !start.IsZero() {
		lat = time.Since(start)
	}
	if probe {
		e.breaker.RecordProbe(lat, failed)
	} else {
		e.breaker.Record(lat, failed)
	}
	if failed {
		if fout, ferr := e.fallbackBatch(ctx, queries); ferr == nil {
			e.finish(st, true, nil, true)
			return fout, nil
		}
	}
	e.finish(st, true, err, false)
	return out, err
}

// InvalidateRepresentations explicitly discards every cached set-module
// representation. Pool mutations are detected automatically via the pool's
// version counter; call this after swapping the model or encoder underneath
// a long-lived estimator, or from a serving write path that wants the flush
// to happen eagerly rather than on the next estimate.
func (e *CardinalityEstimator) InvalidateRepresentations() {
	e.activeCache().Invalidate()
}

// CacheStats reports representation-cache hits, misses and tier occupancy.
// Estimators without a cache — ImproveBaseline always, CardinalityEstimator
// under WithoutRepCache — report all zeros (the nil cache's Stats is a
// guarded no-op, so this is safe to call unconditionally).
func (e *CardinalityEstimator) CacheStats() RepCacheStats {
	return e.activeCache().Stats()
}

// CoalescerStats reports request-coalescing counters; all zeros for an
// estimator without WithCoalescing.
func (e *CardinalityEstimator) CoalescerStats() CoalescerStats {
	return e.coal.Stats()
}

// SelectionStats reports batch-level candidate-sharing counters: how many
// per-probe candidate selections the estimator performed and how many were
// answered by reusing an earlier selection of the same batch. Shared stays
// zero without WithSharedSelection.
func (e *CardinalityEstimator) SelectionStats() SelectionStats {
	return e.est.SelectionStats()
}

// GateStats reports admission-gate counters (see GuardStats).
type GateStats = guard.GateStats

// BreakerStats reports circuit-breaker state and counters (see GuardStats).
type BreakerStats = guard.BreakerStats

// GuardStats is a point-in-time snapshot of the estimator's operational
// guards, shaped for health endpoints. Unconfigured guards report zero
// values (breaker state "closed", gate ceiling 0 = unlimited).
type GuardStats struct {
	Gate    GateStats    `json:"gate"`
	Breaker BreakerStats `json:"breaker"`
}

// GuardStats returns the admission-gate and circuit-breaker snapshot.
func (e *CardinalityEstimator) GuardStats() GuardStats {
	return GuardStats{Gate: e.gate.Stats(), Breaker: e.breaker.Stats()}
}

// BreakerOpen reports whether the circuit breaker is currently open
// (readiness probes route traffic away while it is). Always false without
// WithBreaker.
func (e *CardinalityEstimator) BreakerOpen() bool {
	return e.breaker.State() == guard.BreakerOpen
}

// WithFallback sets a fallback estimator for queries without a usable pool
// match and returns the receiver.
//
// Deprecated: pass the WithFallback EstimatorOption to CardinalityEstimator
// or ImproveBaseline instead.
func (e *CardinalityEstimator) WithFallback(fb BaselineEstimator) *CardinalityEstimator {
	e.est.Fallback = fb
	return e
}
