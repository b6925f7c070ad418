package crn

import (
	"context"
	"errors"
	"runtime"
	"time"

	"crn/internal/card"
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
// Every estimate — a single query is a batch of one — runs one pipeline:
// admission gate (WithMaxInflight), deadline (WithRequestTimeout), circuit
// breaker (WithBreaker; an open breaker diverts to the fallback), cache
// revalidation, the learned pass, the degraded fallback answer on a failure
// the breaker counts, the breaker's outcome record, and telemetry. The
// learned pass is the coalescer for a single call on a coalescing estimator
// (WithCoalescing) and card.Estimator's batch pass otherwise; both give the
// same bits.
//
// A CRN-backed estimator reads its rate model through an online.ModelBox:
// a frozen estimator is generation 1 of a box nobody promotes, an
// AdaptiveEstimator's trainer promotes its box under live traffic. Each
// generation carries a serving cache: for every stable pool entry (and any
// recurring probe) the set-module encodings AND the precomputed pair-head
// partial products are memoized by canonical query key across requests, the
// recurring working set held in a zero-copy resident tier — so in steady
// state a single-query estimate computes only its own probe side. The cache
// subscribes to its pool and absorbs mutations surgically: an insert drops
// nothing, an eviction drops exactly the evicted entry's rows.
// Revalidation against the pool's version counter before every estimate is
// the safety net — it flushes only on a mutation the cache did not witness.
//
// In front of candidate selection sits the estimate memo (card.Memo, as
// large as the cache): a probe whose memoized pass ran under the current
// model generation while its FROM clause was at the clause's current
// mutation stamp is answered with that pass's estimate before selection, so
// neither selection nor the Figure 8 loop runs; the recency stamping the
// selection would have done is replayed, so a bounded pool evicts the same
// victims. Every insert, eviction and cardinality change on the probe's FROM
// clause moves its stamp, and the next estimate misses. A mutation on
// another clause leaves the memo's answer valid. A probe that recurs across
// such a mutation also keeps its candidates' containment rates, by pool
// entry, from its second pass on: after a cardinality update or an eviction
// on its clause its next pass runs no rate model, and after an insert only
// the new entry's pairs. InvalidateRepresentations flushes cache and memo
// alike; estimates with and without them (WithRepCacheSize(0)) are
// bit-identical.
type CardinalityEstimator struct {
	est  *card.Estimator
	pool *QueriesPool
	coal *serve.Coalescer[Query, float64]

	// box is the model-generation indirection: the rate model and its
	// representation cache are read through one atomic pointer load per
	// estimation pass, so a promotion swaps both coherently under live
	// traffic. Nil for ImproveBaseline, whose wrapped model has no
	// set-module representations (the box's methods used here are
	// nil-safe).
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

// newEstimator is the one constructor body behind CardinalityEstimator,
// ImproveBaseline and OpenAdaptiveEstimator: est reads its rates through box
// when there is one, and the coalescer, the guards and the telemetry are
// wired from set once, before any traffic.
func newEstimator(est *card.Estimator, p *QueriesPool, box *online.ModelBox, set estimatorSettings) *CardinalityEstimator {
	e := &CardinalityEstimator{est: est, pool: p, box: box}
	if box != nil {
		est.Rates = box
		if set.cacheSize > 0 {
			est.Memo = card.NewMemo(set.cacheSize)
		}
	}
	if set.coalesceBatch >= 2 {
		// Shared batches run under the background context the coalescer
		// supplies, because the batch outlives any single caller; a solo
		// fast-path run receives its one caller's context. Every caller
		// revalidated the cache before joining, so the runner is the batch
		// pass itself.
		e.coal = serve.NewCoalescer(set.coalesceBatch, set.coalesceWait, Query.Key, est.EstimateCards)
	}
	e.gate = guard.NewGate(set.maxInflight)
	e.reqTimeout = set.reqTimeout
	e.wheel = guard.NewDeadlineWheel(set.reqTimeout)
	if set.breaker != nil {
		e.breaker = guard.NewBreaker(*set.breaker)
	}
	if t := set.tel; t != nil {
		// The subsystem telemetry fields are read without synchronization,
		// hence before any traffic.
		e.tel = t
		est.Tel = t
		e.coal.SetTelemetry(t.Stages.CoalesceWait, t.CoalesceBatch)
		if p != nil {
			p.SetTelemetry(t.TopKScanned, t.TopKPruned)
		}
		box.SetStages(t.Stages)
		e.registerCollectors()
	}
	return e
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
	r.GaugeFunc("crn_repcache_resident", "Representations in the zero-copy resident tier.",
		func() float64 { return float64(e.CacheStats().Resident) })
	r.CollectCounter("crn_estimate_memo_lookups_total",
		"Estimate-memo lookups by result: a hit is answered before candidate selection, a miss is counted only for a probe selection found a usable candidate.",
		"result", func(emit telemetry.Emit) {
			cs := e.CacheStats()
			emit(float64(cs.EstimateHits), "hit")
			emit(float64(cs.EstimateMisses), "miss")
		})
	r.GaugeFunc("crn_estimate_memo_entries", "Probes whose estimate is memoized.",
		func() float64 { return float64(e.CacheStats().EstimateEntries) })

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
			"Bounded top-K selections that ran, by serving path (signature-class index vs linear scan); a probe the estimate memo answers runs none.",
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
}

// finish closes out one request's telemetry: end-to-end latency (into the
// batch histogram when batch is set) and the outcome counter. fellBack
// marks answers diverted to the fallback estimator (breaker-open routing
// or the degraded-answer path); ErrOverloaded is the admission gate's shed.
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
	case err == guard.ErrOverloaded:
		e.tel.ReqShed.Inc()
	case err != nil:
		e.tel.ReqError.Inc()
	default:
		e.tel.ReqOK.Inc()
	}
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

// RepCacheStats reports representation-cache effectiveness (see
// CardinalityEstimator.CacheStats).
type RepCacheStats = icrn.RepCacheStats

// CoalescerStats reports request-coalescing effectiveness (see
// CardinalityEstimator.CoalescerStats).
type CoalescerStats = serve.Stats

// CardinalityEstimator builds the paper's Cnt2Crd(CRN) estimator from a
// trained containment model and a queries pool: generation 1 of a model
// box nobody promotes. Options tune the Figure 8 algorithm (WithFallback,
// WithMaxCandidates), the serving-side representation cache
// (WithRepCacheSize), coalescing, the guards and telemetry.
func (s *System) CardinalityEstimator(m *ContainmentModel, p *QueriesPool, opts ...EstimatorOption) *CardinalityEstimator {
	est := card.New(nil, p)
	set := newSettings(est, opts)
	e := newEstimator(est, p, online.NewModelBox(m.model, m.rates.Enc, set.cacheSize, p, 1), set)
	// Callers predating Close never call it; when such an estimator is
	// garbage collected, release its pool subscription so a discarded
	// estimator's cache is not notified of pool mutations forever. (Close
	// does this deterministically; a second Close is a no-op.)
	runtime.AddCleanup(e, (*online.ModelBox).Close, e.box)
	return e
}

// Close releases the estimator's pool subscription (the surgical cache
// invalidation hook). Estimators are usually process-lived; call Close when
// discarding one while its pool lives on.
func (e *CardinalityEstimator) Close() { e.box.Close() }

// ImproveBaseline wraps an existing cardinality model with the paper's §7
// construction — Cnt2Crd(Crd2Cnt(M)) over the pool — without changing M.
// Representation caching does not apply (the wrapped model has no
// set-module representations), so WithRepCacheSize is ignored and
// CacheStats reports zeros. WithCoalescing
// is honored: request micro-batching is model-agnostic.
func (s *System) ImproveBaseline(m BaselineEstimator, p *QueriesPool, opts ...EstimatorOption) *CardinalityEstimator {
	est := card.Improved(m, p)
	return newEstimator(est, p, nil, newSettings(est, opts))
}

// revalidate flushes the representation cache when the pool has mutated
// since the last estimate in a way the cache did not absorb surgically.
// A nil pool is left for the underlying estimator's configuration check to
// report as an error.
func (e *CardinalityEstimator) revalidate() {
	if e.pool != nil {
		e.box.Cache().Validate(e.pool.Version())
	}
}

// EstimateCardinality estimates |q| using the pool (Figure 8 algorithm).
// Queries without a usable pool match fail with an error wrapping
// ErrNoPoolMatch unless a fallback is configured.
//
// The call is EstimateCardinalityBatch over the batch {q}, through the same
// pipeline (see CardinalityEstimator), with two differences: its latency is
// recorded as a single estimate, and on a coalescing estimator
// (WithCoalescing) its learned pass is the coalescer, so it may share one
// batched pass with other concurrent callers — same results, bit for bit,
// at a fraction of the per-request cost. A shared batch fails as a whole,
// so on a coalesced error the query is transparently re-run alone and the
// caller sees its own error (or its own success when another query in the
// batch was the one that failed); a request that ran on the coalescer's
// solo fast path already ran alone, so its error is returned directly.
// Operational guards apply when configured: WithMaxInflight sheds the call
// with ErrOverloaded before any work happens, WithRequestTimeout bounds it
// with a deadline, and an open WithBreaker diverts it to the fallback
// estimator (ErrBreakerOpen without one).
func (e *CardinalityEstimator) EstimateCardinality(ctx context.Context, q Query) (float64, error) {
	qs, one := [1]Query{q}, [1]float64{}
	out, err := e.estimate(ctx, qs[:], one[:])
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// estimate is the one guarded pipeline, in the order CardinalityEstimator's
// doc comment states. one is a single call's result storage; nil marks a
// batch call.
func (e *CardinalityEstimator) estimate(ctx context.Context, qs []Query, one []float64) ([]float64, error) {
	batch := one == nil
	st := e.tel.StartTimer()
	if err := e.gate.Acquire(); err != nil {
		e.finish(st, batch, err, false)
		return nil, err
	}
	defer e.gate.Release()
	ctx, cancel := e.withTimeout(ctx)
	defer cancel()
	if e.tel != nil {
		st.Mark(e.tel.Stages.Admission)
	}
	allowed, probe := e.breaker.Allow()
	if !allowed {
		out, err := e.fallback(ctx, qs, one)
		e.finish(st, batch, err, true)
		return out, err
	}
	var start time.Time
	if e.breaker.TracksLatency() {
		start = time.Now()
	}
	e.revalidate()
	out, err := e.primary(ctx, qs, one)
	if e.breaker != nil {
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
			// degraded instead of erroring — the same routing an open
			// breaker applies, one request early.
			if fout, ferr := e.fallback(ctx, qs, one); ferr == nil {
				e.finish(st, batch, nil, true)
				return fout, nil
			}
		}
	}
	e.finish(st, batch, err, false)
	return out, err
}

// primary is the learned pass: the coalescer for a single call on a
// coalescing estimator, with the solo-error unwrap and the retry alone after
// a shared-batch failure; card.Estimator's batch pass otherwise.
func (e *CardinalityEstimator) primary(ctx context.Context, qs []Query, one []float64) ([]float64, error) {
	if one == nil || e.coal == nil {
		return e.est.EstimateCards(ctx, qs)
	}
	v, err := e.coal.Do(ctx, qs[0])
	if err == nil {
		one[0] = v
		return one, nil
	}
	var solo *serve.SoloError
	if errors.As(err, &solo) {
		return nil, solo.Err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return e.est.EstimateCards(ctx, qs)
}

// fallback answers every query from the fallback estimator through
// card.Estimator.FallbackCard — the breaker's divert target and the degraded
// answer — failing as a whole like the learned pass, and with
// ErrBreakerOpen when no fallback is configured. out, when non-nil, is the
// result storage.
func (e *CardinalityEstimator) fallback(ctx context.Context, qs []Query, out []float64) ([]float64, error) {
	if e.est.Fallback == nil {
		return nil, guard.ErrBreakerOpen
	}
	if out == nil {
		out = make([]float64, len(qs))
	}
	for i, q := range qs {
		v, err := e.est.FallbackCard(ctx, q)
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
	return e.estimate(ctx, queries, nil)
}

// InvalidateRepresentations explicitly discards every cached set-module
// representation and every memoized estimate. Pool mutations are detected
// automatically via the pool's version counter; call this after swapping the
// model or encoder underneath a long-lived estimator, or from a serving
// write path that wants the flush to happen eagerly rather than on the next
// estimate.
func (e *CardinalityEstimator) InvalidateRepresentations() {
	e.box.Cache().Invalidate()
	e.est.Memo.Flush()
}

// CacheStats reports representation-cache hits, misses and resident
// occupancy, and the estimate memo's lookups and entries. Estimators without
// a cache — ImproveBaseline always, CardinalityEstimator under
// WithRepCacheSize(0) — report all zeros (the nil cache's and nil memo's
// Stats are guarded no-ops, so this is safe to call unconditionally).
func (e *CardinalityEstimator) CacheStats() RepCacheStats {
	st := e.box.Cache().Stats()
	st.EstimateHits, st.EstimateMisses, st.EstimateEntries = e.est.Memo.Stats()
	return st
}

// CoalescerStats reports request-coalescing counters; all zeros for an
// estimator without WithCoalescing.
func (e *CardinalityEstimator) CoalescerStats() CoalescerStats {
	return e.coal.Stats()
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
