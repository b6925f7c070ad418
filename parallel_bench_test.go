package crn

// Benchmarks for the high-concurrency serving hot path: many goroutines
// each issuing single-query EstimateCardinality calls, the traffic shape of
// the §5.2 deployment under load. Run with
//
//	go test -bench EstimateCardinalityParallel -cpu 1,4 -benchtime 5x
//
// BenchmarkEstimateCardinalityParallel serves through the concurrent
// serving configuration (request coalescing on, pool-resident head
// precompute and the representation cache enabled by default);
// BenchmarkEstimateCardinalityParallelNoCoalesce measures the same traffic
// with coalescing disabled, isolating the precompute win.
// ns/op is per single-query request, so baseline/new is the per-request
// throughput ratio.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// parallelBenchLoop drives est with single-query calls from pb, spreading
// workers across the workload so concurrent requests are mostly distinct
// queries (the hard case: coalescing may not dedup them away).
func parallelBenchLoop(b *testing.B, pb *testing.PB, est *CardinalityEstimator, queries []Query, next *atomic.Int64) {
	ctx := context.Background()
	for pb.Next() {
		q := queries[int(next.Add(1))%len(queries)]
		if _, err := est.EstimateCardinality(ctx, q); err != nil {
			b.Error(err)
			return
		}
	}
}

// BenchmarkEstimateCardinalityParallel is the concurrent serving
// configuration: single-query requests from 4×GOMAXPROCS goroutines over
// the coalescing estimator.
func BenchmarkEstimateCardinalityParallel(b *testing.B) {
	est, queries := parallelBenchEnv(b)
	var next atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		parallelBenchLoop(b, pb, est, queries, &next)
	})
}

// BenchmarkEstimateCardinalityParallelNoCoalesce is the same traffic served
// without request coalescing — every request runs its own estimate.
func BenchmarkEstimateCardinalityParallelNoCoalesce(b *testing.B) {
	est, queries := batchBenchEnv(b)
	var next atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		parallelBenchLoop(b, pb, est, queries, &next)
	})
}

// BenchmarkEstimateCardinalitySoloCoalesced measures an UNcontended
// coalescing estimator: one request at a time, serially — the traffic shape
// where coalescing used to cost pure overhead (6.9µs uncoalesced vs 8.3µs
// coalesced at -cpu 1 before the solo fast path). The solo fast path must serve every one of
// these calls without batching machinery; the post-run assertion is the
// regression gate.
func BenchmarkEstimateCardinalitySoloCoalesced(b *testing.B) {
	est, queries := parallelBenchEnv(b)
	ctx := context.Background()
	before := est.CoalescerStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateCardinality(ctx, queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := est.CoalescerStats()
	if solo := after.Solo - before.Solo; solo < uint64(b.N) {
		b.Fatalf("solo fast path served %d of %d serial requests; the bypass regressed", solo, b.N)
	}
}

// BenchmarkEstimateCardinalityGuarded is BenchmarkEstimateCardinalityParallel
// with the full operational-guard stack armed — admission gate, per-request
// deadline, circuit breaker — on healthy traffic. The delta against the
// unguarded parallel benchmark is the guard overhead on the happy path,
// pinned at <= 5% in CI; the post-run assertions prove the guards
// stayed out of the way (nothing shed, breaker closed) so the measurement
// really is overhead, not divergence onto the fallback path.
func BenchmarkEstimateCardinalityGuarded(b *testing.B) {
	est, queries := guardedBenchEnv(b)
	var next atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		parallelBenchLoop(b, pb, est, queries, &next)
	})
	b.StopTimer()
	gs := est.GuardStats()
	if gs.Gate.Shed != 0 {
		b.Fatalf("guarded benchmark shed %d requests; raise the ceiling, this must measure the happy path", gs.Gate.Shed)
	}
	if gs.Breaker.State != "closed" || gs.Breaker.Trips != 0 {
		b.Fatalf("breaker left closed state on healthy traffic: %+v", gs.Breaker)
	}
}

// guardedBenchEnv is parallelBenchEnv plus the operational guards at
// serving-realistic settings: a ceiling far above the benchmark's
// concurrency, a deadline far above any single estimate, and a
// default-configured breaker.
func guardedBenchEnv(b *testing.B) (*CardinalityEstimator, []Query) {
	b.Helper()
	batchBenchEnv(b)
	guardedOnce.Do(func() {
		base, err := batchSys.AnalyzeBaseline()
		if err != nil {
			guardedErr = err
			return
		}
		guardedEst = batchSys.CardinalityEstimator(batchModel, batchPool,
			WithFallback(base), WithCoalescing(64, 0),
			WithMaxInflight(4096), WithRequestTimeout(time.Second),
			WithBreaker(BreakerConfig{}))
		ctx := context.Background()
		for i := 0; i < 2; i++ {
			if _, err := guardedEst.EstimateCardinalityBatch(ctx, batchQueries); err != nil {
				guardedErr = err
				return
			}
		}
	})
	if guardedErr != nil {
		b.Fatal(guardedErr)
	}
	return guardedEst, batchQueries
}

var (
	guardedOnce sync.Once
	guardedEst  *CardinalityEstimator
	guardedErr  error
)

// parallelBenchEnv returns the concurrent serving configuration: the same
// trained system and pool as batchBenchEnv, but with request coalescing on
// (as cmd/crnserve configures by default). Precompute and sharding are
// always on — they are properties of the default serving cache.
func parallelBenchEnv(b *testing.B) (*CardinalityEstimator, []Query) {
	b.Helper()
	batchBenchEnv(b) // builds the shared system, pool, and workload
	coalescedOnce.Do(func() {
		base, err := batchSys.AnalyzeBaseline()
		if err != nil {
			coalescedErr = err
			return
		}
		coalescedEst = batchSys.CardinalityEstimator(batchModel, batchPool,
			WithFallback(base), WithCoalescing(64, 0))
		// Warm the serving cache to steady state (entries promoted to the
		// resident tier on their second sighting).
		ctx := context.Background()
		for i := 0; i < 2; i++ {
			if _, err := coalescedEst.EstimateCardinalityBatch(ctx, batchQueries); err != nil {
				coalescedErr = err
				return
			}
		}
	})
	if coalescedErr != nil {
		b.Fatal(coalescedErr)
	}
	return coalescedEst, batchQueries
}

var (
	coalescedOnce sync.Once
	coalescedEst  *CardinalityEstimator
	coalescedErr  error
)

// BenchmarkEstimateCardinalityTelemetry is BenchmarkEstimateCardinalityParallel
// with the full telemetry bundle armed — per-request stage timing, outcome
// counters, latency histograms, accuracy ring. The delta against the
// uninstrumented parallel benchmark is the telemetry overhead on the hot
// path, pinned at <= 3% in CI.
func BenchmarkEstimateCardinalityTelemetry(b *testing.B) {
	est, queries := telemetryBenchEnv(b)
	var next atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		parallelBenchLoop(b, pb, est, queries, &next)
	})
	b.StopTimer()
	if n := telemetryBench.E2E.Snapshot().Total(); n == 0 {
		b.Fatal("telemetry recorded nothing; the benchmark measured the uninstrumented path")
	}
}

// telemetryBenchEnv is parallelBenchEnv's configuration plus WithTelemetry.
func telemetryBenchEnv(b *testing.B) (*CardinalityEstimator, []Query) {
	b.Helper()
	batchBenchEnv(b)
	telemetryOnce.Do(func() {
		base, err := batchSys.AnalyzeBaseline()
		if err != nil {
			telemetryErr = err
			return
		}
		telemetryBench = NewTelemetry()
		telemetryEst = batchSys.CardinalityEstimator(batchModel, batchPool,
			WithFallback(base), WithCoalescing(64, 0), WithTelemetry(telemetryBench))
		ctx := context.Background()
		for i := 0; i < 2; i++ {
			if _, err := telemetryEst.EstimateCardinalityBatch(ctx, batchQueries); err != nil {
				telemetryErr = err
				return
			}
		}
	})
	if telemetryErr != nil {
		b.Fatal(telemetryErr)
	}
	return telemetryEst, batchQueries
}

var (
	telemetryOnce  sync.Once
	telemetryEst   *CardinalityEstimator
	telemetryBench *Telemetry
	telemetryErr   error
)
