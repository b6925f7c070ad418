package crn

// Benchmarks for the serving hot path: EstimateCardinalityBatch against a
// loop of single EstimateCardinality calls on the same 64-query workload.
// The batch call encodes each distinct query once, pushes the recurring
// pool entries through the CRN set modules once per call instead of once
// per probe, and runs the pair head matrix-batched — the amortization that
// pays for batched serving. Compare with:
//
//	go test -bench 'Cardinality(Batch|SingleLoop)64' -benchtime 5x
//
// ns/op covers the whole 64-query workload in both benchmarks, so the
// ratio of the two numbers is the batch speedup.

import (
	"context"
	"sync"
	"testing"

	"crn/internal/workload"
)

const batchBenchQueries = 64

var (
	batchOnce    sync.Once
	batchEst     *CardinalityEstimator
	batchQueries []Query
	batchErr     error

	// Shared with parallel_bench_test.go, which builds the coalescing
	// serving configuration over the same trained system and pool.
	batchSys   *System
	batchModel *ContainmentModel
	batchPool  *QueriesPool
)

func batchBenchEnv(b *testing.B) (*CardinalityEstimator, []Query) {
	b.Helper()
	batchOnce.Do(func() {
		ctx := context.Background()
		sys, err := OpenSynthetic(ctx, WithTitles(800), WithDataSeed(7))
		if err != nil {
			batchErr = err
			return
		}
		mcfg := DefaultModelConfig()
		mcfg.Hidden = 16
		mcfg.Epochs = 4
		mcfg.Patience = 2
		model, err := sys.TrainContainmentModel(ctx,
			WithPairs(500), WithSeed(3), WithModelConfig(mcfg))
		if err != nil {
			batchErr = err
			return
		}
		p := sys.NewQueriesPool()
		if err := sys.SeedPool(ctx, p, 120, 11); err != nil {
			batchErr = err
			return
		}
		base, err := sys.AnalyzeBaseline()
		if err != nil {
			batchErr = err
			return
		}
		batchEst = sys.CardinalityEstimator(model, p, WithFallback(base))
		batchSys, batchModel, batchPool = sys, model, p

		// A mixed 0-2 join workload, the distribution the pool covers.
		gen := workload.NewGenerator(sys.Schema(), sys.DB(), 17)
		qs, err := gen.Queries(map[int]int{0: 22, 1: 21, 2: 21})
		if err != nil {
			batchErr = err
			return
		}
		batchQueries = qs[:batchBenchQueries]

		// One warm-up pass so both benchmarks measure steady-state serving
		// (executor memoization populated, allocator warmed).
		if _, err := batchEst.EstimateCardinalityBatch(ctx, batchQueries); err != nil {
			batchErr = err
		}
	})
	if batchErr != nil {
		b.Fatal(batchErr)
	}
	return batchEst, batchQueries
}

// BenchmarkEstimateCardinalityBatch64 estimates 64 queries per iteration
// with one batched call.
func BenchmarkEstimateCardinalityBatch64(b *testing.B) {
	est, queries := batchBenchEnv(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateCardinalityBatch(ctx, queries); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(queries)), "queries/op")
}

// BenchmarkEstimateCardinalitySingleLoop64 estimates the same 64 queries
// per iteration with one call each — the pre-batch serving pattern.
func BenchmarkEstimateCardinalitySingleLoop64(b *testing.B) {
	est, queries := batchBenchEnv(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := est.EstimateCardinality(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(queries)), "queries/op")
}
