package crn

// Benchmarks for the online-adaptation acceptance point: single-query
// estimate throughput with the background trainer idle vs. actively
// retraining and hot-swapping model generations. Run with
//
//	go test -bench EstimateCardinalityTrainer -cpu 4 -benchtime 2s
//
// ns/op is per single-query request on the concurrent serving
// configuration (coalescing on); the active/idle ratio is the cost of
// running the adaptation loop under live traffic. The PR 5 acceptance
// criterion is active within 10% of idle: estimates never block on
// retraining (the trainer works on a clone and publishes by one atomic
// store), so the remaining gap is only CPU contention with the background
// labeling and training work.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// adaptBenchEnv builds an adaptive estimator over the shared benchmark
// system: a capacity-bounded pool (so sustained feedback exercises
// eviction and surgical cache invalidation) and a pre-labeled feedback
// stream the active benchmark can push without executing queries on the
// clock.
func adaptBenchEnv(b *testing.B) (*AdaptiveEstimator, []Query, []struct {
	Q    Query
	Card int64
}) {
	b.Helper()
	batchBenchEnv(b) // builds the shared system, model, workload
	adaptOnce.Do(func() {
		ctx := context.Background()
		for i := 0; i < 360; i++ {
			sql := fmt.Sprintf(
				"SELECT * FROM title WHERE title.production_year > %d AND title.kind_id < %d",
				1900+(i*3)%100, 2+i%6)
			q, err := batchSys.ParseQuery(sql)
			if err != nil {
				adaptErr = err
				return
			}
			card, err := batchSys.TrueCardinality(ctx, q)
			if err != nil {
				adaptErr = err
				return
			}
			adaptFeedback = append(adaptFeedback, struct {
				Q    Query
				Card int64
			}{q, card})
		}
	})
	if adaptErr != nil {
		b.Fatal(adaptErr)
	}
	ctx := context.Background()
	pool := batchSys.NewQueriesPool(WithPoolCap(256))
	if err := batchSys.SeedPool(ctx, pool, 120, 11); err != nil {
		b.Fatal(err)
	}
	base, err := batchSys.AnalyzeBaseline()
	if err != nil {
		b.Fatal(err)
	}
	ae := openAdaptive(b, batchSys, batchModel, pool,
		WithFallback(base),
		WithCoalescing(64, 0),
		WithRetrainInterval(-1), // the active benchmark drives cycles itself
		WithRetrainEpochs(2),
		WithFeedbackPairs(2),
		WithPromoteTolerance(100), // promote every cycle: maximize hot-swaps
	)
	b.Cleanup(ae.Close)
	// Warm the serving cache to steady state.
	for i := 0; i < 2; i++ {
		if _, err := ae.EstimateCardinalityBatch(ctx, batchQueries); err != nil {
			b.Fatal(err)
		}
	}
	return ae, batchQueries, adaptFeedback
}

var (
	adaptOnce     sync.Once
	adaptErr      error
	adaptFeedback []struct {
		Q    Query
		Card int64
	}
)

// BenchmarkEstimateCardinalityTrainerIdle is the baseline: the adaptation
// loop is attached but quiescent (nothing staged, no retrains).
func BenchmarkEstimateCardinalityTrainerIdle(b *testing.B) {
	ae, queries, _ := adaptBenchEnv(b)
	var next atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		parallelBenchLoop(b, pb, ae.CardinalityEstimator, queries, &next)
	})
}

// BenchmarkEstimateCardinalityTrainerActive measures the same traffic
// while a background goroutine stages feedback and runs retrain cycles —
// labeling, incremental training, promotion, pool growth with LRU
// eviction, pre-warmed cache hot-swap — at a one-cycle-per-second cadence
// (aggressive for production, where retrains run on the order of tens of
// seconds to minutes). Unpaced back-to-back retraining is excluded on
// purpose: tens of generation swaps per second measure a permanently cold
// serving stack, not trainer interference.
func BenchmarkEstimateCardinalityTrainerActive(b *testing.B) {
	ae, queries, feedback := adaptBenchEnv(b)
	ctx := context.Background()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		next := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			for k := 0; k < 4; k++ {
				lq := feedback[next%len(feedback)]
				next++
				if _, err := ae.RecordFeedbackQuery(ctx, lq.Q, lq.Card); err != nil {
					b.Error(err)
					return
				}
			}
			if _, err := ae.Retrain(ctx); err != nil {
				b.Error(err)
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Second):
			}
		}
	}()
	// Let the first retrain cycle spin up so the measurement starts under
	// genuine trainer load.
	time.Sleep(10 * time.Millisecond)

	var next atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		parallelBenchLoop(b, pb, ae.CardinalityEstimator, queries, &next)
	})
	b.StopTimer()
	close(stop)
	<-done
	st := ae.AdaptationStats()
	b.ReportMetric(float64(st.Trainer.Promotions), "promotions")
	if st.Trainer.Retrains == 0 {
		b.Fatal("trainer never retrained during the active benchmark")
	}
}
