package crn

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHotSwapUnderLoad is the hot-swap race gate (run under -race in CI):
// estimate traffic hammers the adaptive estimator — through the coalesced
// shared-batch path and through the solo fast path — while the trainer
// concurrently retrains and promotes model generations. It asserts that no
// estimate ever errors or returns a non-finite value (a torn model read
// would), that the observed generation is monotonic per goroutine, that
// promotions really happened mid-load, and that the per-generation cache
// stays coherent: after quiescence, cached answers are bit-identical to
// answers recomputed with a flushed cache on the same generation.
func TestHotSwapUnderLoad(t *testing.T) {
	for _, tc := range []struct {
		name    string
		readers int
		opts    []EstimatorOption
	}{
		// Many concurrent readers over a coalescing estimator: shared
		// batched passes race the promotions.
		{"coalesced", 4, []EstimatorOption{WithCoalescing(8, 0)}},
		// One serial reader over the same coalescing configuration: every
		// request takes the coalescer's solo fast path.
		{"solo", 1, []EstimatorOption{WithCoalescing(8, 0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			sys, model, p := adaptFixture(t)
			ae := openAdaptive(t, sys, model, p, append(tc.opts,
				WithRetrainInterval(-1), // promotions driven by this test
				WithRetrainEpochs(1),
				WithFeedbackPairs(2),
				WithPromoteTolerance(100), // promote every cycle: maximize swaps
			)...)
			defer ae.Close()

			probes := make([]Query, 0, 8)
			for i := 0; i < 8; i++ {
				q, err := sys.ParseQuery(fmt.Sprintf(
					"SELECT * FROM title WHERE title.production_year > %d", 1940+7*i))
				if err != nil {
					t.Fatal(err)
				}
				probes = append(probes, q)
			}
			// Pre-label the feedback stream so the promoter loop spends its
			// time retraining, not executing queries.
			feedback := driftedWorkload(t, sys, 2, 24)

			var stop atomic.Bool
			var served atomic.Int64
			var wg sync.WaitGroup
			errs := make(chan error, tc.readers+1)
			for g := 0; g < tc.readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					lastGen := uint64(0)
					for i := 0; !stop.Load(); i++ {
						gen := ae.ModelGeneration()
						if gen < lastGen {
							errs <- fmt.Errorf("generation went backwards: %d -> %d", lastGen, gen)
							return
						}
						lastGen = gen
						v, err := ae.EstimateCardinality(ctx, probes[(g+i)%len(probes)])
						if err != nil {
							errs <- fmt.Errorf("estimate under promotion: %w", err)
							return
						}
						if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
							errs <- fmt.Errorf("torn estimate: %v", v)
							return
						}
						served.Add(1)
					}
				}(g)
			}

			// Promoter: stream feedback and retrain until at least three
			// generations were promoted under live traffic. Every cycle
			// first waits for fresh estimate traffic, so each promotion
			// really races in-flight estimates (tiny retrains would
			// otherwise finish before the readers get going).
			const wantPromotions = 3
			go func() {
				defer stop.Store(true)
				next := 0
				for ae.AdaptationStats().Trainer.Promotions < wantPromotions {
					for waitFor := served.Load() + int64(tc.readers); served.Load() < waitFor; {
					}
					for k := 0; k < 4 && next < len(feedback); k++ {
						lq := feedback[next]
						next++
						if _, err := ae.RecordFeedbackQuery(ctx, lq.Q, lq.Card); err != nil {
							errs <- fmt.Errorf("feedback: %w", err)
							return
						}
					}
					if _, err := ae.Retrain(ctx); err != nil {
						errs <- fmt.Errorf("retrain: %w", err)
						return
					}
					if next >= len(feedback) {
						errs <- fmt.Errorf("feedback exhausted before %d promotions: %+v",
							wantPromotions, ae.AdaptationStats().Trainer)
						return
					}
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			st := ae.AdaptationStats()
			if st.Trainer.Promotions < wantPromotions {
				t.Fatalf("want >= %d promotions under load, got %+v", wantPromotions, st.Trainer)
			}
			if got := ae.ModelGeneration(); got != st.Trainer.Promotions+1 {
				t.Fatalf("generation %d != promotions %d + 1", got, st.Trainer.Promotions)
			}
			if served.Load() == 0 {
				t.Fatal("no estimates served during promotions")
			}

			// Cache coherence after promotion: warmed answers on the final
			// generation must be bit-identical to answers recomputed after an
			// explicit flush, and batch must equal single.
			warm := make([]float64, len(probes))
			for i, q := range probes {
				v, err := ae.EstimateCardinality(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				warm[i] = v
			}
			batch, err := ae.EstimateCardinalityBatch(ctx, probes)
			if err != nil {
				t.Fatal(err)
			}
			ae.InvalidateRepresentations()
			for i, q := range probes {
				v, err := ae.EstimateCardinality(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if v != warm[i] {
					t.Fatalf("probe %d: cached %v != recomputed %v after promotion", i, warm[i], v)
				}
				if batch[i] != warm[i] {
					t.Fatalf("probe %d: batch %v != single %v", i, batch[i], warm[i])
				}
			}
		})
	}
}
