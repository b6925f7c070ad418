package crn

// Gates for the one estimate pipeline: a single estimate is a batch of one
// through the same guarded body, and a frozen estimator is generation 1 of
// the same model handle an adaptive one serves through.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"crn/internal/guard/failpoint"
	"crn/internal/telemetry"
)

// pipelineObs is everything one estimate call can move outside its answer.
type pipelineObs struct {
	guard                       GuardStats
	ok, fallback, errored, shed uint64
	single, batch               uint64 // E2E and BatchE2E observation counts
}

func observe(e *CardinalityEstimator) pipelineObs {
	count := func(h *telemetry.Histogram) (n uint64) {
		for _, c := range h.Snapshot().Counts {
			n += c
		}
		return n
	}
	t := e.tel
	return pipelineObs{
		guard: e.GuardStats(),
		ok:    t.ReqOK.Load(), fallback: t.ReqFallback.Load(),
		errored: t.ReqError.Load(), shed: t.ReqShed.Load(),
		single: count(t.E2E), batch: count(t.BatchE2E),
	}
}

// TestSingleIsBatchOfOne runs one query through EstimateCardinality(q) and
// EstimateCardinalityBatch([q]) on twin estimators, guard state by guard
// state, with and without coalescing: the two calls must give the same
// bits or the same error, move the gate, the breaker and the outcome
// counters alike, and differ only in which latency histogram they land in.
func TestSingleIsBatchOfOne(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	sys, model, p, base := guardFixture(t)
	probe, err := sys.ParseQuery("SELECT * FROM title WHERE title.production_year > 1950")
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected estimate-path failure")
	// MinSamples above what one case records: no case trips the breaker by
	// its own outcome.
	closed := BreakerConfig{Window: 16, MinSamples: 16, Cooldown: time.Hour, ProbeQuota: 2}
	quick := closed
	quick.Cooldown = time.Millisecond
	trip := func(e *CardinalityEstimator) func() { e.breaker.Trip(); return func() {} }
	failing := func(*CardinalityEstimator) func() {
		failpoint.EnableError(failpoint.EstimateCards, injected)
		return func() { failpoint.Disable(failpoint.EstimateCards) }
	}

	cases := []struct {
		name    string
		opts    []EstimatorOption
		expired bool                                 // call under an already expired deadline
		arm     func(e *CardinalityEstimator) func() // state before the call; returns its undo
		want    error                                // errors.Is target; nil: an answer
		outcome func(o pipelineObs) uint64           // the outcome counter that must move
	}{
		{name: "no guards", opts: []EstimatorOption{WithFallback(base)},
			outcome: func(o pipelineObs) uint64 { return o.ok }},
		{name: "full gate", opts: []EstimatorOption{WithFallback(base), WithMaxInflight(1)},
			arm: func(e *CardinalityEstimator) func() {
				if err := e.gate.Acquire(); err != nil {
					t.Fatal(err)
				}
				return e.gate.Release
			},
			want: ErrOverloaded, outcome: func(o pipelineObs) uint64 { return o.shed }},
		{name: "expired deadline", opts: []EstimatorOption{WithFallback(base), WithRequestTimeout(time.Second)},
			expired: true, want: context.DeadlineExceeded,
			outcome: func(o pipelineObs) uint64 { return o.errored }},
		{name: "breaker closed", opts: []EstimatorOption{WithFallback(base), WithBreaker(closed)},
			outcome: func(o pipelineObs) uint64 { return o.ok }},
		{name: "breaker open with fallback", opts: []EstimatorOption{WithFallback(base), WithBreaker(closed)},
			arm: trip, outcome: func(o pipelineObs) uint64 { return o.fallback }},
		{name: "breaker open without fallback", opts: []EstimatorOption{WithBreaker(closed)},
			arm: trip, want: ErrBreakerOpen, outcome: func(o pipelineObs) uint64 { return o.errored }},
		{name: "half-open probe", opts: []EstimatorOption{WithFallback(base), WithBreaker(quick)},
			arm: func(e *CardinalityEstimator) func() {
				e.breaker.Trip()
				time.Sleep(10 * time.Millisecond)
				return func() {}
			},
			outcome: func(o pipelineObs) uint64 { return o.ok }},
		{name: "countable failure with fallback", opts: []EstimatorOption{WithFallback(base), WithBreaker(closed)},
			arm: failing, outcome: func(o pipelineObs) uint64 { return o.fallback }},
		{name: "countable failure without fallback", opts: []EstimatorOption{WithBreaker(closed)},
			arm: failing, want: injected, outcome: func(o pipelineObs) uint64 { return o.errored }},
	}
	for _, coalesce := range []bool{false, true} {
		for _, c := range cases {
			name := fmt.Sprintf("%s/coalesce=%v", c.name, coalesce)
			build := func() *CardinalityEstimator {
				opts := append([]EstimatorOption{WithTelemetry(NewTelemetry())}, c.opts...)
				if coalesce {
					opts = append(opts, WithCoalescing(16, 0))
				}
				return sys.CardinalityEstimator(model, p, opts...)
			}
			single, batch := build(), build()
			call := func(e *CardinalityEstimator, run func(ctx context.Context) (float64, error)) (float64, error, pipelineObs, pipelineObs) {
				before := observe(e)
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if c.expired {
					ctx, cancel = context.WithDeadline(ctx, time.Now().Add(-time.Second))
				}
				defer cancel()
				if c.arm != nil {
					defer c.arm(e)()
				}
				v, err := run(ctx)
				return v, err, before, observe(e)
			}
			sv, serr, sBefore, sAfter := call(single, func(ctx context.Context) (float64, error) {
				return single.EstimateCardinality(ctx, probe)
			})
			bv, berr, bBefore, bAfter := call(batch, func(ctx context.Context) (float64, error) {
				out, err := batch.EstimateCardinalityBatch(ctx, []Query{probe})
				if err != nil {
					return 0, err
				}
				return out[0], nil
			})

			switch {
			case c.want == nil && (serr != nil || berr != nil):
				t.Errorf("%s: single %v, batch %v; want answers", name, serr, berr)
			case c.want != nil && (!errors.Is(serr, c.want) || !errors.Is(berr, c.want)):
				t.Errorf("%s: single %v, batch %v; want both %v", name, serr, berr, c.want)
			case math.Float64bits(sv) != math.Float64bits(bv):
				t.Errorf("%s: single %v, batch %v: not the same bits", name, sv, bv)
			}
			if sBefore.guard != bBefore.guard || sAfter.guard != bAfter.guard {
				t.Errorf("%s: guard stats moved differently:\n single %+v -> %+v\n batch  %+v -> %+v",
					name, sBefore.guard, sAfter.guard, bBefore.guard, bAfter.guard)
			}
			for _, d := range []struct {
				what          string
				single, batch uint64
			}{
				{"ok", sAfter.ok - sBefore.ok, bAfter.ok - bBefore.ok},
				{"fallback", sAfter.fallback - sBefore.fallback, bAfter.fallback - bBefore.fallback},
				{"error", sAfter.errored - sBefore.errored, bAfter.errored - bBefore.errored},
				{"shed", sAfter.shed - sBefore.shed, bAfter.shed - bBefore.shed},
			} {
				if d.single != d.batch {
					t.Errorf("%s: %s outcomes +%d single, +%d batch", name, d.what, d.single, d.batch)
				}
			}
			if got := c.outcome(sAfter) - c.outcome(sBefore); got != 1 {
				t.Errorf("%s: the case's outcome counter moved by %d, want 1", name, got)
			}
			if sAfter.single-sBefore.single != 1 || sAfter.batch != sBefore.batch {
				t.Errorf("%s: single call observed E2E +%d, BatchE2E +%d; want +1, +0",
					name, sAfter.single-sBefore.single, sAfter.batch-sBefore.batch)
			}
			if bAfter.batch-bBefore.batch != 1 || bAfter.single != bBefore.single {
				t.Errorf("%s: batch call observed E2E +%d, BatchE2E +%d; want +0, +1",
					name, bAfter.single-bBefore.single, bAfter.batch-bBefore.batch)
			}
		}
	}
}

// TestFrozenIsGenerationOne: a CardinalityEstimator and an adaptive
// estimator nobody retrains, over one model and one capped pool, answer bit
// for bit alike — single and batch — and their caches count the same hits
// and misses, while /record-style adds grow the pool and evict at its cap.
func TestFrozenIsGenerationOne(t *testing.T) {
	ctx := context.Background()
	sys, model, _, _ := repCacheFixture(t)
	for _, extra := range [][]EstimatorOption{nil, {WithRepCacheSize(0)}} {
		name := fmt.Sprintf("cache=%v", extra == nil)
		const capacity = 16
		p := sys.NewQueriesPool(WithPoolCap(capacity))
		// No pooled query equals a probe, which would answer it exactly with
		// no rate pass: every estimate reaches the cache.
		for i := 0; i < capacity; i++ {
			recordSQL(t, sys, p, fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1901+5*i))
		}
		frozen := sys.CardinalityEstimator(model, p, extra...)
		defer frozen.Close()
		adaptive, err := sys.OpenAdaptiveEstimator(model, p, append([]EstimatorOption{WithRetrainInterval(-1)}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer adaptive.Close()
		probes := memoProbes(t, sys)

		for round := 0; round < 6; round++ {
			for pass := 0; pass < 3; pass++ { // cold, promoted, resident
				for _, q := range probes {
					f, ferr := frozen.EstimateCardinality(ctx, q)
					a, aerr := adaptive.EstimateCardinality(ctx, q)
					if ferr != nil || aerr != nil || math.Float64bits(f) != math.Float64bits(a) {
						t.Fatalf("%s round %d: single frozen %v (%v), adaptive %v (%v)", name, round, f, ferr, a, aerr)
					}
				}
				fb, ferr := frozen.EstimateCardinalityBatch(ctx, probes)
				ab, aerr := adaptive.EstimateCardinalityBatch(ctx, probes)
				if ferr != nil || aerr != nil {
					t.Fatalf("%s round %d: batch errors %v, %v", name, round, ferr, aerr)
				}
				for i := range fb {
					if math.Float64bits(fb[i]) != math.Float64bits(ab[i]) {
						t.Fatalf("%s round %d: batch[%d] frozen %v, adaptive %v", name, round, i, fb[i], ab[i])
					}
				}
			}
			if fs, as := frozen.CacheStats(), adaptive.CacheStats(); fs.Hits != as.Hits || fs.Misses != as.Misses {
				t.Fatalf("%s round %d: cache stats frozen %+v, adaptive %+v", name, round, fs, as)
			}
			recordSQL(t, sys, p, fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1903+5*round))
		}
		if st := p.Stats(); st.Evictions == 0 {
			t.Fatalf("%s: the capped pool never evicted: %+v", name, st)
		}
		if fs := frozen.CacheStats(); extra == nil && fs.Hits == 0 {
			t.Fatalf("%s: the cache never hit: %+v", name, fs)
		}
		if g := adaptive.ModelGeneration(); g != 1 {
			t.Fatalf("%s: generation %d, want 1", name, g)
		}
	}
}
