package crn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"crn/internal/guard/failpoint"
)

// repCacheFixture builds a trained system with a seeded pool and returns it
// together with a probe query the pool covers.
func repCacheFixture(t *testing.T) (*System, *ContainmentModel, *QueriesPool, Query) {
	t.Helper()
	ctx := context.Background()
	sys := testSystem(t)
	model, err := sys.TrainContainmentModel(ctx, tinyTrainOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	p := sys.NewQueriesPool()
	if err := sys.SeedPool(ctx, p, 40, 11); err != nil {
		t.Fatal(err)
	}
	probe, err := sys.ParseQuery("SELECT * FROM title WHERE title.production_year > 1960")
	if err != nil {
		t.Fatal(err)
	}
	return sys, model, p, probe
}

// cardBumper returns a function that raises the cardinality of one pooled
// entry on q's FROM clause by one per call, without allocating. Each call
// moves the clause's stamp, so the estimate memo cannot answer q's next
// estimate, while the representation cache keeps every row and the memo
// every rate it kept for q (neither depends on a cardinality): tests reach
// the state of a probe recurring across mutations by calling it between
// estimates.
func cardBumper(t testing.TB, p *QueriesPool, q Query) func() {
	t.Helper()
	for _, e := range p.Entries() {
		if e.Q.FROMKey() == q.FROMKey() && e.Card > 0 {
			c := e.Card
			return func() {
				c++
				if !p.UpdateCard(e.Q, c) {
					t.Fatalf("UpdateCard(%s, %d) changed nothing", e.Q.Key(), c)
				}
			}
		}
	}
	t.Fatalf("no usable pooled entry on FROM %s", q.FROMKey())
	return nil
}

// TestRepCacheEquivalence pins cached estimation — cold, warm, batch and
// single — to the uncached estimator bit-for-bit. A cardinality update
// between the passes keeps the estimate memo from answering them, so they
// reach the cache; the last repeat, with no update, is the memo's.
func TestRepCacheEquivalence(t *testing.T) {
	ctx := context.Background()
	sys, model, p, probe := repCacheFixture(t)

	cached := sys.CardinalityEstimator(model, p)
	uncached := sys.CardinalityEstimator(model, p, WithRepCacheSize(0))
	bump := cardBumper(t, p, probe)

	var want float64
	for _, label := range []string{"cold", "warm"} {
		var err error
		if want, err = uncached.EstimateCardinality(ctx, probe); err != nil {
			t.Fatal(err)
		}
		got, err := cached.EstimateCardinality(ctx, probe)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s cached estimate %v != uncached %v", label, got, want)
		}
		bump()
	}
	want, err := uncached.EstimateCardinality(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := cached.EstimateCardinalityBatch(ctx, []Query{probe, probe})
	if err != nil {
		t.Fatal(err)
	}
	if batch[0] != want || batch[1] != want {
		t.Fatalf("cached batch %v != uncached single %v", batch, want)
	}
	st := cached.CacheStats()
	if st.Hits == 0 {
		t.Errorf("warm estimates should hit the cache: %+v", st)
	}
	if got, err := cached.EstimateCardinality(ctx, probe); err != nil || got != want {
		t.Fatalf("memoized repeat %v (%v) != uncached %v", got, err, want)
	}
	if st := cached.CacheStats(); st.EstimateHits == 0 {
		t.Errorf("an unchanged repeat should be the estimate memo's: %+v", st)
	}
	if us := uncached.CacheStats(); us != (RepCacheStats{}) {
		t.Errorf("uncached estimator reports cache stats %+v", us)
	}
}

// TestRepCacheInvalidationOnPoolMutation is the facade-level cache
// correctness gate: after the pool gains an entry, the cached estimator's
// answers must equal a fresh, uncached estimator over the mutated pool —
// i.e. the new pool entry is reflected, no stale representation survives.
func TestRepCacheInvalidationOnPoolMutation(t *testing.T) {
	ctx := context.Background()
	sys, model, p, probe := repCacheFixture(t)
	cached := sys.CardinalityEstimator(model, p)

	before, err := cached.EstimateCardinality(ctx, probe) // warm the cache
	if err != nil {
		t.Fatal(err)
	}

	// Mutate the pool: record a query on the probe's FROM clause.
	extra, err := sys.ParseQuery("SELECT * FROM title WHERE title.production_year > 1955")
	if err != nil {
		t.Fatal(err)
	}
	if _, added, err := sys.RecordExecuted(ctx, p, extra); err != nil || !added {
		t.Fatalf("record: added=%v err=%v", added, err)
	}

	after, err := cached.EstimateCardinality(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	fresh := sys.CardinalityEstimator(model, p, WithRepCacheSize(0))
	want, err := fresh.EstimateCardinality(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if after != want {
		t.Fatalf("post-mutation cached estimate %v != fresh estimate %v (stale cache?)", after, want)
	}
	// The new entry participates: the estimate is allowed to move, and the
	// explicit invalidation hook must also leave answers correct.
	_ = before
	cached.InvalidateRepresentations()
	again, err := cached.EstimateCardinality(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if again != want {
		t.Fatalf("post-invalidate estimate %v != fresh %v", again, want)
	}
}

// TestRepCacheSizeOption bounds the cache via the option.
func TestRepCacheSizeOption(t *testing.T) {
	ctx := context.Background()
	sys, model, p, probe := repCacheFixture(t)
	est := sys.CardinalityEstimator(model, p, WithRepCacheSize(4))
	if _, err := est.EstimateCardinality(ctx, probe); err != nil {
		t.Fatal(err)
	}
	st := est.CacheStats()
	if st.Capacity != 4 {
		t.Fatalf("capacity = %d, want 4", st.Capacity)
	}
	if st.Resident > 4 {
		t.Fatalf("%d resident entries exceed capacity", st.Resident)
	}
}

// TestImproveBaselineCacheStatsNilSafe is the regression gate for the
// nil-cache guard: ImproveBaseline estimators carry no representation
// cache (the wrapped model has no set-module representations), so
// CacheStats must report zeros instead of dereferencing a nil cache —
// and the estimator must otherwise work, including with cache options
// (which it documents as ignored) and coalescing (which it honors).
func TestImproveBaselineCacheStatsNilSafe(t *testing.T) {
	ctx := context.Background()
	sys, _, p, probe := repCacheFixture(t)
	base, err := sys.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		est  *CardinalityEstimator
	}{
		{"plain", sys.ImproveBaseline(base, p)},
		{"with-ignored-cache-option", sys.ImproveBaseline(base, p, WithRepCacheSize(64))},
		{"with-coalescing", sys.ImproveBaseline(base, p, WithCoalescing(8, 0))},
	} {
		if st := tc.est.CacheStats(); st != (RepCacheStats{}) {
			t.Errorf("%s: CacheStats = %+v, want zeros", tc.name, st)
		}
		tc.est.InvalidateRepresentations() // must be a no-op, not a panic
		if _, err := tc.est.EstimateCardinality(ctx, probe); err != nil {
			t.Errorf("%s: estimate: %v", tc.name, err)
		}
		if _, err := tc.est.EstimateCardinalityBatch(ctx, []Query{probe}); err != nil {
			t.Errorf("%s: batch: %v", tc.name, err)
		}
		if st := tc.est.CacheStats(); st != (RepCacheStats{}) {
			t.Errorf("%s: post-estimate CacheStats = %+v, want zeros", tc.name, st)
		}
	}
}

// TestNilPoolReturnsErrorNotPanic: a default (cache-on) estimator over a
// nil pool must surface the configuration error, not nil-deref in the
// cache revalidation.
func TestNilPoolReturnsErrorNotPanic(t *testing.T) {
	ctx := context.Background()
	sys, model, _, probe := repCacheFixture(t)
	est := sys.CardinalityEstimator(model, nil)
	if _, err := est.EstimateCardinality(ctx, probe); err == nil {
		t.Fatal("nil pool should error")
	}
	if _, err := est.EstimateCardinalityBatch(ctx, []Query{probe}); err == nil {
		t.Fatal("nil pool batch should error")
	}
}

// TestPoolEvictionInvalidatesRepCache pins the capacity-bounded pool to the
// serving cache's invalidation contract: an LRU eviction bumps the pool
// Version and surgically drops exactly the evicted entry's cached rows
// (the estimator's cache subscribes to the pool), the rest of the resident
// working set stays warm, and cached estimates stay bit-identical to
// uncached ones over the mutated pool.
func TestPoolEvictionInvalidatesRepCache(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(t)
	model, err := sys.TrainContainmentModel(ctx, tinyTrainOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 6
	p := sys.NewQueriesPool(WithPoolCap(capacity))
	record := func(sql string) {
		t.Helper()
		q, err := sys.ParseQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sys.RecordExecuted(ctx, p, q); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < capacity; i++ {
		record(fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1900+10*i))
	}

	cached := sys.CardinalityEstimator(model, p)
	uncached := sys.CardinalityEstimator(model, p, WithRepCacheSize(0))
	probe, err := sys.ParseQuery("SELECT * FROM title WHERE title.production_year > 1955")
	if err != nil {
		t.Fatal(err)
	}

	// Warm to steady state: insert, promote, read resident. A cardinality
	// update between the passes keeps the estimate memo from answering them.
	bump := cardBumper(t, p, probe)
	for i := 0; i < 3; i++ {
		if _, err := cached.EstimateCardinality(ctx, probe); err != nil {
			t.Fatal(err)
		}
		bump()
	}
	warm := cached.CacheStats()
	if warm.Resident == 0 {
		t.Fatalf("resident tier never warmed: %+v", warm)
	}

	// Overflow the pool: the least-recently-matched entry is evicted.
	vBefore := p.Version()
	record("SELECT * FROM title WHERE title.kind_id = 2")
	if p.Len() != capacity {
		t.Fatalf("pool size = %d, want capacity %d", p.Len(), capacity)
	}
	if st := p.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if v := p.Version(); v <= vBefore {
		t.Fatalf("eviction must bump Version: %d -> %d", vBefore, v)
	}

	// The eviction was absorbed surgically: exactly one resident row was
	// dropped (the victim was part of the warmed working set) and the rest
	// of the working set stayed resident — no wholesale flush.
	if st := cached.CacheStats(); st.Resident != warm.Resident-1 {
		t.Fatalf("surgical eviction should drop exactly one resident row: %d -> %d",
			warm.Resident, st.Resident)
	}

	// Post-eviction estimates match the uncached estimator over the mutated
	// pool exactly, and serve from the still-warm cache (no new misses for
	// the surviving working set beyond the freshly recorded entry).
	want, err := uncached.EstimateCardinality(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cached.EstimateCardinality(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-eviction cached estimate %v != uncached %v", got, want)
	}
	for i := 0; i < 3; i++ {
		if got, err = cached.EstimateCardinality(ctx, probe); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("warm post-eviction cached estimate %v != uncached %v", got, want)
		}
	}
	st := cached.CacheStats()
	if st.Resident == 0 {
		t.Errorf("resident tier should stay warm across an eviction: %+v", st)
	}
	if st.Misses > warm.Misses+4 {
		t.Errorf("surgical eviction should not re-encode the surviving working set: misses %d -> %d",
			warm.Misses, st.Misses)
	}
}

// memoProbes are three probes over the seeded pool's busiest FROM clause.
// Besides the year every pool entry of their callers constrains, each
// constrains episode_nr, which none does: a relation fixes at most one of a
// candidate's two rates, and no answer is clamped to the bounds relations
// prove, so a wrong rate changes an answer's bits.
func memoProbes(t *testing.T, sys *System) []Query {
	t.Helper()
	var out []Query
	for i, year := range []int{1950, 1960, 1975} {
		q, err := sys.ParseQuery(fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d AND title.episode_nr < %d", year, 40-10*i))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, q)
	}
	return out
}

// repLookups is the estimator's representation-cache lookup count: a rate
// pass resolves every query it lists, so a pass that leaves it unchanged ran
// no rate model.
func repLookups(e interface{ CacheStats() RepCacheStats }) uint64 {
	st := e.CacheStats()
	return st.Hits + st.Misses
}

// TestRateMemoEquivalence is the facade-level gate of the rates the estimate
// memo keeps for a recurring probe: an estimator with the memo answers bit
// for bit what a WithRepCacheSize(0) estimator answers, single and batch,
// while the probes go from their first pass to reusing every kept rate,
// through pool evictions at the cap, after InvalidateRepresentations and
// across a model generation swap. Every estimate follows a cardinality
// update on the probes' FROM clause, so the memo answers none of them
// outright; once a probe has been stored twice, the pass after an update
// runs no rate model.
func TestRateMemoEquivalence(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(t)
	model, err := sys.TrainContainmentModel(ctx, tinyTrainOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 12
	p := sys.NewQueriesPool(WithPoolCap(capacity))
	for i := 0; i < capacity; i++ {
		recordSQL(t, sys, p, fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1900+7*i))
	}
	// Two columns against the pool's one: most candidates overlap the
	// probes, so their answers depend on every rate, not only on the
	// bounds the relations prove.
	probes := parseAll(t, sys,
		"SELECT * FROM title WHERE title.production_year > 1950 AND title.kind_id < 3",
		"SELECT * FROM title WHERE title.production_year > 1960 AND title.kind_id > 1",
		"SELECT * FROM title WHERE title.production_year > 1975 AND title.kind_id = 2",
	)
	cached := openAdaptive(t, sys, model, p, WithRetrainInterval(-1))
	defer cached.Close()

	check := func(label string, reference *CardinalityEstimator) {
		t.Helper()
		for round := 0; round < 3; round++ { // first store, rates kept, rates reused
			for _, q := range probes {
				cardBumper(t, p, q)()
				want, err := reference.EstimateCardinality(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cached.EstimateCardinality(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s round %d: cached %v, uncached %v", label, round, got, want)
				}
			}
			cardBumper(t, p, probes[0])()
			want, err := reference.EstimateCardinalityBatch(ctx, probes)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cached.EstimateCardinalityBatch(ctx, probes)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s round %d batch[%d]: cached %v, uncached %v", label, round, i, got[i], want[i])
				}
			}
		}
		// Every probe has been stored at least twice since its rates were
		// last dropped: the pass after an update reuses them all.
		before := repLookups(cached)
		cardBumper(t, p, probes[0])()
		want, err := reference.EstimateCardinalityBatch(ctx, probes)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cached.EstimateCardinalityBatch(ctx, probes)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s reuse batch[%d]: cached %v, uncached %v", label, i, got[i], want[i])
			}
		}
		if after := repLookups(cached); after != before {
			t.Fatalf("%s: the pass after an update ran a rate pass (%d lookups)", label, after-before)
		}
	}
	uncached := sys.CardinalityEstimator(model, p, WithRepCacheSize(0))

	check("warm-up", uncached)

	// Evictions at the pool's capacity: each removes a candidate of every
	// probe and inserts a new one, whose pairs alone the next pass computes.
	for i := 0; i < capacity/2; i++ {
		recordSQL(t, sys, p, fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1903+7*i))
		check(fmt.Sprintf("after eviction %d", i), uncached)
	}
	if st := p.Stats(); st.Evictions != capacity/2 {
		t.Fatalf("evictions = %d, want %d", st.Evictions, capacity/2)
	}

	cached.InvalidateRepresentations()
	if st := cached.CacheStats(); st.EstimateEntries != 0 || st.Resident != 0 {
		t.Fatalf("InvalidateRepresentations left %d estimate memo entries and %d rows", st.EstimateEntries, st.Resident)
	}
	check("after invalidate", uncached)

	// Generation swap: the memo's entries are of the old generation, so no
	// rate of the old weights can be served and the first pass lists every
	// pair.
	second, err := sys.TrainContainmentModel(ctx, append(tinyTrainOptions(), WithSeed(4))...)
	if err != nil {
		t.Fatal(err)
	}
	cached.box.Publish(cached.box.Prepare(second.model))
	if st := cached.CacheStats(); st.Resident != 0 {
		t.Fatalf("a fresh generation must start with an empty cache: %+v", st)
	}
	check("after generation swap", sys.CardinalityEstimator(second, p, WithRepCacheSize(0)))
}

// recordSQL parses and records one executed query into the pool.
func recordSQL(t *testing.T, sys *System, p *QueriesPool, sql string) {
	t.Helper()
	q, err := sys.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.RecordExecuted(context.Background(), p, q); err != nil {
		t.Fatal(err)
	}
}

// TestRateMemoConcurrentChurn runs estimates from several goroutines while
// the pool adds at its capacity (every add evicts, every eviction tombstones
// a resident row, compactions follow) and the cache is invalidated: the
// -race gate of the resident tier at the facade. Estimates must stay finite
// and non-negative throughout, and once the churn stops the cached
// estimator must agree with an uncached one bit for bit — on passes after a
// cardinality update, so that from the third round on they reuse the rates
// the memo kept.
func TestRateMemoConcurrentChurn(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(t)
	model, err := sys.TrainContainmentModel(ctx, tinyTrainOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 16
	p := sys.NewQueriesPool(WithPoolCap(capacity))
	for i := 0; i < capacity; i++ {
		recordSQL(t, sys, p, fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1900+5*i))
	}
	probes := memoProbes(t, sys)
	cached := sys.CardinalityEstimator(model, p)
	defer cached.Close()

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var v float64
				var err error
				if i%8 == 7 {
					var out []float64
					if out, err = cached.EstimateCardinalityBatch(ctx, probes); err == nil {
						v = out[0]
					}
				} else {
					v, err = cached.EstimateCardinality(ctx, probes[(w+i)%len(probes)])
				}
				if err != nil || v < 0 || v != v {
					t.Errorf("estimate under churn: %v, %v", v, err)
					return
				}
			}
		}(w)
	}
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := 0; i < 200; i++ {
			q, err := sys.ParseQuery(fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d AND title.kind_id < %d", 1900+i%90, 2+i%5))
			if err != nil {
				t.Error(err)
				return
			}
			p.Add(q, int64(10+i))
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 20; i++ {
			cached.InvalidateRepresentations()
			cached.CacheStats()
			time.Sleep(time.Millisecond)
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()

	uncached := sys.CardinalityEstimator(model, p, WithRepCacheSize(0))
	bump := cardBumper(t, p, probes[0])
	for round := 0; round < 4; round++ {
		for _, q := range probes {
			bump()
			want, err := uncached.EstimateCardinality(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := cached.EstimateCardinality(ctx, q); err != nil || got != want {
				t.Fatalf("after churn, round %d: cached %v (%v), uncached %v", round, got, err, want)
			}
		}
	}
}

// TestRateMemoUntouchedByFailedPass: an estimate that fails before or
// inside the rate pass — the armed EstimateCards failpoint, a context
// cancelled before or during the pass — leaves the estimate memo exactly as
// it was and keeps no rates: the probe's second healthy pass after an update
// still runs the rate model (its first store was the only one), and only the
// third reuses every rate, bit-identical to the uncached estimator.
func TestRateMemoUntouchedByFailedPass(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	ctx := context.Background()
	sys, model, p, probe := repCacheFixture(t)
	cached := sys.CardinalityEstimator(model, p)
	uncached := sys.CardinalityEstimator(model, p, WithRepCacheSize(0))
	// First store: the probe computed, nothing resident but the pool the
	// generation was warmed with.
	if _, err := cached.EstimateCardinality(ctx, probe); err != nil {
		t.Fatal(err)
	}
	if st := cached.CacheStats(); st.Misses == 0 || st.Resident != p.Len() {
		t.Fatalf("fixture: %+v", st)
	}

	bump := cardBumper(t, p, probe)
	bump() // every failure below misses the memo and reaches selection
	failpoint.EnableError(failpoint.EstimateCards, errors.New("injected estimate-path failure"))
	if _, err := cached.EstimateCardinality(ctx, probe); err == nil {
		t.Fatal("armed failpoint must fail the estimate")
	}
	failpoint.Disable(failpoint.EstimateCards)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := cached.EstimateCardinality(cancelled, probe); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled estimate: %v", err)
	}
	if _, err := cached.EstimateCardinalityBatch(cancelled, []Query{probe, probe}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: %v", err)
	}
	if _, err := cached.EstimateCardinality(&flakyCtx{Context: ctx}, probe); !errors.Is(err, context.Canceled) {
		t.Fatalf("estimate cancelled during the pass: %v", err)
	}
	if st := cached.CacheStats(); st.EstimateEntries != 1 || st.EstimateHits != 0 {
		t.Fatalf("failed passes touched the estimate memo: %+v", st)
	}

	for i, wantPass := range []bool{true, false} { // rates kept, then reused
		if i > 0 {
			bump()
		}
		want, err := uncached.EstimateCardinality(ctx, probe)
		if err != nil {
			t.Fatal(err)
		}
		before := repLookups(cached)
		if got, err := cached.EstimateCardinality(ctx, probe); err != nil || got != want {
			t.Fatalf("healthy estimate %d after failures: %v (%v), want %v", i, got, err, want)
		}
		if ran := repLookups(cached) != before; ran != wantPass {
			t.Fatalf("healthy estimate %d after failures: rate pass %v, want %v", i, ran, wantPass)
		}
	}
}

// TestHotEstimateAllocs pins the allocation count of the steady-state
// single estimate after a cardinality update on its clause: the estimate
// memo misses, but it kept every candidate's rates, so the pass runs
// selection and the vote and no rate pass — no rep-cache lookup — at 2
// allocations, the coalescer's solo call and the result (it was 5 while the
// pass still reached the rate model). Without an update, the memo answers
// with the same 2, the path crnbench's facade.estimate_allocs reads over a
// 300-entry pool.
func TestHotEstimateAllocs(t *testing.T) {
	ctx := context.Background()
	sys, model, p, probe := repCacheFixture(t)
	base, err := sys.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	est := sys.CardinalityEstimator(model, p, WithFallback(base), WithCoalescing(64, 0), WithTelemetry(NewTelemetry()))
	estimate := func() {
		if _, err := est.EstimateCardinality(ctx, probe); err != nil {
			t.Fatal(err)
		}
	}
	bump := cardBumper(t, p, probe)
	run := func() {
		bump()
		estimate()
	}
	for i := 0; i < 4; i++ {
		run()
	}
	lookups := repLookups(est)
	if n := testing.AllocsPerRun(100, run); n > 2 && !raceEnabled {
		t.Errorf("hot single estimate: %v allocs, want <= 2", n)
	}
	if got := repLookups(est); got != lookups {
		t.Errorf("the passes after an update ran the rate model: %d rep-cache lookups", got-lookups)
	}
	hits := est.CacheStats().EstimateHits
	if n := testing.AllocsPerRun(100, estimate); n > 2 && !raceEnabled {
		t.Errorf("memoized single estimate: %v allocs, want <= 2", n)
	}
	if st := est.CacheStats(); st.EstimateHits < hits+100 {
		t.Errorf("unchanged repeats missed the estimate memo: %+v", st)
	}
}
