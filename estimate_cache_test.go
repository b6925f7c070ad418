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
// changes the candidates q selects, so the estimate memo cannot answer q's
// next estimate, while the representation cache and the pair-rate memo keep
// every row and rate (neither depends on a cardinality): tests reach the
// state only repeated rate passes reach by calling it between estimates.
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
func memoProbes(t *testing.T, sys *System) []Query {
	t.Helper()
	var out []Query
	for _, year := range []int{1950, 1960, 1975} {
		q, err := sys.ParseQuery(fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", year))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, q)
	}
	return out
}

// TestRateMemoEquivalence is the facade-level gate of the pair-rate memo:
// an estimator with the cache (and so the memo) answers bit for bit what a
// WithRepCacheSize(0) estimator answers, single and batch, while the memo goes
// from cold to hit, through pool evictions (surgical removes, dead rows,
// compaction), after InvalidateRepresentations and across a model
// generation swap — and the memo does serve the repeats. Every estimate
// follows a cardinality update on the probes' FROM clause, so the estimate
// memo answers none of them and each repeat reaches the pair-rate memo.
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
	probes := memoProbes(t, sys)
	cached := openAdaptive(t, sys, model, p, WithRetrainInterval(-1))
	defer cached.Close()

	check := func(label string, reference *CardinalityEstimator) {
		t.Helper()
		for round := 0; round < 3; round++ { // cold, promoted and memoized, hit
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
	}
	hits := func() uint64 { return cached.CacheStats().MemoHits }
	uncached := sys.CardinalityEstimator(model, p, WithRepCacheSize(0))

	check("warm-up", uncached)
	if hits() == 0 || cached.CacheStats().MemoEntries == 0 {
		t.Fatalf("repeated probes never hit the memo: %+v", cached.CacheStats())
	}

	// Evictions at the pool's capacity: each drops one resident row, and
	// enough of them force a compaction that renumbers the survivors.
	for i := 0; i < capacity/2; i++ {
		recordSQL(t, sys, p, fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1903+7*i))
		before := hits()
		check(fmt.Sprintf("after eviction %d", i), uncached)
		if hits() == before {
			t.Fatalf("memo stopped answering after eviction %d: %+v", i, cached.CacheStats())
		}
	}
	if st := p.Stats(); st.Evictions != capacity/2 {
		t.Fatalf("evictions = %d, want %d", st.Evictions, capacity/2)
	}

	cached.InvalidateRepresentations()
	if st := cached.CacheStats(); st.MemoEntries != 0 || st.EstimateEntries != 0 {
		t.Fatalf("InvalidateRepresentations left %d pair-rate and %d estimate memo entries",
			st.MemoEntries, st.EstimateEntries)
	}
	check("after invalidate", uncached)

	// Generation swap: the new generation has its own cache and memo, so no
	// rate of the old weights can be served.
	second, err := sys.TrainContainmentModel(ctx, append(tinyTrainOptions(), WithSeed(4))...)
	if err != nil {
		t.Fatal(err)
	}
	cached.box.Publish(cached.box.Prepare(second.model))
	if st := cached.CacheStats(); st.MemoEntries != 0 || st.Resident != 0 {
		t.Fatalf("a fresh generation must start with an empty cache: %+v", st)
	}
	check("after generation swap", sys.CardinalityEstimator(second, p, WithRepCacheSize(0)))
	if cached.CacheStats().MemoHits == 0 {
		t.Fatal("the new generation's memo never answered")
	}
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
// estimator must agree with an uncached one bit for bit.
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
	for round := 0; round < 4; round++ {
		for _, q := range probes {
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
// inside the rate pass — the armed EstimateCards failpoint, a cancelled
// context — leaves the pair-rate memo and the estimate memo exactly as they
// were, and the next healthy estimate is still bit-identical to the
// uncached one. A cardinality update before each healthy estimate keeps the
// estimate memo from answering it, so it reaches the pair-rate memo.
func TestRateMemoUntouchedByFailedPass(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	ctx := context.Background()
	sys, model, p, probe := repCacheFixture(t)
	cached := sys.CardinalityEstimator(model, p)
	uncached := sys.CardinalityEstimator(model, p, WithRepCacheSize(0))
	// First sighting: the probe computed, nothing resident but the pool the
	// generation was warmed with, nothing memoized yet.
	if _, err := cached.EstimateCardinality(ctx, probe); err != nil {
		t.Fatal(err)
	}
	if st := cached.CacheStats(); st.Misses == 0 || st.Resident != p.Len() || st.MemoEntries != 0 {
		t.Fatalf("fixture: %+v", st)
	}

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
	if st := cached.CacheStats(); st.MemoEntries != 0 || st.MemoHits != 0 || st.MemoMisses != 0 {
		t.Fatalf("failed passes touched the memo: %+v", st)
	}
	if st := cached.CacheStats(); st.EstimateEntries != 1 || st.EstimateHits != 0 || st.EstimateMisses != 1 {
		t.Fatalf("failed passes touched the estimate memo: %+v", st)
	}

	bump := cardBumper(t, p, probe)
	for i := 0; i < 2; i++ { // promoting and memoizing pass, then memo hit
		bump()
		want, err := uncached.EstimateCardinality(ctx, probe)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := cached.EstimateCardinality(ctx, probe); err != nil || got != want {
			t.Fatalf("healthy estimate %d after failures: %v (%v), want %v", i, got, err, want)
		}
	}
	if st := cached.CacheStats(); st.MemoEntries == 0 || st.MemoHits == 0 {
		t.Fatalf("memo never recovered: %+v", st)
	}
}

// TestHotEstimateAllocs pins the allocation count of the steady-state
// single-query rate pass (every rate a memo hit): 5 — the coalescer's solo
// call, the result, the rate slice, the rate pass's key list and its pair
// predictor — now that card.Estimator's working memory is pooled scratch (it
// was 11). A cardinality update before each estimate keeps the estimate memo
// from answering it; without one, the estimate memo answers with 2 (the
// solo call and the result), the path crnbench's facade.estimate_allocs
// reads over a 300-entry pool.
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
	if st := est.CacheStats(); st.MemoHits == 0 {
		t.Fatalf("fixture never reached the memo-hit state: %+v", st)
	}
	if n := testing.AllocsPerRun(100, run); n > 5 && !raceEnabled {
		t.Errorf("hot single estimate: %v allocs, want <= 5", n)
	}
	hits := est.CacheStats().EstimateHits
	if n := testing.AllocsPerRun(100, estimate); n > 2 && !raceEnabled {
		t.Errorf("memoized single estimate: %v allocs, want <= 2", n)
	}
	if st := est.CacheStats(); st.EstimateHits < hits+100 {
		t.Errorf("unchanged repeats missed the estimate memo: %+v", st)
	}
}
