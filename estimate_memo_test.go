package crn

// Gates for the estimate memo (card.Memo): a recurring probe whose FROM
// clause has not mutated and whose model generation has not changed is
// answered, before selection, with the estimate of the pass that computed
// it, and that answer carries the bits a WithRepCacheSize(0) estimator
// computes.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"crn/internal/guard/failpoint"
	"crn/internal/pool"
)

// memoFixture opens the test system, trains two models on it (the second is
// the generation a promotion publishes) and analyzes the fallback baseline.
func memoFixture(t *testing.T) (sys *System, first, second *ContainmentModel, base BaselineEstimator) {
	t.Helper()
	ctx := context.Background()
	sys = testSystem(t)
	var err error
	if first, err = sys.TrainContainmentModel(ctx, tinyTrainOptions()...); err != nil {
		t.Fatal(err)
	}
	if second, err = sys.TrainContainmentModel(ctx, append(tinyTrainOptions(), WithSeed(4))...); err != nil {
		t.Fatal(err)
	}
	if base, err = sys.AnalyzeBaseline(); err != nil {
		t.Fatal(err)
	}
	return sys, first, second, base
}

// parseAll parses every text, failing the test on the first error.
func parseAll(t *testing.T, sys *System, sqls ...string) []Query {
	t.Helper()
	out := make([]Query, len(sqls))
	for i, sql := range sqls {
		q, err := sys.ParseQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = q
	}
	return out
}

// entryKeys lists a pool's entries as "ID key card", sorted.
func entryKeys(p *QueriesPool) []string {
	var out []string
	for _, e := range p.Entries() {
		out = append(out, fmt.Sprintf("%d %s %d", e.ID, e.Q.Key(), e.Card))
	}
	slices.Sort(out)
	return out
}

// sameBits fails the test unless got and want are the same float64 bits.
func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: memoized estimator %v, WithRepCacheSize(0) %v", what, got, want)
	}
}

// TestEstimateMemoInterleavings is the property test of the estimate memo:
// over random interleavings of single and batch estimates, pool inserts at
// the cap (every one evicts), cardinality updates and a generation
// promotion, an estimator with the memo answers every call with the bits of
// a WithRepCacheSize(0) estimator fed the same operations on a twin pool —
// fallback answers included — and the two pools evict the same victims,
// because a memoized answer replays the recency stamping eviction reads.
func TestEstimateMemoInterleavings(t *testing.T) { memoInterleavings(t) }

// TestEstimateMemoInterleavingsBounded is TestEstimateMemoInterleavings with
// both estimators bounded to the top 3 candidates: the title clause's
// selections are bounded, so a memoized answer there re-stamps exactly the
// entries its selection chose, while the smaller cast_info clause takes the
// whole-clause path.
func TestEstimateMemoInterleavingsBounded(t *testing.T) { memoInterleavings(t, WithMaxCandidates(3)) }

// memoInterleavings runs the interleaving property with opts applied to
// both estimators.
func memoInterleavings(t *testing.T, opts ...EstimatorOption) {
	ctx := context.Background()
	sys, first, second, base := memoFixture(t)
	const capacity = 10
	pools := [2]*QueriesPool{sys.NewQueriesPool(WithPoolCap(capacity)), sys.NewQueriesPool(WithPoolCap(capacity))}
	for i := 0; i < capacity; i++ {
		for _, p := range pools {
			if i%3 == 2 {
				recordSQL(t, sys, p, fmt.Sprintf("SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND cast_info.role_id < %d", 2+i))
			} else {
				recordSQL(t, sys, p, fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1900+8*i))
			}
		}
	}
	memo := openAdaptive(t, sys, first, pools[0], slices.Concat(opts, []EstimatorOption{WithFallback(base), WithRetrainInterval(-1)})...)
	defer memo.Close()
	ref := openAdaptive(t, sys, first, pools[1], slices.Concat(opts, []EstimatorOption{WithFallback(base), WithRetrainInterval(-1), WithRepCacheSize(0)})...)
	defer ref.Close()

	probes := parseAll(t, sys,
		"SELECT * FROM title WHERE title.production_year > 1950",
		"SELECT * FROM title WHERE title.production_year > 1975",
		"SELECT * FROM title WHERE title.kind_id = 2",
		"SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND cast_info.role_id = 3",
		"SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND title.production_year < 1990",
		// No pooled FROM clause: the fallback answers, and is never memoized.
		"SELECT * FROM title, movie_keyword WHERE title.id = movie_keyword.movie_id",
	)
	rng := rand.New(rand.NewPCG(46, 1))
	adds, updates, promoted := 0, 0, false
	for step := 0; step < 400; step++ {
		switch op := rng.IntN(10); {
		case step == 200:
			for _, e := range []*AdaptiveEstimator{memo, ref} {
				e.box.Publish(e.box.Prepare(second.model))
			}
			promoted = true
		case op < 4:
			q := probes[rng.IntN(len(probes))]
			want, werr := ref.EstimateCardinality(ctx, q)
			got, gerr := memo.EstimateCardinality(ctx, q)
			if werr != nil || gerr != nil {
				t.Fatalf("step %d: %v / %v", step, gerr, werr)
			}
			sameBits(t, fmt.Sprintf("step %d single %s", step, q.Key()), got, want)
		case op < 6:
			batch := make([]Query, 1+rng.IntN(6))
			for i := range batch {
				batch[i] = probes[rng.IntN(len(probes))]
			}
			want, werr := ref.EstimateCardinalityBatch(ctx, batch)
			got, gerr := memo.EstimateCardinalityBatch(ctx, batch)
			if werr != nil || gerr != nil {
				t.Fatalf("step %d: %v / %v", step, gerr, werr)
			}
			for i := range batch {
				sameBits(t, fmt.Sprintf("step %d batch[%d]", step, i), got[i], want[i])
			}
		case op < 8:
			sql := fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d AND title.kind_id < %d", 1900+adds%97, 2+adds%5)
			if adds%4 == 3 {
				sql = fmt.Sprintf("SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND cast_info.nr_order < %d", 1+adds)
			}
			q := parseAll(t, sys, sql)[0]
			card := int64(rng.IntN(400)) // 0 too: an empty entry is never a candidate
			for _, p := range pools {
				p.Add(q, card)
			}
			adds++
			if a, b := entryKeys(pools[0]), entryKeys(pools[1]); !slices.Equal(a, b) {
				t.Fatalf("step %d: the pools evicted different victims:\n%v\n%v", step, a, b)
			}
		default:
			entries := pools[0].Entries()
			slices.SortFunc(entries, func(a, b pool.Entry) int { return cmp.Compare(a.ID, b.ID) })
			e := entries[rng.IntN(len(entries))]
			card := e.Card + 1 + int64(rng.IntN(50))
			for _, p := range pools {
				if !p.UpdateCard(e.Q, card) {
					t.Fatalf("step %d: UpdateCard(%s) changed nothing", step, e.Q.Key())
				}
			}
			updates++
		}
	}
	st := memo.CacheStats()
	if !promoted || adds == 0 || updates == 0 || pools[0].Stats().Evictions == 0 {
		t.Fatalf("the interleaving missed an operation: promoted %v, adds %d, updates %d, %+v",
			promoted, adds, updates, pools[0].Stats())
	}
	if st.EstimateHits == 0 || st.EstimateMisses == 0 || st.EstimateEntries == 0 {
		t.Fatalf("the memo never answered: %+v", st)
	}
	if rs := ref.CacheStats(); rs != (RepCacheStats{}) {
		t.Fatalf("the WithRepCacheSize(0) reference memoized: %+v", rs)
	}
}

// flakyCtx reports no error on its first Err call and context.Canceled on
// every later one: a caller that cancels after the estimator checked its
// context and before the rate pass did.
type flakyCtx struct {
	context.Context
	mu    sync.Mutex
	calls int
}

func (c *flakyCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.calls++; c.calls > 1 {
		return context.Canceled
	}
	return nil
}

// TestEstimateMemoStoresNothingFromFailedPasses: a pass that fails — at the
// armed EstimateCards failpoint, on a context cancelled before or during the
// rate pass, or on a query without a pool match after the others in its
// batch were computed — leaves no entry behind, and the next healthy pass is
// computed and memoized.
func TestEstimateMemoStoresNothingFromFailedPasses(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	ctx := context.Background()
	sys, model, _, _ := memoFixture(t)
	p := sys.NewQueriesPool()
	for i := 0; i < 6; i++ {
		recordSQL(t, sys, p, fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1900+10*i))
	}
	qs := parseAll(t, sys,
		"SELECT * FROM title WHERE title.production_year > 1955",
		"SELECT * FROM title, movie_keyword WHERE title.id = movie_keyword.movie_id",
	)
	probe, orphan := qs[0], qs[1]
	est := sys.CardinalityEstimator(model, p)
	ref := sys.CardinalityEstimator(model, p, WithRepCacheSize(0))

	failpoint.EnableError(failpoint.EstimateCards, errors.New("injected estimate-path failure"))
	if _, err := est.EstimateCardinality(ctx, probe); err == nil {
		t.Fatal("armed failpoint must fail the estimate")
	}
	failpoint.Disable(failpoint.EstimateCards)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := est.EstimateCardinalityBatch(cancelled, []Query{probe}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: %v", err)
	}
	if _, err := est.EstimateCardinality(&flakyCtx{Context: ctx}, probe); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch cancelled during the pass: %v", err)
	}
	if _, err := est.EstimateCardinalityBatch(ctx, []Query{probe, orphan}); !errors.Is(err, ErrNoPoolMatch) {
		t.Fatalf("batch with an unmatched query: %v", err)
	}
	if st := est.CacheStats(); st.EstimateEntries != 0 || st.EstimateHits != 0 {
		t.Fatalf("failed passes memoized: %+v", st)
	}

	want, err := ref.EstimateCardinality(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // computed and memoized, then answered
		got, err := est.EstimateCardinality(ctx, probe)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("healthy estimate %d", i), got, want)
	}
	if st := est.CacheStats(); st.EstimateEntries != 1 || st.EstimateHits != 1 {
		t.Fatalf("the healthy passes: %+v", st)
	}
}

// TestEstimateMemoSkipsFallbackAnswers: a probe whose FROM clause has only
// empty entries has no candidates, so the fallback answers it every time and
// the memo neither looks it up nor keeps it; once a non-empty entry joins
// its clause the rate arm answers, and that answer is memoized.
func TestEstimateMemoSkipsFallbackAnswers(t *testing.T) {
	ctx := context.Background()
	sys, model, _, base := memoFixture(t)
	p := sys.NewQueriesPool()
	recordSQL(t, sys, p, "SELECT * FROM title WHERE title.production_year > 1950")
	qs := parseAll(t, sys,
		"SELECT * FROM title, movie_keyword WHERE title.id = movie_keyword.movie_id AND title.production_year > 2100",
		"SELECT * FROM title, movie_keyword WHERE title.id = movie_keyword.movie_id AND title.production_year > 1980",
		"SELECT * FROM title, movie_keyword WHERE title.id = movie_keyword.movie_id",
	)
	empty, probe, full := qs[0], qs[1], qs[2]
	p.Add(empty, 0)
	est := sys.CardinalityEstimator(model, p, WithFallback(base))
	ref := sys.CardinalityEstimator(model, p, WithFallback(base), WithRepCacheSize(0))

	fb, err := base.EstimateCard(probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := est.EstimateCardinality(ctx, probe)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("fallback answer %d", i), got, fb)
	}
	if st := est.CacheStats(); st.EstimateEntries != 0 || st.EstimateHits != 0 || st.EstimateMisses != 0 {
		t.Fatalf("fallback answers reached the memo: %+v", st)
	}

	recordSQL(t, sys, p, full.Key())
	want, err := ref.EstimateCardinality(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := est.EstimateCardinality(ctx, probe)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("rate-arm answer %d", i), got, want)
	}
	if st := est.CacheStats(); st.EstimateEntries != 1 || st.EstimateHits != 1 {
		t.Fatalf("the rate arm's answer was not memoized: %+v", st)
	}
}

// TestEstimateMemoTellsEntriesApart: an eviction that replaces a candidate
// with another query of the same cardinality leaves the probe's candidate
// cardinalities as they were, and the clause's stamp tells the two apart, so
// the estimate is computed again, over the new candidate.
func TestEstimateMemoTellsEntriesApart(t *testing.T) {
	ctx := context.Background()
	sys, model, _, _ := memoFixture(t)
	p := sys.NewQueriesPool(WithPoolCap(2))
	qs := parseAll(t, sys,
		"SELECT * FROM title WHERE title.production_year > 1930",
		"SELECT * FROM title WHERE title.production_year > 1960",
		"SELECT * FROM title WHERE title.kind_id < 3",
		"SELECT * FROM title WHERE title.production_year > 1950",
	)
	probe := qs[3]
	p.Add(qs[0], 100)
	p.Add(qs[1], 100)
	est := sys.CardinalityEstimator(model, p)
	ref := sys.CardinalityEstimator(model, p, WithRepCacheSize(0))
	estimate := func(what string) float64 {
		t.Helper()
		want, err := ref.EstimateCardinality(ctx, probe)
		if err != nil {
			t.Fatal(err)
		}
		got, err := est.EstimateCardinality(ctx, probe)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, what, got, want)
		return got
	}
	before := estimate("before the eviction")
	p.Add(qs[2], 100) // evicts qs[0], the least recently stamped candidate
	if p.Contains(qs[0]) || !p.Contains(qs[2]) {
		t.Fatalf("fixture: the eviction kept %s", qs[0].Key())
	}
	if after := estimate("after the eviction"); after == before {
		t.Fatalf("fixture: replacing %s did not move the estimate", qs[0].Key())
	}
	if st := est.CacheStats(); st.EstimateHits != 0 {
		t.Fatalf("the memo answered over a replaced candidate: %+v", st)
	}
}

// TestEstimateMemoPerEstimator: two estimators over one pool, one bounded to
// the top 3 candidates and one scanning the whole clause, each answer with
// their own reference's bits however their calls interleave — neither is
// ever served the other's memoized value.
func TestEstimateMemoPerEstimator(t *testing.T) {
	ctx := context.Background()
	sys, model, _, _ := memoFixture(t)
	p := sys.NewQueriesPool()
	for i := 0; i < 12; i++ {
		recordSQL(t, sys, p, fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1900+9*i))
	}
	probes := memoProbes(t, sys)
	bounded := sys.CardinalityEstimator(model, p, WithMaxCandidates(3))
	full := sys.CardinalityEstimator(model, p)
	refs := []*CardinalityEstimator{
		sys.CardinalityEstimator(model, p, WithMaxCandidates(3), WithRepCacheSize(0)),
		sys.CardinalityEstimator(model, p, WithRepCacheSize(0)),
	}
	differ := false
	for round := 0; round < 4; round++ {
		for _, q := range probes {
			var got [2]float64
			for i, est := range []*CardinalityEstimator{bounded, full} {
				want, err := refs[i].EstimateCardinality(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if got[i], err = est.EstimateCardinality(ctx, q); err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("round %d estimator %d %s", round, i, q.Key()), got[i], want)
			}
			differ = differ || got[0] != got[1]
		}
	}
	if !differ {
		t.Fatal("fixture: the bounded and the full estimator agree on every probe")
	}
	for i, est := range []*CardinalityEstimator{bounded, full} {
		if st := est.CacheStats(); st.EstimateHits == 0 {
			t.Errorf("estimator %d never answered from its memo: %+v", i, st)
		}
	}
}

// TestEstimateMemoConcurrentChurn runs single and batch estimates from
// several goroutines while the pool adds at its capacity (every add evicts),
// cardinalities change, the caches are invalidated and a new generation is
// published: the -race gate of the memo. Estimates stay finite and
// non-negative throughout, and once the churn stops the memoized estimator
// answers — computed, then memoized — with the bits of a WithRepCacheSize(0)
// estimator on the promoted model.
func TestEstimateMemoConcurrentChurn(t *testing.T) {
	ctx := context.Background()
	sys, first, second, _ := memoFixture(t)
	const capacity = 16
	p := sys.NewQueriesPool(WithPoolCap(capacity))
	for i := 0; i < capacity; i++ {
		recordSQL(t, sys, p, fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1900+5*i))
	}
	probes := memoProbes(t, sys)
	est := openAdaptive(t, sys, first, p, WithRetrainInterval(-1))
	defer est.Close()

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
				if i%4 == 3 {
					var out []float64
					if out, err = est.EstimateCardinalityBatch(ctx, probes); err == nil {
						v = out[i%len(out)]
					}
				} else {
					v, err = est.EstimateCardinality(ctx, probes[(w+i)%len(probes)])
				}
				if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("estimate under churn: %v, %v", v, err)
					return
				}
			}
		}(w)
	}
	writers.Add(3)
	go func() {
		defer writers.Done()
		for i := 0; i < 150; i++ {
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
		for i := 0; i < 150; i++ {
			if entries := p.Entries(); len(entries) > 0 {
				e := entries[i%len(entries)]
				p.UpdateCard(e.Q, e.Card+1)
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 20; i++ {
			if i == 10 {
				est.box.Publish(est.box.Prepare(second.model))
			}
			est.InvalidateRepresentations()
			est.CacheStats()
			time.Sleep(time.Millisecond)
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()

	ref := sys.CardinalityEstimator(second, p, WithRepCacheSize(0))
	hits := est.CacheStats().EstimateHits
	for round := 0; round < 3; round++ {
		for _, q := range probes {
			want, err := ref.EstimateCardinality(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := est.EstimateCardinality(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("after churn, round %d, %s", round, q.Key()), got, want)
		}
		want, err := ref.EstimateCardinalityBatch(ctx, probes)
		if err != nil {
			t.Fatal(err)
		}
		got, err := est.EstimateCardinalityBatch(ctx, probes)
		if err != nil {
			t.Fatal(err)
		}
		for i := range probes {
			sameBits(t, fmt.Sprintf("after churn, round %d, batch[%d]", round, i), got[i], want[i])
		}
	}
	if st := est.CacheStats(); st.EstimateHits <= hits {
		t.Fatalf("the settled estimator never answered from its memo: %+v", st)
	}
}

// poolSelections reads crn_pool_selections_total, summed over its paths.
func poolSelections(t *testing.T, tel *Telemetry) float64 {
	t.Helper()
	fam := scrape(t, tel)["crn_pool_selections_total"]
	indexed, _ := fam.Sample("path", "indexed")
	fallback, _ := fam.Sample("path", "fallback")
	return indexed + fallback
}

// TestEstimateMemoSkipsSelection: a probe the memo answers runs no
// selection. Repeated estimates of one probe on an unchanged pool select
// once; a mutation on another FROM clause leaves the memo's answer valid,
// and one on the probe's clause costs one more selection. Every answer
// carries the bits of a WithRepCacheSize(0) estimator.
func TestEstimateMemoSkipsSelection(t *testing.T) {
	ctx := context.Background()
	sys, model, _, _ := memoFixture(t)
	pools := [2]*QueriesPool{sys.NewQueriesPool(), sys.NewQueriesPool()} // the memo's, the reference's
	for _, p := range pools {
		for i := 0; i < 8; i++ {
			recordSQL(t, sys, p, fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1900+10*i))
		}
		recordSQL(t, sys, p, "SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND cast_info.role_id < 3")
	}
	qs := parseAll(t, sys,
		"SELECT * FROM title WHERE title.production_year > 1955",
		"SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND cast_info.role_id < 5",
		"SELECT * FROM title WHERE title.production_year > 1999",
	)
	probe, other, same := qs[0], qs[1], qs[2]
	tel := NewTelemetry()
	est := sys.CardinalityEstimator(model, pools[0], WithMaxCandidates(3), WithTelemetry(tel))
	ref := sys.CardinalityEstimator(model, pools[1], WithMaxCandidates(3), WithRepCacheSize(0))
	estimate := func(what string, n int, selections float64) {
		t.Helper()
		want, err := ref.EstimateCardinality(ctx, probe)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			got, err := est.EstimateCardinality(ctx, probe)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("%s, estimate %d", what, i), got, want)
		}
		if got := poolSelections(t, tel); got != selections {
			t.Fatalf("%s: crn_pool_selections_total %v, want %v", what, got, selections)
		}
	}
	estimate("unchanged pool", 10, 1)
	for _, p := range pools {
		p.Add(other, 7)
	}
	estimate("after an insert on another clause", 5, 1)
	for _, p := range pools {
		p.Add(same, 7)
	}
	estimate("after an insert on the probe's clause", 5, 2)
}
