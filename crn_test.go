package crn

import (
	"context"
	"errors"
	"math"
	"testing"

	"crn/internal/card"
	"crn/internal/contain"
	icrn "crn/internal/crn"
)

func testSystem(t *testing.T) *System {
	t.Helper()
	sys, err := OpenSynthetic(context.Background(), WithTitles(400), WithDataSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func tinyTrainOptions() []TrainOption {
	mcfg := DefaultModelConfig()
	mcfg.Hidden = 16
	mcfg.Epochs = 6
	mcfg.Patience = 3
	return []TrainOption{WithPairs(300), WithSeed(3), WithModelConfig(mcfg)}
}

func TestFacadeEndToEnd(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(t)
	q1, err := sys.ParseQuery("SELECT * FROM title WHERE title.production_year > 1990")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := sys.ParseQuery("SELECT * FROM title WHERE title.production_year > 1950")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := sys.TrueCardinality(ctx, q1)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := sys.TrueContainment(ctx, q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	if c1 > 0 && rate != 1 {
		t.Errorf("q1 ⊆ q2 should be fully contained, got %v", rate)
	}

	var epochs int
	opts := append(tinyTrainOptions(), WithProgress(func(epoch int, val float64) { epochs = epoch }))
	model, err := sys.TrainContainmentModel(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if epochs == 0 {
		t.Error("progress callback never fired")
	}
	est, err := model.EstimateContainment(ctx, q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	if est < 0 || est > 1 {
		t.Errorf("estimated rate %v out of [0,1]", est)
	}

	// Pool-based cardinality estimation.
	p := sys.NewQueriesPool()
	if err := sys.SeedPool(ctx, p, 50, 11); err != nil {
		t.Fatal(err)
	}
	if _, added, err := sys.RecordExecuted(ctx, p, q2); err != nil || !added {
		t.Fatalf("record: added=%v err=%v", added, err)
	}
	if _, added, err := sys.RecordExecuted(ctx, p, q2); err != nil || added {
		t.Fatalf("duplicate record: added=%v err=%v", added, err)
	}
	card := sys.CardinalityEstimator(model, p)
	got, err := card.EstimateCardinality(ctx, q1)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0 || math.IsNaN(got) {
		t.Errorf("cardinality estimate = %v", got)
	}
}

func TestFacadeSaveLoad(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(t)
	model, err := sys.TrainContainmentModel(ctx, tinyTrainOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := model.Save()
	if err != nil {
		t.Fatal(err)
	}
	again, err := sys.LoadContainmentModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	q1, _ := sys.ParseQuery("SELECT * FROM title WHERE title.kind_id = 2")
	q2, _ := sys.ParseQuery("SELECT * FROM title WHERE title.kind_id < 5")
	a, err := model.EstimateContainment(ctx, q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := again.EstimateContainment(ctx, q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("loaded model differs: %v vs %v", a, b)
	}
	if _, err := sys.LoadContainmentModel([]byte("bad")); err == nil {
		t.Error("corrupt blob should fail")
	}
}

func TestDimMismatchSentinel(t *testing.T) {
	sys := testSystem(t)
	// A model serialized against a different featurization dimension must
	// be rejected with the typed sentinel.
	mcfg := DefaultModelConfig()
	mcfg.Hidden = 8
	blob, err := icrn.NewModel(mcfg, 3).Save()
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.LoadContainmentModel(blob)
	if err == nil {
		t.Fatal("dimension mismatch should fail")
	}
	if !errors.Is(err, ErrDimMismatch) {
		t.Errorf("error should wrap ErrDimMismatch, got %v", err)
	}
}

func TestDialectSentinel(t *testing.T) {
	sys := testSystem(t)
	_, err := sys.ParseQuery("SELECT count(*) FROM title")
	if err == nil {
		t.Fatal("expected a parse error")
	}
	if !errors.Is(err, ErrDialect) {
		t.Errorf("parse error should wrap ErrDialect, got %v", err)
	}
}

// TestKeyColumnPredicateIsAccepted pins the status quo query.New documents:
// the paper's generator draws predicates from non-key columns only, but a
// predicate on a key column is a valid query — it parses, and both the exact
// executor and the estimator answer it.
func TestKeyColumnPredicateIsAccepted(t *testing.T) {
	ctx := context.Background()
	sys, model, pool := adaptFixture(t)
	base, err := sys.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	est := sys.CardinalityEstimator(model, pool, WithFallback(base))
	for _, sql := range []string{
		"SELECT * FROM title WHERE title.id = 5",
		"SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND cast_info.movie_id < 50",
	} {
		q, err := sys.ParseQuery(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if _, err := sys.TrueCardinality(ctx, q); err != nil {
			t.Errorf("%s: exact execution: %v", sql, err)
		}
		card, err := est.EstimateCardinality(ctx, q)
		if err != nil || math.IsNaN(card) || math.IsInf(card, 0) || card < 0 {
			t.Errorf("%s: estimate %v, err %v; want finite and non-negative", sql, card, err)
		}
	}
}

func TestEstimateContainmentValidatesFROM(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(t)
	model, err := sys.TrainContainmentModel(ctx, tinyTrainOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	q1, _ := sys.ParseQuery("SELECT * FROM title")
	q2, _ := sys.ParseQuery("SELECT * FROM cast_info")
	_, err = model.EstimateContainment(ctx, q1, q2)
	if err == nil {
		t.Fatal("different FROM clauses must be rejected")
	}
	if !errors.Is(err, ErrNotComparable) {
		t.Errorf("error should wrap ErrNotComparable, got %v", err)
	}
}

func TestImproveBaseline(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(t)
	base, err := sys.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	p := sys.NewQueriesPool()
	if err := sys.SeedPool(ctx, p, 40, 13); err != nil {
		t.Fatal(err)
	}
	improved := sys.ImproveBaseline(base, p)
	q, _ := sys.ParseQuery("SELECT * FROM title WHERE title.production_year > 1970")
	got, err := improved.EstimateCardinality(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0 || math.IsNaN(got) {
		t.Errorf("improved estimate = %v", got)
	}
}

func TestFallbackAndNoPoolMatchSentinel(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(t)
	model, err := sys.TrainContainmentModel(ctx, tinyTrainOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	empty := sys.NewQueriesPool()
	base, err := sys.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	est := sys.CardinalityEstimator(model, empty, WithFallback(base))
	q, _ := sys.ParseQuery("SELECT * FROM title")
	got, err := est.EstimateCardinality(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 {
		t.Errorf("fallback estimate = %v", got)
	}
	// Without fallback the empty pool errors with the typed sentinel.
	bare := sys.CardinalityEstimator(model, empty)
	_, err = bare.EstimateCardinality(ctx, q)
	if err == nil {
		t.Fatal("empty pool without fallback should fail")
	}
	if !errors.Is(err, ErrNoPoolMatch) {
		t.Errorf("error should wrap ErrNoPoolMatch, got %v", err)
	}
}

// TestBatchEqualsSingle asserts the core batch contract: batched estimation
// returns exactly what per-query calls return.
func TestBatchEqualsSingle(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(t)
	model, err := sys.TrainContainmentModel(ctx, tinyTrainOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	sqls := []string{
		"SELECT * FROM title WHERE title.production_year > 1990",
		"SELECT * FROM title WHERE title.production_year > 1950",
		"SELECT * FROM title WHERE title.kind_id = 2",
		"SELECT * FROM title WHERE title.kind_id < 5 AND title.production_year < 1980",
		"SELECT * FROM title",
	}
	queries := make([]Query, len(sqls))
	for i, s := range sqls {
		q, err := sys.ParseQuery(s)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}

	// Containment: every ordered pair, batched vs single.
	var pairs [][2]Query
	for _, a := range queries {
		for _, b := range queries {
			pairs = append(pairs, [2]Query{a, b})
		}
	}
	batched, err := model.EstimateContainmentBatch(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		single, err := model.EstimateContainment(ctx, p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if batched[i] != single {
			t.Errorf("pair %d: batch %v != single %v", i, batched[i], single)
		}
	}

	// Cardinality: batched vs single over a seeded pool.
	p := sys.NewQueriesPool()
	if err := sys.SeedPool(ctx, p, 60, 11); err != nil {
		t.Fatal(err)
	}
	base, err := sys.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	est := sys.CardinalityEstimator(model, p, WithFallback(base))
	batchCards, err := est.EstimateCardinalityBatch(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		single, err := est.EstimateCardinality(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if batchCards[i] != single {
			t.Errorf("query %d: batch %v != single %v", i, batchCards[i], single)
		}
	}
}

// TestContextCancellation covers the cancellation contract of every layer:
// exact execution, training (pre-cancelled and mid-training), and
// estimation all abort with context.Canceled.
func TestContextCancellation(t *testing.T) {
	sys := testSystem(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	q, _ := sys.ParseQuery("SELECT * FROM title WHERE title.production_year > 1990")
	if _, err := sys.TrueCardinality(cancelled, q); !errors.Is(err, context.Canceled) {
		t.Errorf("TrueCardinality: want context.Canceled, got %v", err)
	}
	if _, err := sys.TrainContainmentModel(cancelled, tinyTrainOptions()...); !errors.Is(err, context.Canceled) {
		t.Errorf("TrainContainmentModel (pre-cancelled): want context.Canceled, got %v", err)
	}

	// Cancel from inside the progress callback: the next epoch boundary
	// must observe it.
	ctx, cancelMid := context.WithCancel(context.Background())
	opts := append(tinyTrainOptions(), WithProgress(func(epoch int, _ float64) {
		if epoch == 1 {
			cancelMid()
		}
	}))
	if _, err := sys.TrainContainmentModel(ctx, opts...); !errors.Is(err, context.Canceled) {
		t.Errorf("TrainContainmentModel (mid-training): want context.Canceled, got %v", err)
	}

	// Estimation on a trained model.
	model, err := sys.TrainContainmentModel(context.Background(), tinyTrainOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.EstimateContainment(cancelled, q, q); !errors.Is(err, context.Canceled) {
		t.Errorf("EstimateContainment: want context.Canceled, got %v", err)
	}
	p := sys.NewQueriesPool()
	if err := sys.SeedPool(context.Background(), p, 20, 11); err != nil {
		t.Fatal(err)
	}
	est := sys.CardinalityEstimator(model, p)
	if _, err := est.EstimateCardinality(cancelled, q); !errors.Is(err, context.Canceled) {
		t.Errorf("EstimateCardinality: want context.Canceled, got %v", err)
	}
	if _, err := est.EstimateCardinalityBatch(cancelled, []Query{q, q}); !errors.Is(err, context.Canceled) {
		t.Errorf("EstimateCardinalityBatch: want context.Canceled, got %v", err)
	}
	if err := sys.SeedPool(cancelled, sys.NewQueriesPool(), 10, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("SeedPool: want context.Canceled, got %v", err)
	}

	// Cancelled mid-batch: the rate pass checks ctx between its units of
	// work, so the model cancelling on its 2nd call is not called again.
	mp := sys.NewQueriesPool()
	for _, sql := range []string{
		"SELECT * FROM title",
		"SELECT * FROM title WHERE title.kind_id < 5",
		"SELECT * FROM title WHERE title.production_year > 1950",
	} {
		pq, _ := sys.ParseQuery(sql)
		c, err := sys.TrueCardinality(context.Background(), pq)
		if err != nil {
			t.Fatal(err)
		}
		mp.Add(pq, c)
	}
	midCtx, cancelMid := context.WithCancel(context.Background())
	m := &cancelOnCall{n: 2, cancel: cancelMid}
	if _, err := sys.ImproveBaseline(m, mp).EstimateCardinality(midCtx, q); !errors.Is(err, context.Canceled) || m.calls != m.n {
		t.Errorf("ImproveBaseline mid-batch: want context.Canceled after %d calls, got %v after %d", m.n, err, m.calls)
	}
	midCtx, cancelMid = context.WithCancel(context.Background())
	m = &cancelOnCall{n: 2, cancel: cancelMid}
	if _, err := card.New(contain.TruthRate{T: m}, mp).EstimateCards(midCtx, []Query{q, q}); !errors.Is(err, context.Canceled) || m.calls != m.n {
		t.Errorf("TruthRate estimator mid-batch: want context.Canceled after %d calls, got %v after %d", m.n, err, m.calls)
	}
}

// cancelOnCall is a cardinality model and containment oracle that cancels
// its context on its nth call.
type cancelOnCall struct {
	n, calls int
	cancel   context.CancelFunc
}

func (c *cancelOnCall) tick() {
	c.calls++
	if c.calls == c.n {
		c.cancel()
	}
}

func (c *cancelOnCall) EstimateCard(Query) (float64, error) { c.tick(); return 100, nil }

func (c *cancelOnCall) ContainmentRate(_, _ Query) (float64, error) { c.tick(); return 0.5, nil }

func TestCompoundExpressions(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(t)
	q1, _ := sys.ParseQuery("SELECT * FROM title WHERE title.production_year > 1950")
	q2, _ := sys.ParseQuery("SELECT * FROM title WHERE title.kind_id = 2")
	or := OrExpr(QueryExpr(q1), QueryExpr(q2))
	truth, err := sys.TrueCompound(or)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := sys.TrueCardinality(ctx, q1)
	c2, _ := sys.TrueCardinality(ctx, q2)
	qi, _ := q1.Intersect(q2)
	ci, _ := sys.TrueCardinality(ctx, qi)
	if math.Abs(truth-float64(c1+c2-ci)) > 1e-9 {
		t.Errorf("OR = %v, want %d", truth, c1+c2-ci)
	}
	base, err := sys.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	est, err := sys.EstimateCompound(base, ExceptExpr(QueryExpr(q1), QueryExpr(q2)))
	if err != nil {
		t.Fatal(err)
	}
	if est < 0 || math.IsNaN(est) {
		t.Errorf("EXCEPT estimate = %v", est)
	}
	if _, err := sys.TrueCompound(UnionExpr(QueryExpr(q1), QueryExpr(q2))); err != nil {
		t.Errorf("UNION: %v", err)
	}
}

func TestJoinOrderFacade(t *testing.T) {
	sys := testSystem(t)
	base, err := sys.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	q, _ := sys.ParseQuery(`SELECT * FROM title, cast_info, movie_keyword
		WHERE title.id = cast_info.movie_id AND title.id = movie_keyword.movie_id
		AND cast_info.role_id = 2`)
	order, cost, err := sys.OptimizeJoinOrder(base, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || cost < 0 {
		t.Errorf("order = %v, cost = %v", order, cost)
	}
	trueCost, err := sys.TrueJoinCost(q, order)
	if err != nil {
		t.Fatal(err)
	}
	if trueCost < 0 {
		t.Errorf("true cost = %v", trueCost)
	}
	if _, err := sys.TrueJoinCost(q, []string{"title"}); err == nil {
		t.Error("bad order should fail")
	}
}

func TestOpenSyntheticDefaults(t *testing.T) {
	sys, err := OpenSynthetic(context.Background(), WithTitles(200))
	if err != nil {
		t.Fatal(err)
	}
	if sys.DB().NumRows("title") != 200 {
		t.Errorf("titles = %d", sys.DB().NumRows("title"))
	}
	if sys.Schema().NumTables() != 6 {
		t.Errorf("tables = %d", sys.Schema().NumTables())
	}
}
