package card

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"crn/internal/contain"
	"crn/internal/datagen"
	"crn/internal/exec"
	"crn/internal/pool"
	"crn/internal/query"
	"crn/internal/schema"
	"crn/internal/sqlparse"
)

var s = schema.IMDB()

func fixture(t *testing.T) (*exec.Executor, *pool.Pool) {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.Titles = 400
	d, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exec.New(d)
	if err != nil {
		t.Fatal(err)
	}
	qp := pool.New()
	sqls := []string{
		"SELECT * FROM title",
		"SELECT * FROM title WHERE title.production_year > 1950",
		"SELECT * FROM title WHERE title.kind_id < 5",
		"SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id",
		"SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND cast_info.role_id < 6",
	}
	for _, sql := range sqls {
		q := sqlparse.MustParse(s, sql)
		c, err := ex.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		qp.Add(q, c)
	}
	return ex, qp
}

// With an exact containment oracle and any non-empty matching pool, the
// Cnt2Crd estimate is exactly the true cardinality: every old query gives
// x/y·|Qold| = (|Qi|/|Qold|)/(|Qi|/|Qnew|)·|Qold| = |Qnew| when rates are
// exact. This isolates the technique from model error.
func TestOracleRatesRecoverExactCardinality(t *testing.T) {
	ex, qp := fixture(t)
	est := New(contain.TruthRate{T: ex}, qp)
	queries := []string{
		"SELECT * FROM title WHERE title.production_year > 1960",
		"SELECT * FROM title WHERE title.kind_id = 2 AND title.production_year < 1990",
		"SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND cast_info.nr_order < 3",
	}
	for _, sql := range queries {
		q := sqlparse.MustParse(s, sql)
		truth, err := ex.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		if truth == 0 {
			continue
		}
		got, err := est.EstimateCard(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-float64(truth)) > 1e-6*float64(truth) {
			t.Errorf("%s: Cnt2Crd(oracle) = %v, truth = %d", sql, got, truth)
		}
	}
}

func TestNoMatchWithoutFallbackFails(t *testing.T) {
	ex, qp := fixture(t)
	est := New(contain.TruthRate{T: ex}, qp)
	q := sqlparse.MustParse(s, "SELECT * FROM movie_keyword")
	if _, err := est.EstimateCard(q); err == nil {
		t.Error("unmatched FROM clause should fail without fallback")
	}
}

func TestFallbackUsedWhenNoMatch(t *testing.T) {
	ex, qp := fixture(t)
	est := New(contain.TruthRate{T: ex}, qp)
	est.Fallback = contain.CardFunc(func(q query.Query) (float64, error) { return 42, nil })
	q := sqlparse.MustParse(s, "SELECT * FROM movie_keyword")
	got, err := est.EstimateCard(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("fallback result = %v", got)
	}
}

func TestEpsilonGuardSkipsDisjointOldQueries(t *testing.T) {
	// Pool with one old query that is disjoint from the probe: y_rate = 0
	// must be skipped, leaving no results -> error without fallback.
	cfg := datagen.DefaultConfig()
	cfg.Titles = 200
	d, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exec.New(d)
	if err != nil {
		t.Fatal(err)
	}
	qp := pool.New()
	old := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year < 1900")
	c, err := ex.Cardinality(old)
	if err != nil {
		t.Fatal(err)
	}
	qp.Add(old, c)
	est := New(contain.TruthRate{T: ex}, qp)
	probe := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1990")
	if _, err := est.EstimateCard(probe); err == nil {
		t.Error("all-skipped pool should fail without fallback")
	}
}

func TestFinalFunctionChoice(t *testing.T) {
	// Rates model that yields a known spread of per-old estimates.
	ex, qp := fixture(t)
	q := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1960")
	est := New(contain.TruthRate{T: ex}, qp)
	est.Final = pool.Mean
	got, err := est.EstimateCard(q)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := ex.Cardinality(q)
	// Oracle rates: every pool entry gives the exact answer, so mean ==
	// median == truth.
	if math.Abs(got-float64(truth)) > 1e-6*float64(truth) {
		t.Errorf("mean-final estimate = %v, truth = %d", got, truth)
	}
}

func TestErrorPropagation(t *testing.T) {
	_, qp := fixture(t)
	boom := errors.New("boom")
	bad := contain.RateFunc(func(q1, q2 query.Query) (float64, error) { return 0, boom })
	est := New(bad, qp)
	// The pool holds no query equivalent to the probe, so its facts leave
	// rates to the failing model: `SELECT * FROM title` itself would be
	// answered exactly, with no rate pass.
	q := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id > 2")
	if _, err := est.EstimateCard(q); !errors.Is(err, boom) {
		t.Errorf("expected boom, got %v", err)
	}
}

// recordingRates answers every rate with rate and records each pair it was
// asked for as "Q1 ⊂% Q2" by canonical key.
type recordingRates struct {
	rate  float64
	pairs []string
}

func (r *recordingRates) EstimateRatesIndexed(_ context.Context, qs []query.Query, idx [][2]int) ([]float64, error) {
	out := make([]float64, len(idx))
	for i, p := range idx {
		r.pairs = append(r.pairs, qs[p[0]].Key()+" ⊂% "+qs[p[1]].Key())
		out[i] = r.rate
	}
	return out, nil
}

// TestFactsDecideRates: the rate pass receives only the rates the
// predicates leave open — none of a disjoint candidate, x_rate alone of an
// implied one, y_rate alone of a reverse-implied one — a probe with an
// equivalent candidate or contradictory predicates is answered exactly with
// no rate at all (the contradictory one even without a pool match), and
// every other answer is clamped between the cardinalities of the candidates
// it contains and those containing it.
func TestFactsDecideRates(t *testing.T) {
	_, qp := fixture(t)
	cards := map[string]float64{}
	for _, e := range qp.Entries() {
		cards[e.Q.Key()] = float64(e.Card)
	}
	key := func(sql string) string { return sqlparse.MustParse(s, sql).Key() }
	all := key("SELECT * FROM title")
	y1950 := key("SELECT * FROM title WHERE title.production_year > 1950")
	kind5 := key("SELECT * FROM title WHERE title.kind_id < 5")
	for _, tc := range []struct {
		probe       string
		pairs       []string // Qold ⊂% Qnew is x_rate, Qnew ⊂% Qold is y_rate
		floor, ceil float64  // bounds the answer must respect
		exact       float64  // the answer, when no pair is expected
	}{
		{ // implied by every candidate: x_rate alone, at most the smallest |Qold|
			probe: "SELECT * FROM title WHERE title.kind_id < 5 AND title.production_year > 1960",
			pairs: []string{all + " ⊂% %s", y1950 + " ⊂% %s", kind5 + " ⊂% %s"},
			ceil:  min(cards[all], cards[y1950], cards[kind5]),
		},
		{ // implied by title, containing y > 1950, undecided against kind < 5
			probe: "SELECT * FROM title WHERE title.production_year > 1940",
			pairs: []string{all + " ⊂% %s", "%s ⊂% " + y1950, kind5 + " ⊂% %s", "%s ⊂% " + kind5},
			floor: cards[y1950], ceil: cards[all],
		},
		{ // disjoint from y > 1950: no pair of it
			probe: "SELECT * FROM title WHERE title.production_year < 1900",
			pairs: []string{all + " ⊂% %s", kind5 + " ⊂% %s", "%s ⊂% " + kind5},
			ceil:  cards[all],
		},
		{probe: "SELECT * FROM title WHERE title.kind_id < 5", exact: cards[kind5]},
		{probe: "SELECT * FROM title WHERE title.kind_id = 1 AND title.kind_id = 2", exact: 0},
		{probe: "SELECT * FROM movie_keyword WHERE movie_keyword.keyword_id > 5 AND movie_keyword.keyword_id < 3", exact: 0},
	} {
		rates := &recordingRates{rate: 0.5}
		q := sqlparse.MustParse(s, tc.probe)
		got, err := New(rates, qp).EstimateCard(q)
		if err != nil {
			t.Fatalf("%s: %v", tc.probe, err)
		}
		var want []string
		for _, p := range tc.pairs {
			want = append(want, strings.ReplaceAll(p, "%s", q.Key()))
		}
		if !reflect.DeepEqual(rates.pairs, want) {
			t.Errorf("%s: rate pairs\n%q\nwant\n%q", tc.probe, rates.pairs, want)
		}
		switch {
		case len(want) == 0 && got != tc.exact:
			t.Errorf("%s = %v, want exactly %v", tc.probe, got, tc.exact)
		case len(want) > 0 && (got < tc.floor || tc.ceil > 0 && got > tc.ceil):
			t.Errorf("%s = %v outside [%v, %v]", tc.probe, got, tc.floor, tc.ceil)
		}
	}
}

func TestMisconfiguredEstimator(t *testing.T) {
	est := &Estimator{}
	if _, err := est.EstimateCard(query.Query{Tables: []string{"title"}}); err == nil {
		t.Error("estimator without rates/pool should fail")
	}
}

func TestImprovedConstruction(t *testing.T) {
	ex, qp := fixture(t)
	// Improved(truth-cardinality model) must also recover near-exact
	// cardinalities: Crd2Cnt(truth) gives exact rates, Cnt2Crd inverts.
	improved := Improved(contain.TruthCard{T: ex}, qp)
	q := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 3")
	truth, err := ex.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	if truth == 0 {
		t.Skip("empty truth on this seed")
	}
	got, err := improved.EstimateCard(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-float64(truth)) > 1e-6*float64(truth) {
		t.Errorf("Improved(oracle) = %v, truth = %d", got, truth)
	}
}

// Property over many probes: with oracle rates the technique is exact for
// every query whose FROM clause the pool covers and whose result is
// non-empty.
func TestOracleExactnessSweep(t *testing.T) {
	ex, qp := fixture(t)
	est := New(contain.TruthRate{T: ex}, qp)
	for year := 1900; year <= 2000; year += 10 {
		sql := fmt.Sprintf("SELECT * FROM title WHERE title.production_year < %d", year)
		q := sqlparse.MustParse(s, sql)
		truth, err := ex.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		if truth == 0 {
			continue
		}
		got, err := est.EstimateCard(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-float64(truth)) > 1e-6*float64(truth) {
			t.Errorf("year %d: got %v want %d", year, got, truth)
		}
	}
}

// pooledScratch runs call until the package's scratch pool hands back a
// scratch a call has used (under -race sync.Pool drops Puts at random).
func pooledScratch(t *testing.T, call func()) *scratch {
	t.Helper()
	for try := 0; try < 100; try++ {
		call()
		if sc := scratchPool.Get().(*scratch); cap(sc.arena) > 0 {
			return sc
		}
	}
	t.Fatal("no used scratch came back from the pool")
	return nil
}

// TestScratchPinsNothingBetweenCalls: a released scratch keeps its capacity
// and nothing else — no pool entry, no query, no map key — over the whole
// backing arrays.
func TestScratchPinsNothingBetweenCalls(t *testing.T) {
	ex, qp := fixture(t)
	qp.Add(sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 99"), 0) // dropped by the Card > 0 filter
	probes := []query.Query{
		sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1960"),
		sqlparse.MustParse(s, "SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND cast_info.role_id < 4"),
		sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id < 4"),
	}
	est := New(contain.TruthRate{T: ex}, qp)
	sc := pooledScratch(t, func() {
		if _, err := est.EstimateCards(context.Background(), probes); err != nil {
			t.Fatal(err)
		}
	})
	for i, e := range sc.arena[:cap(sc.arena)] {
		if !reflect.ValueOf(e).IsZero() {
			t.Fatalf("arena[%d] still holds %v", i, e.Q)
		}
	}
	for i, q := range sc.list[:cap(sc.list)] {
		if !reflect.ValueOf(q).IsZero() {
			t.Fatalf("list[%d] still holds %v", i, q)
		}
	}
	if len(sc.seen) != 0 || len(sc.arena)+len(sc.rels)+len(sc.list)+len(sc.idx)+len(sc.spans)+len(sc.results) != 0 {
		t.Fatalf("released scratch is not empty: %d seen", len(sc.seen))
	}
}

// TestOversizeScratchIsDropped: a frame far above maxScratchEntries grows the
// scratch it was handed and must not park it — whatever the pool holds
// afterwards is within the bound — and the answers are those of a small call.
func TestOversizeScratchIsDropped(t *testing.T) {
	_, qp := fixture(t)
	half := contain.RateFunc(func(q1, q2 query.Query) (float64, error) { return 0.5, nil })
	probe := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1960")
	est := New(half, qp)
	want, err := est.EstimateCard(probe) // also leaves a small scratch for the big call to grow
	if err != nil {
		t.Fatal(err)
	}
	big := make([]query.Query, 2*maxScratchEntries)
	for i := range big {
		big[i] = probe
	}
	got, err := est.EstimateCards(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != want {
			t.Fatalf("big[%d] = %v, want %v", i, v, want)
		}
	}
	for i := 0; i < 4; i++ {
		if sc := scratchPool.Get().(*scratch); sc.oversize() {
			t.Fatalf("the pool retained an oversize scratch: %d spans, %d entries, %d queries, %d pairs",
				cap(sc.spans), cap(sc.arena), cap(sc.list), cap(sc.idx))
		}
	}
}

// mapHasRoomFor reports whether m takes n new keys without allocating, i.e.
// still has the capacity of a map that once held that many.
func mapHasRoomFor(m map[int64]int, n int) bool {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		m[int64(i)] = i
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs == before.Mallocs
}

// TestScratchMapsDoNotStayLarge: clear(map) costs the map's capacity, so a
// call that met thousands of distinct pool entries — well inside
// maxScratchEntries, the scratch is pooled — must not leave every later call
// on that scratch clearing a map of that size.
func TestScratchMapsDoNotStayLarge(t *testing.T) {
	// reset itself: the map is kept up to the bound and replaced beyond it.
	// mapHasRoomFor counts the whole process's allocations, and the runtime
	// now and then allocates on its own (under -race), which can only make a
	// kept map look replaced: a kept map shows as kept in one of a few tries,
	// a replaced one in none.
	var sc *scratch
	for try := 0; ; try++ {
		if try == 5 {
			t.Fatal("reset replaced a seen map at the bound: a hot batch would re-make it on every call")
		}
		sc = &scratch{seen: make(map[int64]int)}
		for i := 0; i < maxScratchMapEntries; i++ {
			sc.seen[int64(i)] = i
		}
		sc.reset()
		if len(sc.seen) != 0 {
			t.Fatalf("reset left %d seen keys", len(sc.seen))
		}
		if mapHasRoomFor(sc.seen, maxScratchMapEntries) {
			break
		}
	}
	sc.seen[maxScratchMapEntries] = 0
	sc.reset()
	if len(sc.seen) != 0 {
		t.Fatalf("reset left %d seen keys", len(sc.seen))
	}
	if mapHasRoomFor(sc.seen, maxScratchMapEntries) {
		t.Fatal("reset kept a seen map that had grown above the bound")
	}

	// Through EstimateCards: one probe against 3000 pooled queries of its
	// FROM clause, then single estimates against a small pool.
	const entries = 3000
	bigPool := pool.New()
	for i := 0; i < entries; i++ {
		bigPool.Add(sqlparse.MustParse(s, fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", i)), int64(i+1))
	}
	_, qp := fixture(t)
	half := contain.RateFunc(func(q1, q2 query.Query) (float64, error) { return 0.5, nil })
	big, small := New(half, bigPool), New(half, qp)
	probe := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id < 4")
	want, err := small.EstimateCard(probe)
	if err != nil {
		t.Fatal(err)
	}
	for try := 0; ; try++ {
		if try == 100 {
			t.Fatal("the big call's scratch never came back from the pool")
		}
		if _, err := big.EstimateCard(probe); err != nil {
			t.Fatal(err)
		}
		got := scratchPool.Get().(*scratch)
		if cap(got.arena) < entries { // under -race sync.Pool drops Puts at random
			continue
		}
		if got.oversize() {
			t.Fatalf("%d candidates made the scratch oversize: the test no longer reaches the pooled path", entries)
		}
		if mapHasRoomFor(got.seen, entries) {
			t.Fatalf("the pooled scratch kept a seen map sized for %d entries", entries)
		}
		got.reset()
		scratchPool.Put(got)
		break
	}
	for i := 0; i < 3; i++ {
		if got, err := small.EstimateCard(probe); err != nil || got != want {
			t.Fatalf("single estimate after the big call = %v, %v; want %v", got, err, want)
		}
	}
}
