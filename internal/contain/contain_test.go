package contain

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"crn/internal/datagen"
	"crn/internal/exec"
	"crn/internal/query"
	"crn/internal/schema"
	"crn/internal/sqlparse"
)

var (
	s   = schema.IMDB()
	ctx = context.Background()
)

func oracle(t *testing.T) *exec.Executor {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.Titles = 300
	d, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exec.New(d)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// Crd2Cnt over an exact cardinality oracle must reproduce the exact
// containment rate — the algebra of §4.1.1 is exact when M is exact.
func TestCrd2CntOnOracleIsExact(t *testing.T) {
	ex := oracle(t)
	rates := Crd2Cnt{M: TruthCard{T: ex}, Name: "Crd2Cnt(truth)"}
	pairs := [][2]string{
		{
			"SELECT * FROM title WHERE title.production_year > 1950",
			"SELECT * FROM title WHERE title.production_year > 1900",
		},
		{
			"SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND cast_info.role_id = 2",
			"SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND title.kind_id < 5",
		},
	}
	for _, p := range pairs {
		q1 := sqlparse.MustParse(s, p[0])
		q2 := sqlparse.MustParse(s, p[1])
		got, err := Rate(ctx, rates, q1, q2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ex.ContainmentRate(q1, q2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s vs %s: Crd2Cnt(oracle) = %v, truth = %v", q1, q2, got, want)
		}
	}
}

func TestCrd2CntClampsToUnitInterval(t *testing.T) {
	// A deliberately unsound model: intersection estimated larger than Q1.
	bad := CardFunc(func(q query.Query) (float64, error) {
		return float64(10 + len(q.Preds)*100), nil
	})
	rates := Crd2Cnt{M: bad}
	q1 := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 1")
	q2 := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 2")
	rate, err := Rate(ctx, rates, q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	if rate < 0 || rate > 1 {
		t.Errorf("rate not clamped: %v", rate)
	}
}

func TestCrd2CntZeroCardinality(t *testing.T) {
	zero := CardFunc(func(q query.Query) (float64, error) { return 0, nil })
	rates := Crd2Cnt{M: zero}
	q := sqlparse.MustParse(s, "SELECT * FROM title")
	rate, err := Rate(ctx, rates, q, q)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 0 {
		t.Errorf("zero-cardinality rate = %v, want 0 (definition §2)", rate)
	}
}

func TestCrd2CntDifferentFROMFails(t *testing.T) {
	rates := Crd2Cnt{M: CardFunc(func(query.Query) (float64, error) { return 1, nil })}
	q1 := sqlparse.MustParse(s, "SELECT * FROM title")
	q2 := sqlparse.MustParse(s, "SELECT * FROM cast_info")
	if _, err := Rate(ctx, rates, q1, q2); err == nil {
		t.Error("different FROM clauses should fail")
	}
}

func TestCrd2CntPropagatesModelError(t *testing.T) {
	boom := errors.New("boom")
	rates := Crd2Cnt{M: CardFunc(func(query.Query) (float64, error) { return 0, boom })}
	q := sqlparse.MustParse(s, "SELECT * FROM title")
	if _, err := Rate(ctx, rates, q, q); !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestTruthAdapters(t *testing.T) {
	ex := oracle(t)
	q := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 3")
	card, err := TruthCard{T: ex}.EstimateCard(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ex.Cardinality(q)
	if card != float64(want) {
		t.Errorf("TruthCard = %v, want %d", card, want)
	}
	rate, err := Rate(ctx, TruthRate{T: ex}, q, q)
	if err != nil {
		t.Fatal(err)
	}
	if want > 0 && rate != 1 {
		t.Errorf("TruthRate self = %v", rate)
	}
}

func TestValidate(t *testing.T) {
	q1 := sqlparse.MustParse(s, "SELECT * FROM title")
	q2 := sqlparse.MustParse(s, "SELECT * FROM cast_info")
	if err := Validate(q1, q1); err != nil {
		t.Errorf("same FROM should validate: %v", err)
	}
	if err := Validate(q1, q2); err == nil {
		t.Error("different FROM should not validate")
	}
}

// countingCard is a batch-capable cardinality model that counts its calls
// and the queries it evaluated.
type countingCard struct {
	card      func(query.Query) float64
	singles   int
	batches   int
	evaluated int
}

func (c *countingCard) EstimateCard(q query.Query) (float64, error) {
	c.singles++
	c.evaluated++
	return c.card(q), nil
}

func (c *countingCard) EstimateCards(qs []query.Query) ([]float64, error) {
	c.batches++
	c.evaluated += len(qs)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = c.card(q)
	}
	return out, nil
}

// crd2CntReference is the per-pair formula, evaluated independently of the
// indexed batch: clamp(M(Q1∩Q2)/M(Q1)), and 0 when M(Q1) ≤ 0.
func crd2CntReference(card func(query.Query) float64, q1, q2 query.Query) (float64, error) {
	qi, err := q1.Intersect(q2)
	if err != nil {
		return 0, err
	}
	c1 := card(q1)
	if c1 <= 0 {
		return 0, nil
	}
	rate := card(qi) / c1
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return rate, nil
}

func TestCrd2CntIndexedMatchesPerPair(t *testing.T) {
	queries := []query.Query{
		sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 1"),
		sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id < 5"),
		sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1950"),
		sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 1 AND title.production_year > 1950 AND title.production_year < 2000"),
		sqlparse.MustParse(s, "SELECT * FROM title"),
	}
	// An unsound model, by predicate count, so that the pairs below cover a
	// ratio above 1, one inside (0,1), a zero Q1 (once over -5, once over 0),
	// a negative ratio, a query with itself and an exact 1.
	card := func(q query.Query) float64 {
		switch len(q.Preds) {
		case 0:
			return 1000
		case 1:
			return 17
		case 2:
			return 40
		case 3:
			return 0
		case 4:
			return -5
		}
		return 3
	}
	pairs := [][2]int{{0, 1}, {4, 0}, {3, 1}, {3, 4}, {1, 3}, {2, 2}, {0, 4}}
	plainCalls := 0
	plain := CardFunc(func(q query.Query) (float64, error) { plainCalls++; return card(q), nil })
	batched := &countingCard{card: card}
	for name, m := range map[string]CardEstimator{"batched": batched, "plain": plain} {
		got, err := Crd2Cnt{M: m}.EstimateRatesIndexed(ctx, queries, pairs)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			want, err := crd2CntReference(card, queries[p[0]], queries[p[1]])
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Errorf("%s pair %d: indexed %v, per-pair reference %v", name, i, got[i], want)
			}
		}
	}
	// M is evaluated once per listed query and once per pair's intersection.
	if want := len(queries) + len(pairs); batched.evaluated != want || plainCalls != want {
		t.Errorf("M evaluated %d (batched) and %d (plain) times, want %d", batched.evaluated, plainCalls, want)
	}
	if batched.batches != 2 || batched.singles != 0 {
		t.Errorf("batched M: %d batch calls and %d single calls, want 2 and 0", batched.batches, batched.singles)
	}

	boom := errors.New("boom")
	failing := CardFunc(func(query.Query) (float64, error) { return 0, boom })
	if _, err := (Crd2Cnt{M: failing}).EstimateRatesIndexed(ctx, queries, pairs); !errors.Is(err, boom) {
		t.Errorf("model error not propagated: %v", err)
	}
	other := sqlparse.MustParse(s, "SELECT * FROM cast_info")
	_, err := Crd2Cnt{M: plain}.EstimateRatesIndexed(ctx, append(queries, other), [][2]int{{0, 1}, {0, len(queries)}})
	if _, want := queries[0].Intersect(other); err == nil || err.Error() != want.Error() {
		t.Errorf("Intersect error not propagated: got %v, want %v", err, want)
	}
}

// Property: for random query pairs over random data, Crd2Cnt(oracle) always
// returns the true containment rate in [0,1].
func TestCrd2CntOracleProperty(t *testing.T) {
	ex := oracle(t)
	rates := Crd2Cnt{M: TruthCard{T: ex}}
	rng := rand.New(rand.NewSource(31))
	ops := schema.Operators()
	for i := 0; i < 30; i++ {
		y1 := 1880 + rng.Intn(130)
		y2 := 1880 + rng.Intn(130)
		k := 1 + rng.Intn(7)
		q1, err := query.New(s, []string{schema.Title}, nil, []query.Predicate{
			{Col: schema.ColumnRef{Table: schema.Title, Column: "production_year"}, Op: ops[rng.Intn(3)], Val: int64(y1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		q2, err := query.New(s, []string{schema.Title}, nil, []query.Predicate{
			{Col: schema.ColumnRef{Table: schema.Title, Column: "production_year"}, Op: ops[rng.Intn(3)], Val: int64(y2)},
			{Col: schema.ColumnRef{Table: schema.Title, Column: "kind_id"}, Op: schema.OpEQ, Val: int64(k)},
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Rate(ctx, rates, q1, q2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ex.ContainmentRate(q1, q2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 || got < 0 || got > 1 {
			t.Fatalf("rate mismatch: got %v want %v", got, want)
		}
	}
}
