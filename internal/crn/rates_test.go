package crn

import (
	"context"
	"math"
	"testing"

	"crn/internal/contain"
	"crn/internal/datagen"
	"crn/internal/feature"
	"crn/internal/query"
	"crn/internal/schema"
	"crn/internal/sqlparse"
)

func ratesFixture(t *testing.T) (*Rates, *schema.Schema) {
	t.Helper()
	s := schema.IMDB()
	cfg := datagen.DefaultConfig()
	cfg.Titles = 200
	d, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := feature.NewEncoder(s, d)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := DefaultConfig()
	mcfg.Hidden = 8
	m := NewModel(mcfg, enc.Dim())
	return NewRates(m, enc), s
}

func TestRatesSingleMatchesBatch(t *testing.T) {
	r, s := ratesFixture(t)
	q1 := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 1")
	q2 := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id < 5")
	q3 := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1950")
	single, err := r.EstimateRate(q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	qs, idx := contain.IndexPairs([][2]query.Query{{q1, q2}, {q2, q3}, {q3, q1}})
	batch, err := r.EstimateRatesIndexed(context.Background(), qs, idx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(single-batch[0]) > 1e-12 {
		t.Errorf("batch[0] = %v, single = %v", batch[0], single)
	}
	for i, v := range batch {
		if v < 0 || v > 1 {
			t.Errorf("batch[%d] = %v out of [0,1]", i, v)
		}
	}
}

func TestRatesIndexedMatchesBatch(t *testing.T) {
	r, s := ratesFixture(t)
	q1 := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 1")
	q2 := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id < 5")
	q3 := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1950")
	qs, idx := contain.IndexPairs([][2]query.Query{{q1, q2}, {q2, q3}, {q3, q1}, {q1, q1}})
	batch, err := r.EstimateRatesIndexed(context.Background(), qs, idx)
	if err != nil {
		t.Fatal(err)
	}
	// The same pairs over a list with a duplicated listing of q1, which must
	// not change any estimate.
	indexed, err := r.EstimateRatesIndexed(context.Background(),
		[]query.Query{q1, q2, q3, q1},
		[][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if batch[i] != indexed[i] {
			t.Errorf("pair %d: batch %v != indexed %v", i, batch[i], indexed[i])
		}
	}
	// Calls are deterministic.
	a, _ := r.EstimateRate(q1, q1)
	b, _ := r.EstimateRate(q1, q1)
	if a != b {
		t.Error("repeated prediction differs")
	}
}

func TestRatesErrorsOnUnknownColumn(t *testing.T) {
	r, _ := ratesFixture(t)
	bad := query.Query{
		Tables: []string{schema.Title},
		Preds:  []query.Predicate{{Col: schema.ColumnRef{Table: schema.Title, Column: "ghost"}, Op: schema.OpEQ}},
	}
	if _, err := r.EstimateRate(bad, bad); err == nil {
		t.Error("unknown column should fail")
	}
}
