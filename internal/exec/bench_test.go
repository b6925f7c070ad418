package exec

import (
	"context"
	"testing"

	"crn/internal/datagen"
	"crn/internal/query"
	"crn/internal/schema"
)

// benchFixture returns an executor over a generated database and, per join
// count 0..5, the star query over title and that many satellites with a
// `title.production_year > v` predicate for each v in 1880..2009.
func benchFixture(b *testing.B, titles int) (*Executor, [][]query.Query) {
	b.Helper()
	cfg := datagen.DefaultConfig()
	cfg.Titles = titles
	d, err := datagen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(d)
	if err != nil {
		b.Fatal(err)
	}
	sats := []string{schema.MovieCompany, schema.CastInfo, schema.MovieInfo, schema.MovieInfoIdx, schema.MovieKeyword}
	variants := make([][]query.Query, len(sats)+1)
	for joins := range variants {
		tables := []string{schema.Title}
		var js []query.Join
		for k := 0; k < joins; k++ {
			tables = append(tables, sats[k])
			js = append(js, query.Join{
				Left:  schema.ColumnRef{Table: schema.Title, Column: "id"},
				Right: schema.ColumnRef{Table: sats[k], Column: "movie_id"},
			})
		}
		for v := int64(1880); v < 2010; v++ {
			preds := []query.Predicate{{
				Col: schema.ColumnRef{Table: schema.Title, Column: "production_year"},
				Op:  schema.OpGT,
				Val: v,
			}}
			q, err := query.New(schema.IMDB(), tables, js, preds)
			if err != nil {
				b.Fatal(err)
			}
			variants[joins] = append(variants[joins], q)
		}
	}
	return e, variants
}

var sinkCard int64

// BenchmarkCardinality measures exact evaluation cost per join count — the
// labeling substrate behind every training set. It calls the evaluator
// directly: through Cardinality the memo would answer every repeat.
func BenchmarkCardinality(b *testing.B) {
	e, variants := benchFixture(b, 4000)
	ctx := context.Background()
	for joins, qs := range variants {
		b.Run(joinName(joins), func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				c, err := e.compute(ctx, qs[i%len(qs)])
				if err != nil {
					b.Fatal(err)
				}
				sinkCard += c
			}
		})
	}
}

var sinkRate float64

// BenchmarkContainmentRateTruth measures one exact containment rate, |Q1| and
// |Q1∩Q2| both evaluated: the memo is emptied before every call.
func BenchmarkContainmentRateTruth(b *testing.B) {
	e, variants := benchFixture(b, 4000)
	qs := variants[2]
	for i := 0; b.Loop(); i++ {
		clear(e.cache)
		r, err := e.ContainmentRate(qs[0], qs[i%len(qs)])
		if err != nil {
			b.Fatal(err)
		}
		sinkRate += r
	}
}

func joinName(j int) string {
	return string(rune('0'+j)) + "joins"
}
