// Improving an existing cardinality model without changing it — the
// paper's §7 construction: Improved M = Cnt2Crd(Crd2Cnt(M)).
//
// The demo takes the PostgreSQL-style estimator M, converts it to a
// containment-rate model via Crd2Cnt, then back to a cardinality model via
// the queries pool, and compares M against Improved M on a correlated
// multi-join workload.
//
// Run with:
//
//	go run ./examples/improve
package main

import (
	"context"
	"fmt"
	"log"

	"crn"
	"crn/internal/metrics"
)

func main() {
	ctx := context.Background()
	sys, err := crn.OpenSynthetic(ctx, crn.WithTitles(2000))
	if err != nil {
		log.Fatal(err)
	}
	baseline, err := sys.AnalyzeBaseline()
	if err != nil {
		log.Fatal(err)
	}

	// No neural network anywhere in this example: the pool plus the two
	// transformations upgrade the classical estimator by themselves.
	pool := sys.NewQueriesPool()
	if err := sys.SeedPool(ctx, pool, 150, 13); err != nil {
		log.Fatal(err)
	}
	improved := sys.ImproveBaseline(baseline, pool)

	// Multi-join queries whose predicates align with the planted
	// correlations: independence-based estimates are biased the same way
	// for Qnew and the pooled Qold, so the bias cancels in the containment
	// ratio x/y — the mechanism behind the §7 improvement.
	queries := []string{
		`SELECT * FROM title, movie_companies, movie_info
		   WHERE title.id = movie_companies.movie_id AND title.id = movie_info.movie_id
		   AND title.production_year > 1984 AND movie_companies.company_id > 1600
		   AND movie_info.info_val > 600`,
		`SELECT * FROM cast_info, movie_info_idx, title
		   WHERE title.id = cast_info.movie_id AND title.id = movie_info_idx.movie_id
		   AND title.kind_id = 5 AND cast_info.person_id > 1200
		   AND movie_info_idx.info_val > 40`,
		`SELECT * FROM movie_companies, movie_info, movie_keyword, title
		   WHERE title.id = movie_companies.movie_id AND title.id = movie_info.movie_id
		   AND title.id = movie_keyword.movie_id
		   AND title.production_year > 1984 AND movie_companies.company_id > 1600`,
		`SELECT * FROM cast_info, movie_info, title
		   WHERE title.id = cast_info.movie_id AND title.id = movie_info.movie_id
		   AND title.production_year < 1930 AND movie_info.info_val < 300
		   AND cast_info.role_id < 4`,
		`SELECT * FROM movie_info, movie_info_idx, title
		   WHERE title.id = movie_info.movie_id AND title.id = movie_info_idx.movie_id
		   AND title.kind_id = 5 AND movie_info.info_val > 600
		   AND movie_info_idx.info_val > 40`,
	}

	var pgErrs, impErrs []float64
	fmt.Printf("%-7s %10s %24s %24s\n", "joins", "actual", "PostgreSQL (q-error)", "Improved PG (q-error)")
	for _, sql := range queries {
		q, err := sys.ParseQuery(sql)
		if err != nil {
			log.Fatal(err)
		}
		truth, err := sys.TrueCardinality(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		pgEst, err := baseline.EstimateCard(q)
		if err != nil {
			log.Fatal(err)
		}
		impEst, err := improved.EstimateCardinality(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		pgQ := metrics.CardQError(float64(truth), pgEst)
		impQ := metrics.CardQError(float64(truth), impEst)
		pgErrs = append(pgErrs, pgQ)
		impErrs = append(impErrs, impQ)
		fmt.Printf("%-7d %10d %14.0f (%7s) %14.0f (%7s)\n",
			q.NumJoins(), truth, pgEst, metrics.FormatQ(pgQ), impEst, metrics.FormatQ(impQ))
	}
	fmt.Printf("\nmean q-error: PostgreSQL %s, Improved PostgreSQL %s\n",
		metrics.FormatQ(metrics.Mean(pgErrs)), metrics.FormatQ(metrics.Mean(impErrs)))
	fmt.Println("The base model is embedded unchanged; only the estimation")
	fmt.Println("path around it differs (paper §7.1). Workload-level results —")
	fmt.Println("including the much larger Improved-MSCN gain — are Tables 11-12")
	fmt.Println("of `go run ./cmd/repro` (`repro -list` prints every artifact ID).")
}
