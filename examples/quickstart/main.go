// Quickstart: open a synthetic IMDb-like database, train a containment-rate
// model (CRN), and compare its estimates against exact execution.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"crn"
)

func main() {
	ctx := context.Background()
	// A small database keeps the example fast; see cmd/repro for the
	// paper-scale pipeline.
	sys, err := crn.OpenSynthetic(ctx, crn.WithTitles(1500))
	if err != nil {
		log.Fatal(err)
	}

	q1, err := sys.ParseQuery(
		"SELECT * FROM title WHERE title.production_year > 1990")
	if err != nil {
		log.Fatal(err)
	}
	q2, err := sys.ParseQuery(
		"SELECT * FROM title WHERE title.production_year > 1975")
	if err != nil {
		log.Fatal(err)
	}

	// Ground truth by exact execution: q1's extra predicates make it a
	// subset of q2, so q1 is 100%-contained in q2.
	truth, err := sys.TrueContainment(ctx, q1, q2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("true containment  Q1 ⊂%% Q2: %6.2f%%\n", truth*100)

	// Train a CRN on generated query pairs labeled by execution (§3 of the
	// paper). A couple of thousand pairs train in seconds at this scale.
	fmt.Println("training containment model...")
	model, err := sys.TrainContainmentModel(ctx,
		crn.WithPairs(4000),
		crn.WithSeed(7),
		crn.WithProgress(func(epoch int, valQ float64) {
			if epoch%10 == 0 {
				fmt.Printf("  epoch %3d: validation mean q-error %.2f\n", epoch, valQ)
			}
		}),
	)
	if err != nil {
		log.Fatal(err)
	}

	est, err := model.EstimateContainment(ctx, q1, q2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CRN estimate      Q1 ⊂%% Q2: %6.2f%%\n", est*100)

	rev, err := model.EstimateContainment(ctx, q2, q1)
	if err != nil {
		log.Fatal(err)
	}
	revTruth, err := sys.TrueContainment(ctx, q2, q1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("true containment  Q2 ⊂%% Q1: %6.2f%%\n", revTruth*100)
	fmt.Printf("CRN estimate      Q2 ⊂%% Q1: %6.2f%%\n", rev*100)

	// Models serialize to a few hundred kilobytes (§3.5.3).
	blob, err := model.Save()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serialized model: %d bytes\n", len(blob))
	fmt.Println()
	fmt.Println("Note: this demo trains for seconds on a toy database; estimates are")
	fmt.Println("rough. The evaluation-grade pipeline (20k pairs, 12k-title database)")
	fmt.Println("lives behind `go run ./cmd/repro -scale small` — see the README's")
	fmt.Println("\"Reproducing the paper\" section.")
}
