package crn

import (
	"context"
	"fmt"
	"testing"
)

// topKFixture builds a trained system with a pool dense enough on one FROM
// clause that a small candidate bound actually binds.
func topKFixture(t *testing.T) (*System, *ContainmentModel, *QueriesPool, []Query) {
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
	// Densify the "title" clause so k < candidate count there.
	for i := 0; i < 12; i++ {
		q, err := sys.ParseQuery(fmt.Sprintf(
			"SELECT * FROM title WHERE title.production_year > %d", 1900+5*i))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sys.RecordExecuted(ctx, p, q); err != nil {
			t.Fatal(err)
		}
	}
	probes := make([]Query, 0, 4)
	for _, sql := range []string{
		"SELECT * FROM title WHERE title.production_year > 1955",
		"SELECT * FROM title WHERE title.kind_id = 2",
		"SELECT * FROM title WHERE title.production_year > 1930 AND title.kind_id = 1",
		"SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id",
	} {
		q, err := sys.ParseQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, q)
	}
	return sys, model, p, probes
}

// TestMaxCandidatesEquivalence pins the acceptance contract of bounded
// candidate selection: MaxCandidates = 0 and any K at least the matching
// count produce answers bit-identical to the unbounded estimator, single
// and batched.
func TestMaxCandidatesEquivalence(t *testing.T) {
	ctx := context.Background()
	sys, model, p, probes := topKFixture(t)

	full := sys.CardinalityEstimator(model, p)
	zero := sys.CardinalityEstimator(model, p, WithMaxCandidates(0))
	huge := sys.CardinalityEstimator(model, p, WithMaxCandidates(100000))

	want, err := full.EstimateCardinalityBatch(ctx, probes)
	if err != nil {
		t.Fatal(err)
	}
	for name, est := range map[string]*CardinalityEstimator{"k=0": zero, "k>=pool": huge} {
		got, err := est.EstimateCardinalityBatch(ctx, probes)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: batch[%d] = %v, want %v (must be bit-identical)", name, i, got[i], want[i])
			}
		}
		for i, q := range probes {
			single, err := est.EstimateCardinality(ctx, q)
			if err != nil {
				t.Fatalf("%s single %d: %v", name, i, err)
			}
			if single != want[i] {
				t.Errorf("%s: single[%d] = %v, want %v", name, i, single, want[i])
			}
		}
	}
	if st := p.Stats(); st.TopKCalls != 0 {
		t.Errorf("non-binding bounds must not run scored selection: %+v", st)
	}
}

// TestMaxCandidatesBounded checks a binding K: estimates succeed, the
// signature index actually truncates, and repeated estimates are
// deterministic.
func TestMaxCandidatesBounded(t *testing.T) {
	ctx := context.Background()
	sys, model, p, probes := topKFixture(t)
	bounded := sys.CardinalityEstimator(model, p, WithMaxCandidates(4))

	first, err := bounded.EstimateCardinalityBatch(ctx, probes)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range first {
		if v < 0 {
			t.Errorf("probe %d: negative estimate %v", i, v)
		}
	}
	st := p.Stats()
	if st.TopKCalls == 0 || st.TruncatedCalls == 0 || st.ScannedCandidates == 0 {
		t.Fatalf("K=4 should bind on the densified clause: %+v", st)
	}
	again, err := bounded.EstimateCardinalityBatch(ctx, probes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != again[i] {
			t.Errorf("bounded estimate not deterministic: probe %d %v vs %v", i, first[i], again[i])
		}
	}

	// The bounded estimator composes with the representation cache: cached
	// and uncached bounded estimates agree exactly.
	uncached := sys.CardinalityEstimator(model, p, WithMaxCandidates(4), WithRepCacheSize(0))
	raw, err := uncached.EstimateCardinalityBatch(ctx, probes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != raw[i] {
			t.Errorf("bounded cached %v != uncached %v at probe %d", first[i], raw[i], i)
		}
	}
}

// TestWithMaxCandidatesZeroOverrides: a later WithMaxCandidates(0) must
// restore the full scan over an earlier bound in a composed option list.
func TestWithMaxCandidatesZeroOverrides(t *testing.T) {
	ctx := context.Background()
	sys, model, p, probes := topKFixture(t)
	full := sys.CardinalityEstimator(model, p)
	restored := sys.CardinalityEstimator(model, p, WithMaxCandidates(2), WithMaxCandidates(0))
	want, err := full.EstimateCardinalityBatch(ctx, probes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.EstimateCardinalityBatch(ctx, probes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("k=0 override did not restore the full scan: probe %d %v != %v", i, got[i], want[i])
		}
	}
}
