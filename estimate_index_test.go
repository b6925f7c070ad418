package crn

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"crn/internal/pool"
)

// rebuildPool re-adds every entry of src into a fresh pool built with opts,
// in ascending entry-ID order so the rebuilt pool assigns the same relative
// IDs and candidate-selection tie-breaks coincide with the original.
func rebuildPool(sys *System, src *QueriesPool, opts ...PoolOption) *QueriesPool {
	entries := src.Entries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	dst := sys.NewQueriesPool(opts...)
	for _, e := range entries {
		dst.Add(e.Q, e.Card)
	}
	return dst
}

// TestIndexedSelectionEquivalence pins the indexed-selection contract at
// the facade: with a binding candidate bound, estimates over the default
// (indexed) pool are bit-identical to estimates over the same entries with
// pool.WithIndexedSelection(false) — the linear-scan reference.
func TestIndexedSelectionEquivalence(t *testing.T) {
	ctx := context.Background()
	sys, model, p, probes := topKFixture(t)
	linear := rebuildPool(sys, p, pool.WithIndexedSelection(false))

	indexed := sys.CardinalityEstimator(model, p, WithMaxCandidates(4))
	reference := sys.CardinalityEstimator(model, linear, WithMaxCandidates(4))

	want, err := reference.EstimateCardinalityBatch(ctx, probes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := indexed.EstimateCardinalityBatch(ctx, probes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("indexed batch[%d] = %v, want %v (must be bit-identical to the linear scan)",
				i, got[i], want[i])
		}
	}
	for i, q := range probes {
		single, err := indexed.EstimateCardinality(ctx, q)
		if err != nil {
			t.Fatalf("single %d: %v", i, err)
		}
		if single != want[i] {
			t.Errorf("indexed single[%d] = %v, want %v", i, single, want[i])
		}
	}
	// Both pools must have used the selection path their configuration
	// promises.
	if st := p.Stats(); st.IndexHits == 0 || st.ScannedFallback != 0 {
		t.Errorf("default pool should serve bounded selection from the index: %+v", st)
	}
	if st := linear.Stats(); st.IndexHits != 0 || st.ScannedIndexed != 0 || st.ScannedFallback == 0 {
		t.Errorf("index-off pool should scan linearly: %+v", st)
	}
}

// TestIndexedSelectionCoexistsWithEviction drives the facade loop the
// serving deployment runs — record, estimate, record — on a bounded
// indexed pool and checks against the same loop over a linear pool.
func TestIndexedSelectionCoexistsWithEviction(t *testing.T) {
	ctx := context.Background()
	sys, model, p, probes := topKFixture(t)
	// Two bounded twins seeded with the fixture pool's entries.
	idxPool := rebuildPool(sys, p, WithPoolCap(30))
	linPool := rebuildPool(sys, p, WithPoolCap(30), pool.WithIndexedSelection(false))

	indexed := sys.CardinalityEstimator(model, idxPool, WithMaxCandidates(4))
	reference := sys.CardinalityEstimator(model, linPool, WithMaxCandidates(4))

	// The cap-30 pools evict the few join-FROM entries; probe only the
	// single-table clauses both pools are guaranteed to retain.
	probes = probes[:3]
	for round := 0; round < 6; round++ {
		q, err := sys.ParseQuery(fmt.Sprintf(
			"SELECT * FROM title WHERE title.production_year > %d AND title.kind_id = %d",
			1900+7*round, round%3))
		if err != nil {
			t.Fatal(err)
		}
		// Same mutation on both pools (Add keeps tick clocks aligned).
		idxPool.Add(q, int64(100+round))
		linPool.Add(q, int64(100+round))
		want, err := reference.EstimateCardinalityBatch(ctx, probes)
		if err != nil {
			t.Fatal(err)
		}
		got, err := indexed.EstimateCardinalityBatch(ctx, probes)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d probe %d: indexed %v != linear %v", round, i, got[i], want[i])
			}
		}
	}
	if st := idxPool.Stats(); st.Evictions == 0 {
		t.Fatalf("bounded fixture never evicted: %+v", st)
	}
}
