package crn

// Facade-level concurrency gates for the high-concurrency serving pipeline:
// EstimateCardinality / EstimateCardinalityBatch / RecordExecuted hammered
// from many goroutines (run under -race in CI), with every concurrent
// answer checked against the sequential answer over the same pool state —
// coalesced, cache-resident and first-sighting paths must all stay bit-identical
// to a plain per-query estimator.

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"
)

// concurrencyFixture builds one trained serving stack with a seeded pool
// and a mixed probe workload the pool covers.
func concurrencyFixture(t *testing.T) (*System, *ContainmentModel, *QueriesPool, []Query) {
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
	probes := make([]Query, 0, 8)
	for _, sql := range []string{
		"SELECT * FROM title WHERE title.production_year > 1960",
		"SELECT * FROM title WHERE title.production_year > 1975",
		"SELECT * FROM title WHERE title.kind_id = 2",
		"SELECT * FROM title WHERE title.kind_id < 5",
		"SELECT * FROM title",
		"SELECT * FROM title WHERE title.production_year < 2000",
		"SELECT * FROM title WHERE title.kind_id > 1",
		"SELECT * FROM title WHERE title.production_year = 1980",
	} {
		q, err := sys.ParseQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, q)
	}
	return sys, model, p, probes
}

// TestCoalescedMatchesUncoalesced pins the coalesced serving path to the
// plain path bit-for-bit, including under concurrency that actually forms
// shared batches.
func TestCoalescedMatchesUncoalesced(t *testing.T) {
	ctx := context.Background()
	sys, model, p, probes := concurrencyFixture(t)

	plain := sys.CardinalityEstimator(model, p)
	coalesced := sys.CardinalityEstimator(model, p, WithCoalescing(16, time.Millisecond))

	want := make([]float64, len(probes))
	for i, q := range probes {
		v, err := plain.EstimateCardinality(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}

	// Sequential coalesced calls (batches of one).
	for i, q := range probes {
		got, err := coalesced.EstimateCardinality(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("sequential coalesced probe %d: %v != %v", i, got, want[i])
		}
	}

	// Concurrent coalesced calls: many goroutines, every answer exact.
	const workers = 16
	const rounds = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				qi := (w + i) % len(probes)
				got, err := coalesced.EstimateCardinality(ctx, probes[qi])
				if err != nil {
					t.Errorf("worker %d probe %d: %v", w, qi, err)
					return
				}
				if got != want[qi] {
					t.Errorf("worker %d probe %d: coalesced %v != plain %v", w, qi, got, want[qi])
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := coalesced.CoalescerStats()
	if st.Calls != uint64(len(probes)+workers*rounds) {
		t.Errorf("coalescer saw %d calls, want %d", st.Calls, len(probes)+workers*rounds)
	}
	if st.MaxBatch < 2 {
		t.Errorf("concurrent traffic never shared a batch: %+v", st)
	}
	if ps := plain.CoalescerStats(); ps != (CoalescerStats{}) {
		t.Errorf("plain estimator reports coalescer stats %+v", ps)
	}
}

// TestFacadeConcurrentMixedTraffic is the §5.2 serving scenario as a race
// test: estimates (single, batched, coalesced) and pool-growing
// RecordExecuted calls from many goroutines at once. Afterwards every
// probe's answer must equal a fresh sequential estimate over the final
// pool — no torn cache state, no stale resident tier.
func TestFacadeConcurrentMixedTraffic(t *testing.T) {
	ctx := context.Background()
	sys, model, p, probes := concurrencyFixture(t)

	est := sys.CardinalityEstimator(model, p, WithCoalescing(8, 0))
	plainBatch := probes[:4]

	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				switch (w + i) % 3 {
				case 0:
					if _, err := est.EstimateCardinality(ctx, probes[(w+i)%len(probes)]); err != nil {
						t.Errorf("estimate: %v", err)
						return
					}
				case 1:
					if _, err := est.EstimateCardinalityBatch(ctx, plainBatch); err != nil {
						t.Errorf("batch: %v", err)
						return
					}
				case 2:
					year := int64(1900 + (w*31+i)%90)
					q, err := sys.ParseQuery("SELECT * FROM title WHERE title.production_year > " +
						strconv.FormatInt(year, 10))
					if err != nil {
						t.Errorf("parse: %v", err)
						return
					}
					if _, _, err := sys.RecordExecuted(ctx, p, q); err != nil {
						t.Errorf("record: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// The pool stopped mutating: concurrent-path answers must now equal a
	// fresh uncached sequential estimator over the final pool.
	fresh := sys.CardinalityEstimator(model, p, WithRepCacheSize(0))
	for i, q := range probes {
		want, err := fresh.EstimateCardinality(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := est.EstimateCardinality(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("probe %d after mixed traffic: %v != fresh %v", i, got, want)
		}
	}
}

// TestSoloErrorSurfacesDirectly pins the facade's solo fast-path error
// handling: an uncontended coalesced request that fails (here: pool miss,
// no fallback) surfaces its typed error once, matchable with errors.Is and
// free of internal wrapper types — and without re-running the estimate,
// which a solo failure makes redundant by construction.
func TestSoloErrorSurfacesDirectly(t *testing.T) {
	ctx := context.Background()
	sys, model, _, _ := concurrencyFixture(t)
	empty := sys.NewQueriesPool()
	est := sys.CardinalityEstimator(model, empty, WithCoalescing(16, 0))
	probe, err := sys.ParseQuery("SELECT * FROM title")
	if err != nil {
		t.Fatal(err)
	}
	_, err = est.EstimateCardinality(ctx, probe)
	if !errors.Is(err, ErrNoPoolMatch) {
		t.Fatalf("solo pool miss = %v, want ErrNoPoolMatch", err)
	}
	if st := est.CoalescerStats(); st.Solo != 1 {
		t.Fatalf("expected exactly one solo execution: %+v", st)
	}
}
