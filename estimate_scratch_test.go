package crn

// Gates for the two things a recurring request no longer re-derives: the
// parse (System.ParseQuery's statement cache) and the per-call working
// memory of the estimator (card.Estimator's pooled scratch).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

// hotProbes returns n distinct probes over three FROM clauses the seeded
// pool covers, interleaved the way a plan enumeration posts them.
func hotProbes(t *testing.T, sys *System, n int) []Query {
	t.Helper()
	shapes := []string{
		"SELECT * FROM title WHERE title.production_year > %d",
		"SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND title.production_year > %d",
		"SELECT * FROM title, movie_keyword WHERE title.id = movie_keyword.movie_id AND title.production_year < %d",
	}
	probes := make([]Query, n)
	for i := range probes {
		q, err := sys.ParseQuery(fmt.Sprintf(shapes[i%len(shapes)], 1900+i))
		if err != nil {
			t.Fatal(err)
		}
		probes[i] = q
	}
	return probes
}

// TestParseQueryRecognisesRepeats: the facade parses a text once. The second
// sighting of the same bytes is a statement-cache hit that allocates nothing
// and returns the same canonical query; errors are never cached.
func TestParseQueryRecognisesRepeats(t *testing.T) {
	sys := testSystem(t)
	const sql = "SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND cast_info.role_id = 2"
	first, err := sys.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sys.ParseQuery(sql)
	if err != nil || second.Key() != first.Key() || second.FROMKey() != first.FROMKey() {
		t.Fatalf("second sighting: %v, %v; first %v", second, err, first)
	}
	for i := 0; i < 2; i++ {
		if _, err := sys.ParseQuery("SELECT * FROM ghost"); !errors.Is(err, ErrDialect) {
			t.Fatalf("malformed text, lookup %d: %v", i, err)
		}
	}
	if st := sys.StatementCacheStats(); st.Hits != 1 || st.Misses != 3 || st.Entries != 1 || st.Capacity < st.Entries {
		t.Errorf("statement cache after 2 good + 2 bad lookups: %+v", st)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := sys.ParseQuery(sql); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ParseQuery of a recognised text allocates %v times", n)
	}
}

// TestHotBatchAllocs pins the steady-state 64-probe batch through the
// serving configuration after a cardinality update on each of the probes'
// FROM clauses: the estimate memo misses every probe but kept each one's
// candidate rates, so the pass runs no rate model — no rep-cache lookup —
// and allocates 1, the result, none of it per probe (it was 4 while the pass
// still reached the rate model). Without the updates the memo answers the
// whole batch with the same 1.
func TestHotBatchAllocs(t *testing.T) {
	ctx := context.Background()
	sys, model, p, _ := repCacheFixture(t)
	base, err := sys.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	est := sys.CardinalityEstimator(model, p, WithFallback(base), WithCoalescing(64, 0), WithTelemetry(NewTelemetry()))
	probes := hotProbes(t, sys, 64)
	estimate := func() {
		if _, err := est.EstimateCardinalityBatch(ctx, probes); err != nil {
			t.Fatal(err)
		}
	}
	bumps := []func(){cardBumper(t, p, probes[0]), cardBumper(t, p, probes[1]), cardBumper(t, p, probes[2])}
	run := func() {
		for _, bump := range bumps {
			bump()
		}
		estimate()
	}
	for i := 0; i < 4; i++ {
		run()
	}
	lookups := repLookups(est)
	if n := testing.AllocsPerRun(100, run); n > 1 && !raceEnabled {
		t.Errorf("hot 64-probe batch: %v allocs, want <= 1", n)
	}
	if got := repLookups(est); got != lookups {
		t.Errorf("the passes after an update ran the rate model: %d rep-cache lookups", got-lookups)
	}
	hits := est.CacheStats().EstimateHits
	if n := testing.AllocsPerRun(100, estimate); n > 1 && !raceEnabled {
		t.Errorf("memoized 64-probe batch: %v allocs, want <= 1", n)
	}
	if st := est.CacheStats(); st.EstimateHits < hits+100*64 {
		t.Errorf("unchanged repeats missed the estimate memo: %+v", st)
	}
}

// TestScratchReuseIsInvisible: consecutive calls reuse one scratch, so a
// large batch is followed by a small one, then by single estimates, from
// several goroutines at once (run under -race) — and every answer, batched
// or single, cached or not, carries the bits of a fresh single estimate.
func TestScratchReuseIsInvisible(t *testing.T) {
	ctx := context.Background()
	sys, model, p, _ := repCacheFixture(t)
	probes := hotProbes(t, sys, 64)
	reference := sys.CardinalityEstimator(model, p, WithRepCacheSize(0))
	want := make([]uint64, len(probes))
	for i, q := range probes {
		v, err := reference.EstimateCardinality(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = math.Float64bits(v)
	}
	cached := sys.CardinalityEstimator(model, p)
	uncached := sys.CardinalityEstimator(model, p, WithRepCacheSize(0))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			check := func(what string, lo int, got []float64, err error) bool {
				if err != nil {
					t.Errorf("%s: %v", what, err)
					return false
				}
				for i, v := range got {
					if math.Float64bits(v) != want[lo+i] {
						t.Errorf("%s: probe %d = %v, want %v", what, lo+i, v, math.Float64frombits(want[lo+i]))
						return false
					}
				}
				return true
			}
			for round := 0; round < 3; round++ {
				for _, est := range []*CardinalityEstimator{cached, uncached} {
					lo := (7*g + 5*round) % (len(probes) - 3)
					all, err := est.EstimateCardinalityBatch(ctx, probes)
					few, ferr := est.EstimateCardinalityBatch(ctx, probes[lo:lo+3])
					one, oerr := est.EstimateCardinality(ctx, probes[lo])
					if !check("batch of 64", 0, all, err) || !check("batch of 3", lo, few, ferr) ||
						!check("single", lo, []float64{one}, oerr) {
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
