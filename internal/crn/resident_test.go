package crn

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"crn/internal/query"
	"crn/internal/sqlparse"
)

// TestRepCacheCompactionKeepsLiveRows: a compaction carries over exactly the
// rows of the keys still in the index, each with its exact bits under its
// new row ID, and nothing of an evicted key.
func TestRepCacheCompactionKeepsLiveRows(t *testing.T) {
	c := NewRepCache(64)
	const n = 8
	want := make(map[string][]float64)
	for i := 0; i < n; i++ {
		key := fmt.Sprint("k", i)
		promoteRow(c, key, 1/float64(3+i))
		row, _ := residentRow(c, key)
		want[key] = slices.Clone(row)
	}
	for _, k := range []string{"k1", "k3", "k5"} {
		c.PoolMutated(1, k)
	}
	if s := currentStore(c); s.dead <= s.n/4 {
		t.Fatalf("fixture should be due for compaction: %d dead of %d", s.dead, s.n)
	}
	promoteRow(c, "k8", 8)
	if s := currentStore(c); s.dead != 0 || s.n != n-3+1 {
		t.Fatalf("promotion did not compact: %d rows, %d dead", s.n, s.dead)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprint("k", i)
		got, ok := residentRow(c, key)
		if w, live := want[key], i%2 == 0 || i == 7; ok != live {
			t.Fatalf("%s resident = %v after compaction, want %v", key, ok, live)
		} else if live && !slices.Equal(bitsOf(got), bitsOf(w)) {
			t.Fatalf("%s row after compaction: %v, want %v", key, got, w)
		}
	}
}

// bitsOf returns the bit patterns of vs.
func bitsOf(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

// TestRepCacheReplacedStoreWritesNothing: a pass whose store is flushed or
// compacted away between resolving its rows and writing back promotes
// nothing and sights nothing into the successor, and the view it holds
// still reads its rows bit for bit.
func TestRepCacheReplacedStoreWritesNothing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		replace func(c *RepCache)
	}{
		{"flush", func(c *RepCache) { c.Invalidate() }},
		{"compaction", func(c *RepCache) {
			c.PoolMutated(1, "k1")
			c.PoolMutated(2, "k2")
			promoteRow(c, "other", 9)
		}},
	} {
		c := NewRepCache(8)
		keys := []string{"k0", "k1", "k2", "k3"}
		for i, k := range keys {
			promoteRow(c, k, float64(10*i))
		}
		rowOf := make([]int, len(keys))
		held := c.resolve(keys, rowOf) // a pass resolves its rows ...
		want := make([][]float64, len(keys))
		for i, r := range rowOf {
			want[i] = slices.Clone(held.data(r))
		}
		tc.replace(c) // ... and its store is replaced before it writes back
		successor, before := currentStore(c), c.Stats()
		if successor == held.store {
			t.Fatalf("%s: the store was not replaced", tc.name)
		}

		r1, r2, p1, p2 := cacheRow(99)
		c.promote(held, []promotion{{key: "late", rep1: r1, rep2: r2, pp1: p1, pp2: p2}}, true)
		c.promote(held, []promotion{{key: "sighted", rep1: r1, rep2: r2, pp1: p1, pp2: p2}}, false)

		if currentStore(c) != successor {
			t.Fatalf("%s: the stale pass replaced the store", tc.name)
		}
		if st := c.Stats(); st.Resident != before.Resident || st.Promoted != before.Promoted {
			t.Fatalf("%s: the stale pass wrote into the successor: %+v -> %+v", tc.name, before, st)
		}
		if _, ok := residentRow(c, "late"); ok {
			t.Fatalf("%s: a stale row is resident", tc.name)
		}
		if sighted(c, "sighted") {
			t.Fatalf("%s: the stale pass left a sighting", tc.name)
		}
		for i, r := range rowOf {
			got := held.data(r)
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("%s: held row of %s changed: %v, want %v", tc.name, keys[i], got, want[i])
				}
			}
		}
	}
}

// pairsFixture returns an uncached adapter, a cached one over the same model
// and a request: probe 0 against three partners, both directions.
func pairsFixture(t *testing.T, capacity int) (plain, cached *Rates, qs []query.Query, idx [][2]int) {
	t.Helper()
	plain, s := ratesFixture(t)
	cached = &Rates{M: plain.M, Enc: plain.Enc, Cache: NewRepCache(capacity)}
	for _, sql := range []string{
		"SELECT * FROM title WHERE title.production_year > 1950",
		"SELECT * FROM title WHERE title.kind_id = 1",
		"SELECT * FROM title WHERE title.kind_id < 5",
		"SELECT * FROM title",
	} {
		qs = append(qs, sqlparse.MustParse(s, sql))
	}
	for i := 1; i < len(qs); i++ {
		idx = append(idx, [2]int{i, 0}, [2]int{0, i})
	}
	return plain, cached, qs, idx
}

// TestRatesCachedThroughCompaction: through the first sighting, promotion,
// resident hits, surgical remove, re-promotion, compaction and Invalidate,
// the cached adapter returns the uncached adapter's bits, and each pass
// resolves and computes exactly the rows it should.
func TestRatesCachedThroughCompaction(t *testing.T) {
	ctx := context.Background()
	plain, cached, qs, idx := pairsFixture(t, 64)
	want, err := plain.EstimateRatesIndexed(ctx, qs, idx)
	if err != nil {
		t.Fatal(err)
	}
	c := cached.Cache
	step := func(label string, wantHits, wantMisses int) {
		t.Helper()
		before := c.Stats()
		got, err := cached.EstimateRatesIndexed(ctx, qs, idx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: pair %d: cached %v, uncached %v", label, i, got[i], want[i])
			}
		}
		st := c.Stats()
		if h, m := int(st.Hits-before.Hits), int(st.Misses-before.Misses); h != wantHits || m != wantMisses {
			t.Fatalf("%s: resident hits/misses = %d/%d, want %d/%d (%+v)", label, h, m, wantHits, wantMisses, st)
		}
	}
	n := len(qs)
	step("first sighting", 0, n)
	step("second sighting promotes", 0, n)
	step("resident", n, 0)

	// Surgical remove of one partner: the key is still in the sighting set,
	// so the next pass re-promotes it under a new row ID.
	c.PoolMutated(1, qs[1].Key())
	step("after remove, re-promoted", n-1, 1)
	step("resident again", n, 0)

	// Compaction: with three dead rows of five after two more evictions,
	// the re-promotion renumbers the survivors.
	c.PoolMutated(2, qs[1].Key())
	c.PoolMutated(3, qs[2].Key())
	if s := currentStore(c); s.dead <= s.n/4 {
		t.Fatalf("fixture should be due for compaction: %d dead of %d", s.dead, s.n)
	}
	step("after two removes, re-promotion compacts", n-2, 2)
	if s := currentStore(c); s.dead != 0 || s.n != len(qs) {
		t.Fatalf("promotion did not compact: %d rows, %d dead", s.n, s.dead)
	}
	step("resident after compaction", n, 0)

	c.Invalidate()
	if st := c.Stats(); st.Resident != 0 {
		t.Fatalf("Invalidate must drop every row: %+v", st)
	}
	step("post-invalidate", 0, n)
}

// TestRatesWarmPromotesInOnePass: Warm encodes every query once and lands
// it in the resident tier directly, so the very next request reads all of
// them in place.
func TestRatesWarmPromotesInOnePass(t *testing.T) {
	_, cached, qs, idx := pairsFixture(t, 64)
	if err := cached.Warm(qs); err != nil {
		t.Fatal(err)
	}
	st := cached.Cache.Stats()
	if st.Misses != uint64(len(qs)) || st.Promoted != uint64(len(qs)) || st.Resident != len(qs) {
		t.Fatalf("after Warm: %+v", st)
	}
	if _, err := cached.EstimateRatesIndexed(context.Background(), qs, idx); err != nil {
		t.Fatal(err)
	}
	if st := cached.Cache.Stats(); st.Hits != uint64(len(qs)) || st.Misses != uint64(len(qs)) {
		t.Fatalf("first request after Warm must be all resident hits: %+v", st)
	}
}

// TestRatesWarmParksOneChunk: a Warm over many queries leaves on the model's
// free list no workspace bigger than a one-chunk Warm leaves, since the free
// list keeps what it parks for the model's lifetime.
func TestRatesWarmParksOneChunk(t *testing.T) {
	plain, s := ratesFixture(t)
	var qs []query.Query
	for y := 1900; len(qs) < 10*warmChunk; y++ {
		qs = append(qs, sqlparse.MustParse(s, fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", y)))
	}
	parked := func(n int) int {
		t.Helper()
		m := NewModel(plain.M.Config(), plain.M.Dim()) // its own free list
		r := &Rates{M: m, Enc: plain.Enc, Cache: NewRepCache(len(qs))}
		if err := r.Warm(qs[:n]); err != nil {
			t.Fatal(err)
		}
		if st := r.Cache.Stats(); st.Resident != n {
			t.Fatalf("Warm of %d queries left %d resident", n, st.Resident)
		}
		most := 0
		for len(m.wsFree) > 0 {
			most = max(most, (<-m.wsFree).Footprint())
		}
		return most
	}
	one, all := parked(warmChunk), parked(len(qs))
	if one == 0 || all > one {
		t.Fatalf("Warm of %d queries parks %d elements, of one chunk %d", len(qs), all, one)
	}
}

// TestRatesHotPathAllocs pins the steady-state allocation count of a rate
// call over resident rows: the out slice, the key list and the predictor.
func TestRatesHotPathAllocs(t *testing.T) {
	ctx := context.Background()
	_, cached, qs, idx := pairsFixture(t, 64)
	run := func() {
		if _, err := cached.EstimateRatesIndexed(ctx, qs, idx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		run()
	}
	if n := testing.AllocsPerRun(50, run); n > 3 {
		t.Errorf("resident pass: %v allocs, want <= 3", n)
	}
}

// TestPromotionCostLinear: promoting keys one at a time costs O(rows added)
// per promotion — an append behind the row count plus an index insert — so
// the bytes allocated in total stay within a small multiple of what the
// tier finally holds, and doubling the key count roughly doubles them.
func TestPromotionCostLinear(t *testing.T) {
	const h = 64 // the serving model's hidden width: 6h floats per row
	row := make([]float64, 2*h)
	promoteAll := func(n int) (allocated, final uint64) {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", i)
		}
		c := NewRepCache(n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, key := range keys {
			c.promote(current(c), []promotion{{key: key, rep1: row[:h], rep2: row[:h], pp1: row, pp2: row}}, true)
		}
		runtime.ReadMemStats(&after)
		if st := c.Stats(); st.Resident != n {
			t.Fatalf("promoted %d of %d", st.Resident, n)
		}
		return after.TotalAlloc - before.TotalAlloc, uint64(n * 6 * h * 8)
	}
	half, _ := promoteAll(2048)
	full, final := promoteAll(4096)
	t.Logf("4096 one-at-a-time promotions allocated %.1f MB for a %.1f MB tier (2048: %.1f MB)",
		float64(full)/1e6, float64(final)/1e6, float64(half)/1e6)
	if full > 3*final {
		t.Errorf("4096 promotions allocated %d bytes, more than 3x the final %d", full, final)
	}
	if full > 3*half {
		t.Errorf("doubling the keys grew allocation %d -> %d: more than 3x, not linear", half, full)
	}
}

// TestRepCacheConcurrentPasses drives the cached rate path from several
// goroutines while others evict, re-promote (forcing compactions) and flush:
// under -race this is the resident tier's thread-safety gate, and every
// answer must still equal the uncached adapter's.
func TestRepCacheConcurrentPasses(t *testing.T) {
	ctx := context.Background()
	plain, cached, qs, idx := pairsFixture(t, 64)
	want, err := plain.EstimateRatesIndexed(ctx, qs, idx)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				got, err := cached.EstimateRatesIndexed(ctx, qs, idx)
				if err != nil {
					t.Error(err)
					return
				}
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("pair %d: cached %v, uncached %v", j, got[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			cached.Cache.PoolMutated(uint64(i), qs[1+i%3].Key())
			if i%64 == 63 {
				cached.Cache.Invalidate()
			}
			cached.Cache.Stats()
		}
	}()
	wg.Wait()
}
