package crn

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"crn/internal/query"
	"crn/internal/sqlparse"
)

// cacheRow builds the four packed row slices (h=1, 2h=2) used by the small
// cache tests: rep1, rep2, pp1, pp2 with recognizable values derived from v.
func cacheRow(v float64) ([]float64, []float64, []float64, []float64) {
	return []float64{v}, []float64{v + 1}, []float64{v + 2, v + 3}, []float64{v + 4, v + 5}
}

// current returns the cache's current view, as a pass that resolved no
// keys would hold it.
func current(c *RepCache) residentView { return c.resolve(nil, nil) }

// currentStore returns the cache's current store.
func currentStore(c *RepCache) *residentStore { return current(c).store }

// promoteRow promotes key with cacheRow(v)'s values into the current store,
// bypassing the sighting rule.
func promoteRow(c *RepCache, key string, v float64) {
	r1, r2, p1, p2 := cacheRow(v)
	c.promote(current(c), []promotion{{key: key, rep1: r1, rep2: r2, pp1: p1, pp2: p2}}, true)
}

// residentRow reads a key's packed resident row (rep1 | rep2 | pp1 | pp2)
// through a freshly resolved view.
func residentRow(c *RepCache, key string) ([]float64, bool) {
	rowOf := []int{0}
	v := c.resolve([]string{key}, rowOf)
	if rowOf[0] < 0 {
		return nil, false
	}
	return v.data(rowOf[0]), true
}

// sighted applies the sighting rule to key, as a promotion does.
func sighted(c *RepCache, key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sight(key)
}

func TestRepCacheInvalidateAndValidate(t *testing.T) {
	c := NewRepCache(8)
	promoteRow(c, "a", 1)
	if sighted(c, "s") {
		t.Fatal("an unseen key must not count as sighted")
	}
	c.Invalidate()
	if c.Stats().Resident != 0 || sighted(c, "s") {
		t.Fatal("Invalidate should clear the rows and the sightings")
	}
	promoteRow(c, "a", 1)
	c.Validate(3) // first observation adopts without flushing
	if c.Stats().Resident != 1 || !sighted(c, "s") {
		t.Fatal("first Validate must not flush")
	}
	c.Validate(3) // same version: no flush
	if c.Stats().Resident != 1 || !sighted(c, "s") {
		t.Fatal("same-version Validate must not flush")
	}
	c.Validate(4) // version bump: flush
	if c.Stats().Resident != 0 || sighted(c, "s") {
		t.Fatal("version change must flush rows and sightings")
	}
	// Nil cache is inert.
	var nc *RepCache
	nc.Invalidate()
	nc.Validate(1)
	if st := nc.Stats(); st != (RepCacheStats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
}

func TestRepCachePromotion(t *testing.T) {
	c := NewRepCache(8)
	r1, r2, p1, p2 := cacheRow(7)
	c.promote(current(c), []promotion{{key: "a", rep1: r1, rep2: r2, pp1: p1, pp2: p2}}, true)
	rowOf := []int{0}
	held := c.resolve([]string{"a"}, rowOf)
	if held.n != 1 || rowOf[0] != 0 {
		t.Fatalf("promotion did not append: %d rows, row %d", held.n, rowOf[0])
	}
	row, ok := residentRow(c, "a")
	if !ok || row[0] != 7 || row[5] != 12 {
		t.Fatalf("resident row wrong: %v", row)
	}
	// Promotion copies: mutating the source must not reach the storage.
	r1[0] = -1
	if row[0] != 7 {
		t.Error("promote must copy its inputs")
	}
	// Promoting a resident key again is a no-op (no duplicate rows).
	c.promote(current(c), []promotion{{key: "a", rep1: r1, rep2: r2, pp1: p1, pp2: p2}}, true)
	if got := current(c).n; got != 1 {
		t.Fatalf("duplicate promotion grew resident tier to %d", got)
	}
	// A second key appends while the first row's values survive.
	q1, q2, q3, q4 := cacheRow(20)
	c.promote(current(c), []promotion{{key: "b", rep1: q1, rep2: q2, pp1: q3, pp2: q4}}, true)
	rowA, _ := residentRow(c, "a")
	rowB, _ := residentRow(c, "b")
	if current(c).n != 2 || rowA[0] != 7 || rowB[0] != 20 {
		t.Fatalf("append lost rows: a=%v b=%v", rowA, rowB)
	}
	// Row IDs are stable: the view taken before the append still reads "a"
	// from the same storage.
	if &held.data(rowOf[0])[0] != &rowA[0] {
		t.Error("appending moved an existing row")
	}
	promoteRow(c, "c", 30)
	st := c.Stats()
	if st.Resident != 3 || st.Promoted != 3 {
		t.Fatalf("post-promotion stats = %+v", st)
	}
	// Invalidate drops the resident tier too.
	c.Invalidate()
	if current(c).n != 0 || c.Stats().Resident != 0 {
		t.Fatal("Invalidate must drop the resident store")
	}
}

// TestRepCacheStaleWritebacksDropped is the regression gate for the
// flush-vs-writeback race: promotions whose values were computed before a
// flush (pool mutation, model swap) must not re-enter the freshly flushed
// cache.
func TestRepCacheStaleWritebacksDropped(t *testing.T) {
	c := NewRepCache(8)
	v := current(c) // a request resolves against the store, then computes
	c.Invalidate()  // ... a flush lands mid-request ...
	r1, r2, p1, p2 := cacheRow(7)
	c.promote(v, []promotion{{key: "b", rep1: r1, rep2: r2, pp1: p1, pp2: p2}}, true)
	if st := c.Stats(); st.Resident != 0 || st.Promoted != 0 {
		t.Fatalf("stale writeback survived the flush: %+v", st)
	}
	// Writebacks into the current store still land.
	c.promote(current(c), []promotion{{key: "b", rep1: r1, rep2: r2, pp1: p1, pp2: p2}}, true)
	if st := c.Stats(); st.Resident != 1 || st.Promoted != 1 {
		t.Fatalf("fresh writeback dropped: %+v", st)
	}
}

// TestRepCachePromotionDedupsWithinBatch: duplicate keys in one promotion
// batch (a batch estimate may carry the same probe twice) must produce one
// resident row, not an unreachable duplicate that eats capacity.
func TestRepCachePromotionDedupsWithinBatch(t *testing.T) {
	c := NewRepCache(8)
	r1, r2, p1, p2 := cacheRow(7)
	c.promote(current(c), []promotion{
		{key: "a", rep1: r1, rep2: r2, pp1: p1, pp2: p2},
		{key: "a", rep1: r1, rep2: r2, pp1: p1, pp2: p2},
	}, true)
	if st := c.Stats(); current(c).n != 1 || st.Resident != 1 || st.Promoted != 1 {
		t.Fatalf("duplicate promotion created %d rows: %+v", current(c).n, st)
	}
}

func TestRepCachePromotionRespectsCapacity(t *testing.T) {
	c := NewRepCache(4)
	var promos []promotion
	for i := 0; i < 10; i++ {
		r1, r2, p1, p2 := cacheRow(float64(i))
		promos = append(promos, promotion{key: fmt.Sprintf("k%d", i), rep1: r1, rep2: r2, pp1: p1, pp2: p2})
	}
	c.promote(current(c), promos, true)
	if got := current(c).n; got > 4 {
		t.Fatalf("resident tier exceeded capacity: %d", got)
	}
}

// TestRepCacheSightingPromotes pins the admission rule through the rate
// path: a key's first computation leaves only a sighting, its second
// promotes it, and Invalidate forgets sightings — with every rate equal to
// the cache-less adapter's bits throughout.
func TestRepCacheSightingPromotes(t *testing.T) {
	ctx := context.Background()
	plain, cached, qs, idx := pairsFixture(t, 64)
	want, err := plain.EstimateRatesIndexed(ctx, qs, idx)
	if err != nil {
		t.Fatal(err)
	}
	c := cached.Cache
	step := func(label string, wantResident int) {
		t.Helper()
		got, err := cached.EstimateRatesIndexed(ctx, qs, idx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: pair %d: cached %v, uncached %v", label, i, got[i], want[i])
			}
		}
		if st := c.Stats(); st.Resident != wantResident {
			t.Fatalf("%s: %d resident, want %d (%+v)", label, st.Resident, wantResident, st)
		}
	}
	step("first sighting", 0)
	if st := c.Stats(); st.Misses != uint64(len(qs)) || st.Promoted != 0 {
		t.Fatalf("first sighting: %+v", st)
	}
	step("second sighting", len(qs))
	if st := c.Stats(); st.Misses != 2*uint64(len(qs)) || st.Promoted != uint64(len(qs)) {
		t.Fatalf("second sighting: %+v", st)
	}
	step("resident", len(qs))
	if st := c.Stats(); st.Hits != uint64(len(qs)) || st.Misses != 2*uint64(len(qs)) {
		t.Fatalf("resident pass must be all hits: %+v", st)
	}
	c.Invalidate()
	step("first sighting after Invalidate", 0)
	step("second sighting after Invalidate", len(qs))
}

// TestRepCacheColdStreamRetainsNothing: a stream of keys each computed once
// — the never-repeating probes of a top-K workload — promotes nothing and
// holds the sighting set to its bound, and the set keeps admitting
// after it resets: a key computed twice at the end still promotes.
func TestRepCacheColdStreamRetainsNothing(t *testing.T) {
	ctx := context.Background()
	const capacity = 256
	plain, s := ratesFixture(t)
	cached := &Rates{M: plain.M, Enc: plain.Enc, Cache: NewRepCache(capacity)}
	c := cached.Cache
	run := func(qs []query.Query) {
		t.Helper()
		idx := make([][2]int, len(qs))
		for i := range idx {
			idx[i] = [2]int{i, i}
		}
		want, err := plain.EstimateRatesIndexed(ctx, qs, idx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cached.EstimateRatesIndexed(ctx, qs, idx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pair %d: cached %v, uncached %v", i, got[i], want[i])
			}
		}
	}
	cold := func(i int) query.Query {
		return sqlparse.MustParse(s, fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", i))
	}
	for lo := 0; lo < 3*capacity; lo += 64 {
		var qs []query.Query
		for i := lo; i < lo+64; i++ {
			qs = append(qs, cold(i))
		}
		run(qs)
	}
	checkSightingBound := func() {
		t.Helper()
		c.mu.RLock()
		n := len(c.sightings)
		c.mu.RUnlock()
		if n > capacity*sightingsPerRow {
			t.Fatalf("sighting set grew to %d keys, bound %d", n, capacity*sightingsPerRow)
		}
	}
	if st := c.Stats(); st.Resident != 0 || st.Promoted != 0 || st.Misses != 3*capacity {
		t.Fatalf("cold stream retained rows: %+v", st)
	}
	checkSightingBound()
	again := []query.Query{cold(-1)}
	run(again)
	run(again)
	if st := c.Stats(); st.Resident != 1 || st.Promoted != 1 {
		t.Fatalf("a recurring key after the cold stream was not promoted: %+v", st)
	}
	checkSightingBound()
}

// TestRatesCachedMatchesUncached is the core cache-equivalence gate:
// estimates through a cached Rates — cold (first sightings), warm
// (promoting second sightings), resident (pool-resident precompute hits),
// and after invalidation — are bit-identical to the uncached adapter.
func TestRatesCachedMatchesUncached(t *testing.T) {
	r, s := ratesFixture(t)
	cached := &Rates{M: r.M, Enc: r.Enc, Cache: NewRepCache(64)}

	qs := []query.Query{
		sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 1"),
		sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id < 5"),
		sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1950"),
		sqlparse.MustParse(s, "SELECT * FROM title"),
	}
	var idx [][2]int
	for i := range qs {
		for j := range qs {
			idx = append(idx, [2]int{i, j})
		}
	}
	ctx := context.Background()
	want, err := r.EstimateRatesIndexed(ctx, qs, idx)
	if err != nil {
		t.Fatal(err)
	}
	for pass, label := range []string{"cold", "warm", "resident", "post-invalidate"} {
		if label == "post-invalidate" {
			cached.Cache.Invalidate()
		}
		got, err := cached.EstimateRatesIndexed(ctx, qs, idx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s pass %d pair %d: cached %v uncached %v", label, pass, i, got[i], want[i])
			}
		}
		if label == "resident" {
			if st := cached.Cache.Stats(); st.Resident == 0 {
				t.Fatalf("third pass should serve from the resident tier: %+v", st)
			}
		}
	}
	st := cached.Cache.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("expected both hits and misses, got %+v", st)
	}
	if st.Promoted == 0 {
		t.Errorf("recurring queries were never promoted: %+v", st)
	}
}

// TestRepCacheConcurrentUse hammers sighting/promote/invalidate from many
// goroutines; run under -race this is the cache's thread-safety gate.
func TestRepCacheConcurrentUse(t *testing.T) {
	c := NewRepCache(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (w*7+i)%40)
				if row, ok := residentRow(c, key); ok {
					_ = row[0]
					c.count(1, 0)
					continue
				}
				c.count(0, 1)
				if sighted(c, key) {
					promoteRow(c, key, float64(i))
				}
				switch i % 50 {
				case 17:
					c.Invalidate()
				case 33:
					c.Validate(uint64(i))
				}
				c.Stats()
			}
		}(w)
	}
	wg.Wait()
}

// TestRepCacheSurgicalRemove pins the surgical-invalidation path: a pool
// eviction delivered through PoolMutated drops exactly the evicted key's
// resident row, leaves every other entry warm, raises the absorbed version
// so the next Validate does not flush, and — dead rows being more than a
// quarter of the storage here — the next promotion compacts them away.
func TestRepCacheSurgicalRemove(t *testing.T) {
	c := NewRepCache(8)
	c.Validate(1)
	a1, a2, a3, a4 := cacheRow(1)
	b1, b2, b3, b4 := cacheRow(2)
	c.promote(current(c), []promotion{
		{key: "a", rep1: a1, rep2: a2, pp1: a3, pp2: a4},
		{key: "b", rep1: b1, rep2: b2, pp1: b3, pp2: b4},
	}, true)
	sighted(c, "s")

	// Insert-only mutation: nothing is dropped, version is absorbed.
	c.PoolMutated(2, "")
	if st := c.Stats(); st.Resident != 2 {
		t.Fatalf("insert mutation must not drop anything: %+v", st)
	}
	c.Validate(2)
	if st := c.Stats(); st.Resident != 2 || !sighted(c, "s") {
		t.Fatalf("absorbed version must not flush on Validate: %+v", st)
	}

	// Evict a resident key: one dead row, the other row stays readable.
	c.PoolMutated(3, "a")
	if _, ok := residentRow(c, "a"); ok {
		t.Fatal("evicted key must leave the resident index")
	}
	if st := c.Stats(); st.Resident != 1 {
		t.Fatalf("stats after resident eviction = %+v", st)
	}
	if row, ok := residentRow(c, "b"); !ok || row[0] != 2 {
		t.Fatal("surviving resident row corrupted")
	}
	// Unknown keys are a no-op.
	c.PoolMutated(5, "never-seen")
	c.Validate(5)
	if st := c.Stats(); st.Resident != 1 || !sighted(c, "s") {
		t.Fatalf("post-absorption stats = %+v", st)
	}

	// The next promotion compacts the dead row away: two live keys, two
	// rows, values intact.
	promoteRow(c, "d", 9)
	if s := currentStore(c); s.n != 2 || s.dead != 0 {
		t.Fatalf("promotion should compact dead rows: rows=%d dead=%d", s.n, s.dead)
	}
	rowB, _ := residentRow(c, "b")
	rowD, _ := residentRow(c, "d")
	if rowB[0] != 2 || rowD[0] != 9 {
		t.Fatal("compaction scrambled rows")
	}
}

// TestRepCacheValidateMonotone pins the monotone comparison: an estimate
// that loaded the pool version just before a concurrent, already absorbed
// mutation (so it validates with an OLDER version than the cache has seen)
// must not flush the cache.
func TestRepCacheValidateMonotone(t *testing.T) {
	c := NewRepCache(8)
	c.Validate(7)
	promoteRow(c, "a", 1)
	c.PoolMutated(9, "") // listener absorbed version 9
	c.Validate(8)        // stale observer
	if c.Stats().Resident != 1 {
		t.Fatal("older-version Validate after absorption must not flush")
	}
	c.Validate(10) // genuinely unabsorbed mutation: flush
	if c.Stats().Resident != 0 {
		t.Fatal("unabsorbed newer version must flush")
	}
}
