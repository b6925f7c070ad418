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

func lookupRow(c *RepCache, key string) (bool, [6]float64) {
	r1, r2 := make([]float64, 1), make([]float64, 1)
	p1, p2 := make([]float64, 2), make([]float64, 2)
	ok := c.lookup(key, r1, r2, p1, p2)
	return ok, [6]float64{r1[0], r2[0], p1[0], p1[1], p2[0], p2[1]}
}

// residentRow reads a key's packed resident row (rep1 | rep2 | pp1 | pp2)
// through the currently published view.
func residentRow(c *RepCache, key string) ([]float64, bool) {
	snap := c.resident.Load()
	ri, ok := snap.row(key)
	if !ok {
		return nil, false
	}
	return snap.data(ri), true
}

func TestRepCacheLookupInsertStats(t *testing.T) {
	c := NewRepCache(64)
	if ok, _ := lookupRow(c, "a"); ok {
		t.Fatal("empty cache should miss")
	}
	r1, r2, p1, p2 := cacheRow(10)
	c.insert(c.gen.Load(), "a", r1, r2, p1, p2)
	ok, got := lookupRow(c, "a")
	if !ok {
		t.Fatal("inserted key should hit")
	}
	if got != [6]float64{10, 11, 12, 13, 14, 15} {
		t.Fatalf("lookup copied %v", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 || st.Capacity != 64 || st.Shards != repShards {
		t.Fatalf("stats = %+v", st)
	}
	// Inserted slices are clones: mutating the source must not leak in.
	s1, s2, s3, s4 := cacheRow(20)
	c.insert(c.gen.Load(), "b", s1, s2, s3, s4)
	s1[0], s3[1] = -1, -1
	if _, got := lookupRow(c, "b"); got[0] != 20 || got[3] != 23 {
		t.Errorf("insert must clone its inputs: %v", got)
	}
	// A stale-layout entry (different widths than the caller expects) is a
	// miss, never a partial copy.
	wide := make([]float64, 3)
	if c.lookup("a", wide, wide, wide, wide) {
		t.Error("layout-mismatched lookup must miss")
	}
}

func TestRepCacheInvalidateAndValidate(t *testing.T) {
	c := NewRepCache(8)
	a1, a2, a3, a4 := cacheRow(1)
	c.insert(c.gen.Load(), "a", a1, a2, a3, a4)
	c.Invalidate()
	if c.Stats().Size != 0 {
		t.Fatal("Invalidate should clear")
	}
	c.insert(c.gen.Load(), "a", a1, a2, a3, a4)
	c.Validate(3) // first observation adopts without flushing
	if c.Stats().Size != 1 {
		t.Fatal("first Validate must not flush")
	}
	c.Validate(3) // same version: no flush
	if c.Stats().Size != 1 {
		t.Fatal("same-version Validate must not flush")
	}
	c.Validate(4) // version bump: flush
	if c.Stats().Size != 0 {
		t.Fatal("version change must flush")
	}
}

func TestRepCachePromotion(t *testing.T) {
	c := NewRepCache(8)
	r1, r2, p1, p2 := cacheRow(7)
	c.promote(c.gen.Load(), []promotion{{key: "a", rep1: r1, rep2: r2, pp1: p1, pp2: p2}})
	snap := c.resident.Load()
	if snap == nil || snap.rows() != 1 {
		t.Fatalf("promotion did not publish: %+v", snap)
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
	c.promote(c.gen.Load(), []promotion{{key: "a", rep1: r1, rep2: r2, pp1: p1, pp2: p2}})
	if got := c.resident.Load().rows(); got != 1 {
		t.Fatalf("duplicate promotion grew resident tier to %d", got)
	}
	// A second key appends while the first row's values survive.
	q1, q2, q3, q4 := cacheRow(20)
	c.promote(c.gen.Load(), []promotion{{key: "b", rep1: q1, rep2: q2, pp1: q3, pp2: q4}})
	rowA, _ := residentRow(c, "a")
	rowB, _ := residentRow(c, "b")
	if c.resident.Load().rows() != 2 || rowA[0] != 7 || rowB[0] != 20 {
		t.Fatalf("append lost rows: a=%v b=%v", rowA, rowB)
	}
	// Row IDs are stable: the view loaded before the append still resolves
	// "a" to the same storage.
	if ri, ok := snap.row("a"); !ok || &snap.data(ri)[0] != &rowA[0] {
		t.Error("appending moved an existing row")
	}
	// Promotion removes the entry from the sharded tier.
	y1, y2, y3, y4 := cacheRow(30)
	c.insert(c.gen.Load(), "c", y1, y2, y3, y4)
	x1, x2, x3, x4 := cacheRow(30)
	c.promote(c.gen.Load(), []promotion{{key: "c", rep1: x1, rep2: x2, pp1: x3, pp2: x4}})
	st := c.Stats()
	if st.Resident != 3 || st.Size != 3 || st.Promoted != 3 {
		t.Fatalf("post-promotion stats = %+v", st)
	}
	// Invalidate drops the resident tier too.
	c.Invalidate()
	if c.resident.Load() != nil || c.Stats().Resident != 0 {
		t.Fatal("Invalidate must drop the resident snapshot")
	}
}

// TestRepCacheStaleWritebacksDropped is the regression gate for the
// flush-vs-writeback race: inserts and promotions whose values were
// computed before a flush (pool mutation, model swap) must not re-enter
// the freshly flushed cache.
func TestRepCacheStaleWritebacksDropped(t *testing.T) {
	c := NewRepCache(8)
	gen := c.gen.Load() // a request captures the generation, then computes
	c.Invalidate()      // ... a flush lands mid-request ...
	r1, r2, p1, p2 := cacheRow(7)
	c.insert(gen, "a", r1, r2, p1, p2) // ... and the writebacks must drop
	c.promote(gen, []promotion{{key: "b", rep1: r1, rep2: r2, pp1: p1, pp2: p2}})
	if st := c.Stats(); st.Size != 0 || st.Resident != 0 {
		t.Fatalf("stale writeback survived the flush: %+v", st)
	}
	// Current-generation writebacks still land.
	c.insert(c.gen.Load(), "a", r1, r2, p1, p2)
	c.promote(c.gen.Load(), []promotion{{key: "b", rep1: r1, rep2: r2, pp1: p1, pp2: p2}})
	if st := c.Stats(); st.Size != 2 || st.Resident != 1 {
		t.Fatalf("fresh writeback dropped: %+v", st)
	}
}

// TestRepCachePromotionDedupsWithinBatch: duplicate keys in one promotion
// batch (a batch estimate may carry the same probe twice) must produce one
// resident row, not an unreachable duplicate that eats capacity.
func TestRepCachePromotionDedupsWithinBatch(t *testing.T) {
	c := NewRepCache(8)
	r1, r2, p1, p2 := cacheRow(7)
	c.promote(c.gen.Load(), []promotion{
		{key: "a", rep1: r1, rep2: r2, pp1: p1, pp2: p2},
		{key: "a", rep1: r1, rep2: r2, pp1: p1, pp2: p2},
	})
	if st := c.Stats(); c.resident.Load().rows() != 1 || st.Resident != 1 || st.Promoted != 1 {
		t.Fatalf("duplicate promotion created %d rows: %+v", c.resident.Load().rows(), st)
	}
}

func TestRepCachePromotionRespectsCapacity(t *testing.T) {
	c := NewRepCache(4)
	var promos []promotion
	for i := 0; i < 10; i++ {
		r1, r2, p1, p2 := cacheRow(float64(i))
		promos = append(promos, promotion{key: fmt.Sprintf("k%d", i), rep1: r1, rep2: r2, pp1: p1, pp2: p2})
	}
	c.promote(c.gen.Load(), promos)
	if got := c.resident.Load().rows(); got > 4 {
		t.Fatalf("resident tier exceeded capacity: %d", got)
	}
}

func TestRepCacheCapacityBound(t *testing.T) {
	c := NewRepCache(32) // 2 entries per shard
	for i := 0; i < 300; i++ {
		r1, r2, p1, p2 := cacheRow(float64(i))
		c.insert(c.gen.Load(), fmt.Sprintf("k%d", i), r1, r2, p1, p2)
	}
	if s := c.Stats().Size; s > 32+repShards {
		t.Fatalf("cache exceeded capacity: %d", s)
	}
	// Re-inserting an existing key at capacity must not evict others.
	before := c.Stats().Size
	for k := 0; k < 3; k++ {
		z1, z2, z3, z4 := cacheRow(1)
		c.insert(c.gen.Load(), "k299", z1, z2, z3, z4)
	}
	if after := c.Stats().Size; after < before {
		t.Fatalf("overwrite shrank cache: %d -> %d", before, after)
	}
	// Nil cache is inert.
	var nc *RepCache
	nc.Invalidate()
	nc.Validate(1)
	if st := nc.Stats(); st != (RepCacheStats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
}

// TestRepCacheShardSpread sanity-checks that the key hash actually stripes:
// a few hundred distinct keys must not all land in one shard.
func TestRepCacheShardSpread(t *testing.T) {
	c := NewRepCache(10000)
	for i := 0; i < 256; i++ {
		r1, r2, p1, p2 := cacheRow(float64(i))
		c.insert(c.gen.Load(), fmt.Sprintf("SELECT * FROM t WHERE t.a > %d", i), r1, r2, p1, p2)
	}
	max := 0
	for i := range c.shards {
		if n := len(c.shards[i].entries); n > max {
			max = n
		}
	}
	if max == 256 {
		t.Fatal("all keys hashed to one shard")
	}
}

// TestRatesCachedMatchesUncached is the core cache-equivalence gate:
// estimates through a cached Rates — cold, warm (sharded-tier hits),
// resident (pool-resident precompute hits), and after invalidation — are
// bit-identical to the uncached adapter.
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

// TestRepCacheConcurrentUse hammers lookup/insert/promote/invalidate from
// many goroutines; run under -race this is the cache's thread-safety gate.
func TestRepCacheConcurrentUse(t *testing.T) {
	c := NewRepCache(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r1, r2 := make([]float64, 1), make([]float64, 1)
			p1, p2 := make([]float64, 2), make([]float64, 2)
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (w*7+i)%40)
				if row, ok := residentRow(c, key); ok {
					_ = row[0]
					c.hitResident(1)
					continue
				}
				if c.lookup(key, r1, r2, p1, p2) {
					c.promote(c.gen.Load(), []promotion{{key: key, rep1: r1, rep2: r2, pp1: p1, pp2: p2}})
				} else {
					a, b, d, e := cacheRow(float64(i))
					c.insert(c.gen.Load(), key, a, b, d, e)
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

// TestRepCacheSurgicalRemove pins the PR 5 surgical-invalidation path: a
// pool eviction delivered through PoolMutated drops exactly the evicted
// key's rows from both tiers, leaves every other entry warm, raises the
// absorbed version so the next Validate does not flush, and — dead rows
// being more than a quarter of the storage here — the next promotion
// compacts them away.
func TestRepCacheSurgicalRemove(t *testing.T) {
	c := NewRepCache(8)
	c.Validate(1)
	a1, a2, a3, a4 := cacheRow(1)
	b1, b2, b3, b4 := cacheRow(2)
	s1, s2, s3, s4 := cacheRow(3)
	c.promote(c.gen.Load(), []promotion{
		{key: "a", rep1: a1, rep2: a2, pp1: a3, pp2: a4},
		{key: "b", rep1: b1, rep2: b2, pp1: b3, pp2: b4},
	})
	c.insert(c.gen.Load(), "s", s1, s2, s3, s4)

	// Insert-only mutation: nothing is dropped, version is absorbed.
	c.PoolMutated(2, "")
	if st := c.Stats(); st.Resident != 2 || st.Size != 3 {
		t.Fatalf("insert mutation must not drop anything: %+v", st)
	}
	c.Validate(2)
	if st := c.Stats(); st.Size != 3 {
		t.Fatalf("absorbed version must not flush on Validate: %+v", st)
	}

	// Evict a resident key: one tombstone, the other row stays readable.
	c.PoolMutated(3, "a")
	if _, ok := residentRow(c, "a"); ok {
		t.Fatal("evicted key must leave the resident index")
	}
	if st := c.Stats(); st.Resident != 1 || st.Size != 2 {
		t.Fatalf("stats after resident eviction = %+v", st)
	}
	if row, ok := residentRow(c, "b"); !ok || row[0] != 2 {
		t.Fatal("surviving resident row corrupted")
	}

	// Evict a sharded-tier key.
	c.PoolMutated(4, "s")
	if ok, _ := lookupRow(c, "s"); ok {
		t.Fatal("evicted sharded entry must miss")
	}
	// Unknown keys are a no-op.
	c.PoolMutated(5, "never-seen")
	c.Validate(5)
	if st := c.Stats(); st.Size != 1 || st.Resident != 1 {
		t.Fatalf("post-absorption stats = %+v", st)
	}

	// The next promotion compacts the tombstone away: two live keys, two
	// rows, values intact.
	d1, d2, d3, d4 := cacheRow(9)
	c.promote(c.gen.Load(), []promotion{{key: "d", rep1: d1, rep2: d2, pp1: d3, pp2: d4}})
	snap := c.resident.Load()
	if snap.rows() != 2 || snap.dead != 0 {
		t.Fatalf("promotion should compact tombstones: rows=%d dead=%d", snap.rows(), snap.dead)
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
	a1, a2, a3, a4 := cacheRow(1)
	c.insert(c.gen.Load(), "a", a1, a2, a3, a4)
	c.PoolMutated(9, "") // listener absorbed version 9
	c.Validate(8)        // stale observer
	if c.Stats().Size != 1 {
		t.Fatal("older-version Validate after absorption must not flush")
	}
	c.Validate(10) // genuinely unabsorbed mutation: flush
	if c.Stats().Size != 0 {
		t.Fatal("unabsorbed newer version must flush")
	}
}
