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

// identity is the rowOf table of pairs that already are row IDs.
func identity(n int) []int {
	rowOf := make([]int, n)
	for i := range rowOf {
		rowOf[i] = i
	}
	return rowOf
}

// memoGet reads the current store's memoized rate of the row pair (r1, r2).
func memoGet(c *RepCache, r1, r2 int) (float64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rate, ok := c.store.memo[pairKey(r1, r2)]
	return rate, ok
}

// TestRepCacheMemo pins the pair-rate memo at the cache level: a memoized
// pair reads back its exact bits, a pair with a request-local side is never
// stored or looked up, the memo empties at its bound, and compaction
// carries over exactly the pairs whose two rows survive, under their new
// IDs.
func TestRepCacheMemo(t *testing.T) {
	const capacity = 64
	c := NewRepCache(capacity)
	for i := 0; i < capacity; i++ {
		promoteRow(c, fmt.Sprint("k", i), float64(i))
	}
	v := current(c)
	if v.n != capacity {
		t.Fatalf("%d rows resident, want %d", v.n, capacity)
	}
	// Rows 0..63 are resident, row 64 is a request-local extra.
	odd := math.Float64frombits(0x3fd5555555555557)
	c.memoize(v, [][2]int{{0, 0}, {1, 2}, {2, 64}, {64, 1}}, identity(65), []float64{0, odd, 0.5, 0.75})
	if rate, ok := memoGet(c, 0, 0); !ok || rate != 0 {
		t.Fatalf("rate 0 of pair (0,0) must be memoized: %v %v", rate, ok)
	}
	if rate, ok := memoGet(c, 1, 2); !ok || math.Float64bits(rate) != math.Float64bits(odd) {
		t.Fatalf("(1,2) = %v %v, want the bits of %v", rate, ok, odd)
	}
	if _, ok := memoGet(c, 2, 1); ok {
		t.Fatal("pairs are ordered: (2,1) was never stored")
	}
	if st := c.Stats(); st.MemoEntries != 2 {
		t.Fatalf("a pair with a request-local side was stored (%d entries)", st.MemoEntries)
	}
	out := make([]float64, 4)
	miss, looked := c.recall(v, identity(65), [][2]int{{1, 2}, {0, 0}, {2, 1}, {2, 64}}, out, nil)
	if looked != 3 || len(miss) != 2 || miss[0] != 2 || miss[1] != 3 || math.Float64bits(out[0]) != math.Float64bits(odd) {
		t.Fatalf("recall: looked %d, miss %v, out %v", looked, miss, out)
	}

	// The bound: every ordered pair of the 64 rows is 4096 pairs, past the
	// bound of memoPerRow per unit of capacity, so the memo empties once,
	// exactly when it holds the bound, and keeps the pairs stored after.
	var pairs [][2]int
	var rates []float64
	for i := 0; i < capacity; i++ {
		for j := 0; j < capacity; j++ {
			pairs = append(pairs, [2]int{i, j})
			rates = append(rates, float64(len(rates)))
		}
	}
	c.memoize(v, pairs, identity(capacity), rates)
	bound := memoPerRow * capacity
	if st := c.Stats(); st.MemoEntries != len(pairs)-bound {
		t.Fatalf("memo holds %d pairs after %d puts, want %d (emptied at %d)", st.MemoEntries, len(pairs), len(pairs)-bound, bound)
	}
	if _, ok := memoGet(c, 0, 0); ok {
		t.Fatal("a pair stored before the bound survived the emptying")
	}
	for _, k := range []int{bound, len(pairs) - 1} {
		if rate, ok := memoGet(c, pairs[k][0], pairs[k][1]); !ok || rate != rates[k] {
			t.Fatalf("pair %v stored after the emptying: %v %v", pairs[k], rate, ok)
		}
	}
}

// TestRepCacheCompactionRemapsMemo: a compaction carries over exactly the
// memoized pairs of two surviving rows, each under its rows' new IDs with
// its exact bits, and nothing of an evicted row.
func TestRepCacheCompactionRemapsMemo(t *testing.T) {
	c := NewRepCache(64)
	const n = 8
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprint("k", i)
		promoteRow(c, keys[i], float64(i))
	}
	rates := make(map[[2]string]float64)
	var pairs [][2]int
	var vals []float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
			vals = append(vals, 1/float64(3+i*n+j))
			rates[[2]string{keys[i], keys[j]}] = vals[len(vals)-1]
		}
	}
	c.memoize(current(c), pairs, identity(n), vals)
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
	live := []string{"k0", "k2", "k4", "k6", "k7"}
	rowOf := make([]int, len(live))
	c.resolve(live, rowOf)
	if st := c.Stats(); st.MemoEntries != len(live)*len(live) {
		t.Fatalf("compaction kept %d memo pairs, want %d", st.MemoEntries, len(live)*len(live))
	}
	for i, a := range live {
		for j, b := range live {
			rate, ok := memoGet(c, rowOf[i], rowOf[j])
			if want := rates[[2]string{a, b}]; !ok || math.Float64bits(rate) != math.Float64bits(want) {
				t.Fatalf("pair (%s,%s) at rows (%d,%d): %v %v, want %v", a, b, rowOf[i], rowOf[j], rate, ok, want)
			}
		}
	}
}

// TestRepCacheReplacedStoreWritesNothing: a pass whose store is flushed or
// compacted away between resolving its rows and writing back promotes
// nothing, sights nothing and memoizes nothing into the successor, and the
// view it holds still reads its rows bit for bit.
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
		c.memoize(current(c), [][2]int{{0, 1}}, identity(4), []float64{0.125})
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
		if into := c.promote(held, []promotion{{key: "late", rep1: r1, rep2: r2, pp1: p1, pp2: p2}}, true); into != nil {
			t.Fatalf("%s: a stale promotion landed", tc.name)
		}
		c.promote(held, []promotion{{key: "sighted", rep1: r1, rep2: r2, pp1: p1, pp2: p2}}, false)
		c.memoize(held, [][2]int{{0, 3}, {3, 0}, {0, 0}}, identity(4), []float64{0.25, 0.5, 0.75})

		if currentStore(c) != successor {
			t.Fatalf("%s: the stale pass replaced the store", tc.name)
		}
		if st := c.Stats(); st.Resident != before.Resident || st.Promoted != before.Promoted || st.MemoEntries != before.MemoEntries {
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

// memoFixture returns an uncached adapter, a cached one over the same model
// and a request: probe 0 against three partners, both directions.
func memoFixture(t *testing.T, capacity int) (plain, cached *Rates, qs []query.Query, idx [][2]int) {
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

// TestRatesMemoMatchesUncached is the memo's equivalence gate: through
// miss, hit, surgical remove, re-promotion, compaction and Invalidate, the
// cached adapter returns the uncached adapter's bits, the memo is consulted
// only for pairs of two resident rows, and it answers when it should.
func TestRatesMemoMatchesUncached(t *testing.T) {
	ctx := context.Background()
	plain, cached, qs, idx := memoFixture(t, 64)
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
			if got[i] != want[i] {
				t.Fatalf("%s: pair %d: cached %v, uncached %v", label, i, got[i], want[i])
			}
		}
		st := c.Stats()
		if h, m := int(st.MemoHits-before.MemoHits), int(st.MemoMisses-before.MemoMisses); h != wantHits || m != wantMisses {
			t.Fatalf("%s: memo hits/misses = %d/%d, want %d/%d (%+v)", label, h, m, wantHits, wantMisses, st)
		}
	}
	n := len(idx)
	step("first sighting", 0, 0)  // nothing resident: no lookups at all
	step("second sighting", 0, n) // rows promoted, view adopted, rates memoized
	step("memo hit", n, 0)
	if st := c.Stats(); st.MemoEntries != n {
		t.Fatalf("memo entries = %d, want %d", st.MemoEntries, n)
	}

	// Surgical remove of one partner: its two pairs lose their resident
	// side, the rest keep hitting. The key is still in the sighting set,
	// so the same pass re-promotes it under a NEW row ID: its pairs miss
	// once and hit again.
	c.PoolMutated(1, qs[1].Key())
	step("after remove, re-promoted", n-2, 2)
	step("memo hit again", n, 0)

	// Compaction: with three dead rows of five after two more evictions,
	// the re-promotion renumbers the survivors; their memoized pairs follow
	// them, the re-promoted partners' pairs are new.
	c.PoolMutated(2, qs[1].Key())
	c.PoolMutated(3, qs[2].Key())
	if s := currentStore(c); s.dead <= s.n/4 {
		t.Fatalf("fixture should be due for compaction: %d dead of %d", s.dead, s.n)
	}
	step("after two removes, re-promotion compacts, survivors remapped", n-4, 4)
	if s := currentStore(c); s.dead != 0 || s.n != len(qs) {
		t.Fatalf("promotion did not compact: %d rows, %d dead", s.n, s.dead)
	}
	step("memo hit after compaction", n, 0)

	c.Invalidate()
	if st := c.Stats(); st.MemoEntries != 0 || st.Resident != 0 {
		t.Fatalf("Invalidate must drop the memo with the rows: %+v", st)
	}
	step("post-invalidate", 0, 0)
}

// countdownCtx reports cancellation from its n-th Err call on.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestRatesMemoUntouchedByCancelledPass: a pass cancelled at any of its
// checkpoints — before the head, between chunks, or after every pair was
// already computed — returns an error and writes nothing into the memo.
func TestRatesMemoUntouchedByCancelledPass(t *testing.T) {
	ctx := context.Background()
	_, cached, qs, idx := memoFixture(t, 64)
	if err := cached.Warm(qs); err != nil { // every row resident, the memo empty
		t.Fatal(err)
	}
	for n := 0; ; n++ {
		out, err := cached.EstimateRatesIndexed(&countdownCtx{Context: ctx, n: n}, qs, idx)
		st := cached.Cache.Stats()
		if err == nil {
			if n < 3 || st.MemoEntries != len(idx) {
				t.Fatalf("pass survived %d checkpoints with %d memo entries", n, st.MemoEntries)
			}
			break
		}
		if out != nil || st.MemoEntries != 0 {
			t.Fatalf("cancelled at checkpoint %d: out=%v, memo entries=%d", n, out, st.MemoEntries)
		}
	}
}

// TestRatesWarmPromotesInOnePass: Warm encodes every query once and lands
// it in the resident tier directly, so the very next request reads all of
// them in place.
func TestRatesWarmPromotesInOnePass(t *testing.T) {
	_, cached, qs, idx := memoFixture(t, 64)
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

// TestRatesHotPathAllocs pins the steady-state allocation count of the rate
// call — the out slice, the key list and the predictor — memo hit or not.
func TestRatesHotPathAllocs(t *testing.T) {
	ctx := context.Background()
	_, cached, qs, idx := memoFixture(t, 64)
	run := func() {
		if _, err := cached.EstimateRatesIndexed(ctx, qs, idx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		run()
	}
	if n := testing.AllocsPerRun(50, run); n > 3 {
		t.Errorf("memo-hit pass: %v allocs, want <= 3", n)
	}
	// A pass the memo answers only in part: the miss list and the compacted
	// pair list come from the workspace, so the count stays the same. Each
	// run empties the memo (in place: no allocation), memoizes the first two
	// pairs, then asks for all of them: two passes of three allocations.
	mixed := func() {
		c := cached.Cache
		c.mu.Lock()
		clear(c.store.memo)
		c.mu.Unlock()
		if _, err := cached.EstimateRatesIndexed(ctx, qs, idx[:2]); err != nil {
			t.Fatal(err)
		}
		before := cached.Cache.Stats()
		if _, err := cached.EstimateRatesIndexed(ctx, qs, idx); err != nil {
			t.Fatal(err)
		}
		if st := cached.Cache.Stats(); st.MemoHits-before.MemoHits != 2 || st.MemoMisses-before.MemoMisses != uint64(len(idx)-2) {
			t.Fatalf("not a partial memo pass: %+v -> %+v", before, st)
		}
	}
	mixed()
	if n := testing.AllocsPerRun(50, mixed); n > 3+3 {
		t.Errorf("memo reset + miss pass + partial pass: %v allocs, want <= 6", n)
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

// TestRepCacheConcurrentMemo drives the memoized rate path from several
// goroutines while others evict, re-promote (forcing compactions) and flush:
// under -race this is the resident tier's thread-safety gate, and every
// answer must still equal the uncached adapter's.
func TestRepCacheConcurrentMemo(t *testing.T) {
	ctx := context.Background()
	plain, cached, qs, idx := memoFixture(t, 64)
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
