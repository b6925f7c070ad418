package crn

import (
	"context"
	"fmt"
	"runtime"
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

// TestRateMemoTable pins the table mechanics: a stored pair reads back its
// exact bits, pairs with a non-resident side are never stored, growth keeps
// every entry, the bound restarts the table empty, and remap carries over
// exactly the pairs whose two rows survive.
func TestRateMemoTable(t *testing.T) {
	m := newRateMemo(4 * memoMinSlots)
	tab := func() *memoTable { return m.tab.Load() }
	if _, ok := tab().get(pairKey(0, 0)); ok {
		t.Fatal("empty memo must miss")
	}
	// Rows 0..2 are resident, row 3 is a request-local extra.
	m.put([][2]int{{0, 0}, {1, 2}, {2, 3}, {3, 1}}, identity(4), 3, []float64{0, 0.25, 0.5, 0.75})
	if v, ok := tab().get(pairKey(0, 0)); !ok || v != 0 {
		t.Fatalf("rate 0 of pair (0,0) must be a hit: %v %v", v, ok)
	}
	if v, ok := tab().get(pairKey(1, 2)); !ok || v != 0.25 {
		t.Fatalf("(1,2) = %v %v", v, ok)
	}
	if _, ok := tab().get(pairKey(2, 1)); ok {
		t.Fatal("pairs are ordered: (2,1) was never stored")
	}
	if _, ok := tab().get(pairKey(2, 3)); ok || m.entries.Load() != 2 {
		t.Fatalf("a pair with a non-resident side was stored (entries %d)", m.entries.Load())
	}

	// Growth: well past the first table's fill bound, everything is kept.
	const n = 2 * memoMinSlots
	pairs, vals := make([][2]int, n), make([]float64, n)
	for i := range pairs {
		pairs[i], vals[i] = [2]int{i, i + 7}, float64(i)
	}
	m.put(pairs, identity(n+7), n+7, vals)
	if len(tab().slots) <= memoMinSlots || int(m.entries.Load()) != n+2 {
		t.Fatalf("table did not grow: %d slots, %d entries", len(tab().slots), m.entries.Load())
	}
	for i := range pairs {
		if v, ok := tab().get(pairKey(i, i+7)); !ok || v != float64(i) {
			t.Fatalf("pair %d lost in growth: %v %v", i, v, ok)
		}
	}

	// Remap: rows below 100 survive at new IDs, the rest die.
	newRow := make([]int, n+7)
	for i := range newRow {
		newRow[i] = -1
		if i < 100 {
			newRow[i] = 99 - i
		}
	}
	re := m.remap(newRow)
	if v, ok := re.tab.Load().get(pairKey(99-5, 99-12)); !ok || v != 5 {
		t.Fatalf("surviving pair (5,12) not remapped: %v %v", v, ok)
	}
	if got := re.entries.Load(); got != 93+2 { // (i,i+7) for i<93, plus (0,0) and (1,2)
		t.Fatalf("remap kept %d entries", got)
	}

	// The bound: filling past three quarters of the largest table starts over.
	for i := range pairs {
		pairs[i] = [2]int{i + n, i}
	}
	m.put(pairs, identity(2*n), 2*n, vals)
	if len(tab().slots) > 4*memoMinSlots || int(m.entries.Load()) >= 4*memoMinSlots/4*3 {
		t.Fatalf("memo exceeded its bound: %d slots, %d entries", len(tab().slots), m.entries.Load())
	}
	if v, ok := tab().get(pairKey(2*n-1, n-1)); !ok || v != vals[n-1] {
		t.Fatal("the pair stored last must be served after a restart")
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
	// side, the rest keep hitting. The key is still in the sighting filter,
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
	if snap := c.resident.Load(); snap.dead <= snap.n/4 {
		t.Fatalf("fixture should be due for compaction: %d dead of %d", snap.dead, snap.n)
	}
	step("after two removes, re-promotion compacts, survivors remapped", n-4, 4)
	if snap := c.resident.Load(); snap.dead != 0 || snap.n != len(qs) {
		t.Fatalf("promotion did not compact: %d rows, %d dead", snap.n, snap.dead)
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
	// run empties the memo (one table: two allocations), memoizes the first
	// two pairs, then asks for all of them.
	memo := cached.Cache.resident.Load().memo
	mixed := func() {
		memo.tab.Store(newMemoTable(memoMinSlots))
		memo.entries.Store(0)
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
	if n := testing.AllocsPerRun(50, mixed); n > 2+3+3 {
		t.Errorf("memo reset + miss pass + partial pass: %v allocs, want <= 8", n)
	}
}

// TestPromotionCostLinear: promoting keys one at a time costs O(rows added)
// per promotion — an append behind the published count plus a copy of the
// small delta — so the bytes allocated in total stay within a small multiple
// of what the tier finally holds, and doubling the key count roughly
// doubles them. (The copy-on-write tier this replaced republished every
// resident row per promotion: 4096 keys allocated ~2000 times the final
// size.)
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
			c.promote(c.gen.Load(), []promotion{{key: key, rep1: row[:h], rep2: row[:h], pp1: row, pp2: row}})
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
