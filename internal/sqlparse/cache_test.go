package sqlparse

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"crn/internal/query"
	"crn/internal/schema"
)

// checkCached parses sql through the cache twice — a miss, then (for a
// well-formed text that fits) a hit — and holds both outcomes to the oracle's
// and the counters to the admission rules: a failed parse is never admitted,
// an admitted one is answered without the parser.
func checkCached(t *testing.T, c *Cache, s *schema.Schema, sql string) {
	t.Helper()
	before := c.Stats()
	first, err1 := c.Parse(sql)
	ok := checkOutcome(t, s, nil, sql, first, err1)
	mid := c.Stats()
	second, err2 := c.Parse(sql)
	checkOutcome(t, s, nil, sql, second, err2)
	after := c.Stats()

	admitted := ok && len(sql) <= maxStatementLen
	wantHits := uint64(0)
	if admitted {
		wantHits = 1
	}
	// The first lookup may itself be a hit: inputs repeat within the corpus.
	if after.Hits-mid.Hits != wantHits {
		t.Errorf("%q: second lookup made %d hits, want %d", sql, after.Hits-mid.Hits, wantHits)
	}
	if !ok {
		if after.Entries != before.Entries || after.Misses != before.Misses+2 {
			t.Errorf("%q: failed parse changed the cache: %+v -> %+v", sql, before, after)
		}
		if (err1 == nil) != (err2 == nil) || err1 != nil && (err1.Error() != err2.Error() || !errors.Is(err2, ErrDialect)) {
			t.Errorf("%q: errors differ between lookups: %v, then %v", sql, err1, err2)
		}
		return
	}
	if first.SQL() != second.SQL() || first.FROMKey() != second.FROMKey() ||
		!reflect.DeepEqual(first.Signature(), second.Signature()) ||
		!reflect.DeepEqual(first.Tables, second.Tables) || !reflect.DeepEqual(first.Joins, second.Joins) ||
		!reflect.DeepEqual(first.Preds, second.Preds) {
		t.Errorf("%q: miss and hit disagree:\n miss %#v\n hit  %#v", sql, first, second)
	}
}

// TestCacheMatchesOracle runs the differential corpus of TestParseMatchesOracle
// and of its prefix-schema twin through a statement cache, every input twice.
func TestCacheMatchesOracle(t *testing.T) {
	c := NewCache(s)
	for _, sql := range handWritten {
		checkCached(t, c, s, sql)
	}
	rng := rand.New(rand.NewSource(5))
	for _, sql := range generated(t, 40) {
		checkCached(t, c, s, sql)
		for i := 0; i < 4; i++ {
			re := respell(rng, sql)
			checkCached(t, c, s, re)
			for k := 0; k < 25; k++ {
				checkCached(t, c, s, mutate(rng, re))
			}
		}
	}
	if st := c.Stats(); st.Hits == 0 || st.Entries == 0 || st.Entries > st.Capacity {
		t.Errorf("corpus left the cache at %+v", st)
	}

	ps := prefixSchema()
	pc := NewCache(ps)
	rng = rand.New(rand.NewSource(9))
	for _, sql := range prefixBase {
		checkCached(t, pc, ps, sql)
		for k := 0; k < 300; k++ {
			checkCached(t, pc, ps, mutate(rng, sql))
		}
	}
}

// FuzzCacheParse is FuzzParse through two long-lived statement caches, one
// per schema: whatever the fuzzer has admitted and evicted before, a text is
// answered as the oracle answers it, on the miss and on the hit.
func FuzzCacheParse(f *testing.F) {
	for _, sql := range handWritten {
		f.Add(sql)
	}
	rng := rand.New(rand.NewSource(1))
	for _, sql := range generated(f, 6) {
		f.Add(sql)
		f.Add(respell(rng, sql))
	}
	ps := prefixSchema()
	c, pc := NewCache(s), NewCache(ps)
	f.Fuzz(func(t *testing.T, sql string) {
		checkCached(t, c, s, sql)
		checkCached(t, pc, ps, sql)
	})
}

// TestCacheKeysAreExactBytes: the key is the request text, not the query —
// two spellings of one query are two entries holding equal canonical queries.
func TestCacheKeysAreExactBytes(t *testing.T) {
	c := NewCache(s)
	a, err := c.Parse("SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND title.kind_id = 1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Parse("select * from cast_info, title where cast_info.movie_id = title.id and title.kind_id = 1;")
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() || a.FROMKey() != b.FROMKey() {
		t.Errorf("spellings disagree: %q vs %q", a.Key(), b.Key())
	}
	if st := c.Stats(); st.Entries != 2 || st.Misses != 2 || st.Hits != 0 {
		t.Errorf("two spellings: %+v, want 2 entries from 2 misses", st)
	}
}

// TestCacheHitIsImmuneToAppend: the returned query is shared, so its slices
// must carry no spare capacity — an append by one caller copies instead of
// writing where the next hit would see it.
func TestCacheHitIsImmuneToAppend(t *testing.T) {
	c := NewCache(s)
	want := MustParse(s, twoJoinThreePred)
	for i := 0; i < 3; i++ {
		q, err := c.Parse(twoJoinThreePred)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(q.Tables, want.Tables) || !reflect.DeepEqual(q.Joins, want.Joins) ||
			!reflect.DeepEqual(q.Preds, want.Preds) || q.SQL() != want.SQL() {
			t.Fatalf("lookup %d returned %#v, want %#v", i, q, want)
		}
		if cap(q.Tables) != len(q.Tables) || cap(q.Joins) != len(q.Joins) || cap(q.Preds) != len(q.Preds) {
			t.Fatalf("lookup %d: spare capacity in a shared query: %d/%d %d/%d %d/%d", i,
				len(q.Tables), cap(q.Tables), len(q.Joins), cap(q.Joins), len(q.Preds), cap(q.Preds))
		}
		q.Tables = append(q.Tables, "ghost")
		q.Joins = append(q.Joins, query.Join{})
		q.Preds = append(q.Preds, query.Predicate{Op: "!"})
		q.Tables[0], q.Preds[0].Val = "", -1 // the caller's copies, not the cache's
	}
}

// distinctSQL is the i'th text of a stream that never repeats.
func distinctSQL(i int) string {
	return fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", i)
}

// TestCacheIsBounded: ten capacities of never-repeating texts leave at most
// one capacity resident, and a text that was hot before the flood — evicted by
// it — still parses to the same query.
func TestCacheIsBounded(t *testing.T) {
	c := NewCache(s)
	hot := twoJoinThreePred
	want := MustParse(s, hot)
	for i := 0; i < 3; i++ {
		if _, err := c.Parse(hot); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Hits != 2 || st.Entries != 1 {
		t.Fatalf("warm-up: %+v", st)
	}
	for i := 0; i < 10*cacheCapacity; i++ {
		q, err := c.Parse(distinctSQL(i))
		if err != nil || q.Preds[0].Val != int64(i) {
			t.Fatalf("stream text %d: %v, %v", i, q, err)
		}
	}
	st := c.Stats()
	if st.Entries > cacheCapacity || st.Entries < cacheCapacity*9/10 {
		t.Errorf("after the flood: %d entries, capacity %d", st.Entries, cacheCapacity)
	}
	got, err := c.Parse(hot)
	if err != nil || got.SQL() != want.SQL() || !reflect.DeepEqual(got.Preds, want.Preds) {
		t.Fatalf("hot text after the flood: %v, %v", got, err)
	}
	if after := c.Stats(); after.Misses != st.Misses+1 {
		t.Errorf("the flood did not evict the hot text: %+v -> %+v", st, after)
	}
	if _, err := c.Parse(hot); err != nil || c.Stats().Hits != st.Hits+1 {
		t.Errorf("hot text was not re-admitted: %v, %+v", err, c.Stats())
	}
}

// TestCacheRejectsOversize: a body padded past the length limit is answered
// and counted, not retained.
func TestCacheRejectsOversize(t *testing.T) {
	c := NewCache(s)
	base := "SELECT * FROM title WHERE title.kind_id = 3"
	fits := base + strings.Repeat(" ", maxStatementLen-len(base))
	long := fits + " "
	want := MustParse(s, base)
	for i := 0; i < 2; i++ {
		q, err := c.Parse(long)
		if err != nil || q.SQL() != want.SQL() {
			t.Fatalf("oversize text: %v, %v", q, err)
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 2 || st.Hits != 0 || st.RejectedOversize != 2 {
		t.Errorf("oversize text was admitted: %+v", st)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Parse(fits); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries != 1 || st.Hits != 1 || st.RejectedOversize != 2 {
		t.Errorf("text at the limit: %+v", st)
	}
}

// TestCacheDoesNotRetainInput extends TestParsedQueryDoesNotRetainInput to the
// cache: neither the key nor any string of the cached query aliases the
// caller's bytes, which for a binary frame are a per-request arena.
func TestCacheDoesNotRetainInput(t *testing.T) {
	c := NewCache(s)
	sql := strings.Clone(twoJoinThreePred)
	if _, err := c.Parse(sql); err != nil {
		t.Fatal(err)
	}
	found := 0
	for i := range c.sets {
		for w := range c.sets[i].ways {
			e := c.sets[i].ways[w].Load()
			if e == nil {
				continue
			}
			found++
			if e.text != sql {
				t.Errorf("key %q, want the request text", e.text)
			}
			parts := append([]string{e.text, e.q.SQL(), e.q.FROMKey()}, e.q.Tables...)
			for _, j := range e.q.Joins {
				parts = append(parts, j.Left.Table, j.Left.Column, j.Right.Table, j.Right.Column)
			}
			for _, p := range e.q.Preds {
				parts = append(parts, p.Col.Table, p.Col.Column, p.Op)
			}
			for _, part := range parts {
				if aliases(part, sql) {
					t.Errorf("cached %q aliases the request text", part)
				}
			}
		}
	}
	if found != 1 {
		t.Fatalf("%d entries after one parse", found)
	}
}

// TestCacheHitAllocations: a recognised text costs no allocation.
func TestCacheHitAllocations(t *testing.T) {
	c := NewCache(s)
	for _, sql := range []string{twoJoinThreePred, "SELECT * FROM title"} {
		if _, err := c.Parse(sql); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, err := c.Parse(sql); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("hit on %q allocates %v times", sql, n)
		}
	}
}

// TestCacheConcurrentStorm hammers one cache from several goroutines with a
// hot set (hits), a private never-repeating stream each (misses that evict)
// and malformed texts; run under -race. Every answer must be the parser's.
func TestCacheConcurrentStorm(t *testing.T) {
	c := NewCache(s)
	hot := generated(t, 8)
	want := make([]string, len(hot))
	for i, sql := range hot {
		want[i] = MustParse(s, sql).SQL()
	}
	const workers, rounds = 6, 6000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch i % 4 {
				case 0, 1:
					k := (i + w) % len(hot)
					if q, err := c.Parse(hot[k]); err != nil || q.SQL() != want[k] {
						t.Errorf("hot %q: %v, %v", hot[k], q, err)
						return
					}
				case 2:
					n := w*rounds + i
					if q, err := c.Parse(distinctSQL(n)); err != nil || q.Preds[0].Val != int64(n) {
						t.Errorf("cold %d: %v, %v", n, q, err)
						return
					}
				case 3:
					if _, err := c.Parse("SELECT * FROM ghost"); !errors.Is(err, ErrDialect) {
						t.Errorf("malformed text: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > cacheCapacity || st.Hits == 0 || st.Hits+st.Misses != workers*rounds {
		t.Errorf("after the storm: %+v", st)
	}
}
