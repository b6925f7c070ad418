package pool

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync/atomic"
	"testing"

	"crn/internal/query"
	"crn/internal/sqlparse"
)

// TestHeapEvictionHonorsStaleTouches drives the lazy-repair path of the
// eviction heap: an entry that was the oldest at insertion but has been
// re-stamped by candidate selection must be skipped (its heap record is
// stale) in favor of the true least-recently-matched entry.
func TestHeapEvictionHonorsStaleTouches(t *testing.T) {
	p := New(WithCap(3))
	qa := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 1")
	qb := sqlparse.MustParse(s, "SELECT * FROM cast_info WHERE cast_info.role_id = 2")
	qc := sqlparse.MustParse(s, "SELECT * FROM movie_keyword WHERE movie_keyword.keyword_id = 3")
	p.Add(qa, 10) // tick 1
	p.Add(qb, 20) // tick 2
	p.Add(qc, 30) // tick 3

	// Touch qa: its heap record (tick 1) is now stale.
	p.Matching(sqlparse.MustParse(s, "SELECT * FROM title"))

	// Saturated insert: the victim must be qb (oldest current stamp), not
	// qa (oldest heap record).
	qd := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 4")
	if !p.Add(qd, 40) {
		t.Fatal("insert should succeed")
	}
	if !p.Contains(qa) || p.Contains(qb) || !p.Contains(qc) {
		t.Fatalf("victim should be qb: a=%v b=%v c=%v",
			p.Contains(qa), p.Contains(qb), p.Contains(qc))
	}

	// Touch qc, then overflow again: now qa (stamped before qd was added)
	// is the true victim.
	p.Matching(sqlparse.MustParse(s, "SELECT * FROM movie_keyword"))
	qe := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 5")
	p.Add(qe, 50)
	if p.Contains(qa) {
		t.Error("qa should be the second victim")
	}
	if !p.Contains(qc) || !p.Contains(qd) || !p.Contains(qe) {
		t.Error("recently stamped entries must survive")
	}
	if got := p.Stats().Evictions; got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}
}

// linearVictim is the pre-heap victim search, kept as the reference the
// heap is held to: a full scan for the oldest (tick, ID) stamp. It returns
// the victim's query.
func linearVictim(p *Pool) query.Query {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var victim *Entry
	var victimTick int64
	for _, idx := range p.byFrom {
		for i := range idx.entries {
			t := atomic.LoadInt64(&idx.lastHit[i])
			if victim == nil || t < victimTick || (t == victimTick && idx.entries[i].ID < victim.ID) {
				victim, victimTick = &idx.entries[i], t
			}
		}
	}
	return victim.Q
}

// checkEvictionHeap asserts the invariant evictLRULocked relies on: on a
// bounded pool every live entry has exactly one heap record, under its own
// FROM key.
func checkEvictionHeap(t testing.TB, p *Pool) {
	t.Helper()
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.cap <= 0 {
		return
	}
	recs := make(map[int64]string, len(p.evictQ))
	for _, r := range p.evictQ {
		if _, dup := recs[r.id]; dup {
			t.Fatalf("entry %d has two heap records", r.id)
		}
		recs[r.id] = r.from
	}
	live := 0
	for from, idx := range p.byFrom {
		for _, e := range idx.entries {
			live++
			if f, ok := recs[e.ID]; !ok || f != from {
				t.Fatalf("live entry %d (%s) has no heap record", e.ID, from)
			}
		}
	}
	if len(recs) != live {
		t.Fatalf("%d heap records for %d live entries", len(recs), live)
	}
}

// TestHeapEvictionMatchesLinearScan cross-checks the heap victim search
// against the pre-heap linear scan over a randomized-ish workload: every
// saturated insert must evict exactly the entry the scan picks, and the
// heap must cover every live entry after each mutation.
func TestHeapEvictionMatchesLinearScan(t *testing.T) {
	const capacity = 16
	p := New(WithCap(capacity))
	sql := func(i int) string {
		return fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", i)
	}
	probe := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 0")
	for i := 0; i < 4*capacity; i++ {
		q := sqlparse.MustParse(s, sql(i))
		var victim query.Query
		saturated := p.Len() == capacity
		if saturated {
			victim = linearVictim(p)
		}
		if !p.Add(q, int64(i+1)) {
			t.Fatalf("step %d: insert refused", i)
		}
		checkEvictionHeap(t, p)
		if saturated && p.Contains(victim) {
			t.Fatalf("step %d: the heap kept %s, the oldest stamp", i, victim.SQL())
		}
		if got, want := p.Len(), min(i+1, capacity); got != want {
			t.Fatalf("step %d: len %d, want %d", i, got, want)
		}
		if i%5 == 0 {
			p.TopK(probe, 4) // re-stamps four entries: their records go stale
		}
	}
	if got := p.Stats().Evictions; got != 3*capacity {
		t.Fatalf("evictions = %d, want %d", got, 3*capacity)
	}
}

// recordingListener captures mutation callbacks.
type recordingListener struct {
	versions []uint64
	evicted  []string
}

func (r *recordingListener) PoolMutated(version uint64, evictedKey string) {
	r.versions = append(r.versions, version)
	if evictedKey != "" {
		r.evicted = append(r.evicted, evictedKey)
	}
}

// TestSubscribeObservesMutations pins the listener contract: one callback
// per version bump, evictions carry the victim's canonical key, inserts an
// empty key, and Unsubscribe stops delivery.
func TestSubscribeObservesMutations(t *testing.T) {
	p := New(WithCap(2))
	rec := &recordingListener{}
	p.Subscribe(rec)
	p.Subscribe(rec) // duplicate subscription must not double-deliver

	qa := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 1")
	qb := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 2")
	qc := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 3")
	p.Add(qa, 1)
	p.Add(qb, 2)
	if len(rec.versions) != 2 || len(rec.evicted) != 0 {
		t.Fatalf("two insert callbacks expected: %+v", rec)
	}
	p.Add(qc, 3) // saturated: evict + insert = two bumps
	if len(rec.versions) != 4 {
		t.Fatalf("saturated Add should deliver two callbacks, got %d total", len(rec.versions))
	}
	if len(rec.evicted) != 1 || rec.evicted[0] != qa.Key() {
		t.Fatalf("evicted keys = %v, want [%q]", rec.evicted, qa.Key())
	}
	for i := 1; i < len(rec.versions); i++ {
		if rec.versions[i] <= rec.versions[i-1] {
			t.Fatalf("versions not increasing: %v", rec.versions)
		}
	}
	if rec.versions[len(rec.versions)-1] != p.Version() {
		t.Errorf("last delivered version %d != pool version %d",
			rec.versions[len(rec.versions)-1], p.Version())
	}

	p.Unsubscribe(rec)
	p.Add(sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 4"), 4)
	if len(rec.versions) != 4 {
		t.Errorf("unsubscribed listener still notified: %+v", rec.versions)
	}
}

// TestSaveLoadRoundTripsLRUState is the regression pin for the ROADMAP bug:
// Save/Load used to drop last-match ticks, so a restarted bounded pool
// evicted in insertion order. The restored pool must evict the same victim
// the saved pool would have.
func TestSaveLoadRoundTripsLRUState(t *testing.T) {
	p := New(WithCap(2))
	qa := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 1")
	qb := sqlparse.MustParse(s, "SELECT * FROM cast_info WHERE cast_info.role_id = 2")
	p.Add(qa, 10) // inserted first ...
	p.Add(qb, 20)
	// ... but matched last: under true LRU, qb is now the victim.
	p.Matching(sqlparse.MustParse(s, "SELECT * FROM title"))

	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(s, &buf, WithCap(2))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 || loaded.Cap() != 2 {
		t.Fatalf("len=%d cap=%d", loaded.Len(), loaded.Cap())
	}
	m := loaded.Matching(qa)
	if len(m) != 1 || m[0].Card != 10 {
		t.Fatalf("cards not preserved: %+v", m)
	}

	loaded.Add(sqlparse.MustParse(s, "SELECT * FROM movie_keyword"), 30)
	if !loaded.Contains(qa) {
		t.Error("restored pool evicted the recently matched entry (LRU state lost)")
	}
	if loaded.Contains(qb) {
		t.Error("restored pool should evict the least-recently-matched entry")
	}
}

// TestSaveDeterministic pins that two saves of one pool are byte-identical
// (map iteration order must not leak into the payload).
func TestSaveDeterministic(t *testing.T) {
	p := New()
	for i := 0; i < 20; i++ {
		p.Add(sqlparse.MustParse(s, fmt.Sprintf(
			"SELECT * FROM title WHERE title.production_year > %d", i)), int64(i+1))
	}
	var a, b bytes.Buffer
	if err := p.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := p.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two saves of an unchanged pool differ")
	}
}

// TestLoadLegacyFormat accepts the pre-envelope payload (a bare entry slice
// without recency stamps).
func TestLoadLegacyFormat(t *testing.T) {
	legacy := []struct {
		SQL  string
		Card int64
	}{
		{"SELECT * FROM title WHERE title.kind_id = 1", 7},
		{"SELECT * FROM cast_info", 9},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	p, err := Load(s, &buf)
	if err != nil {
		t.Fatalf("legacy payload should load: %v", err)
	}
	if p.Len() != 2 {
		t.Fatalf("loaded %d entries", p.Len())
	}
	if m := p.Matching(sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 2")); len(m) != 1 || m[0].Card != 7 {
		t.Errorf("legacy cards not preserved: %+v", m)
	}
}

// TestAddSaturatedAllocs pins the cost of one insert into a full capped
// pool, the record-heavy steady state: every Add evicts the least recently
// matched entry, then indexes the new one under its signature class. The
// single FROM clause and distinct constants mirror BenchmarkAddSaturated.
func TestAddSaturatedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned on the plain build only")
	}
	const size, runs = 1000, 200
	qs := make([]query.Query, size+runs+1)
	for i := range qs {
		qs[i] = sqlparse.MustParse(s, fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", i))
	}
	p := New(WithCap(size))
	for _, q := range qs[:size] {
		p.Add(q, 1)
	}
	next := size
	allocs := testing.AllocsPerRun(runs, func() {
		p.Add(qs[next], 1)
		next++
	})
	if p.Len() != size {
		t.Fatalf("pool size = %d, want the cap %d", p.Len(), size)
	}
	if allocs > 4 {
		t.Fatalf("saturated Add allocates %v times, want at most 4", allocs)
	}
}
