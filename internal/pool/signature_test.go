package pool

import (
	"fmt"
	"testing"

	"crn/internal/query"
	"crn/internal/sqlparse"
)

func sig(t *testing.T, sql string) query.Signature {
	t.Helper()
	q := sqlparse.MustParse(s, sql)
	return q.Signature()
}

func TestSignatureDeterministic(t *testing.T) {
	a := sig(t, "SELECT * FROM title WHERE title.kind_id = 1 AND title.production_year > 1990")
	b := sig(t, "SELECT * FROM title WHERE title.production_year > 1990 AND title.kind_id = 1")
	if a.Cols != b.Cols || a.Joins != b.Joins || a.Ops != b.Ops {
		t.Fatalf("signature masks differ for equivalent queries: %+v vs %+v", a, b)
	}
	if got := a.Similarity(&b); got != b.Similarity(&a) || got != a.Similarity(&a) {
		t.Fatalf("equal queries should score identically: %v vs %v", got, a.Similarity(&a))
	}
}

func TestSignatureRanking(t *testing.T) {
	probe := sig(t, "SELECT * FROM title WHERE title.production_year > 1990")

	// Same column, overlapping range: the most comparable candidate.
	overlap := sig(t, "SELECT * FROM title WHERE title.production_year > 1985")
	// Same column, disjoint range (year in 1900..1910 vs > 1990 is decided
	// disjoint only when both sides bound; > vs < here IS decidable).
	disjoint := sig(t, "SELECT * FROM title WHERE title.production_year < 1950")
	// Different column entirely: the old query constrains something the
	// probe does not, pushing y_rate to 0.
	other := sig(t, "SELECT * FROM title WHERE title.kind_id = 3")
	// No predicates at all: a containing anchor; mildly penalized but far
	// better than a conflicting constraint.
	anchor := sig(t, "SELECT * FROM title")

	so, sd, st, sa := probe.Similarity(&overlap), probe.Similarity(&disjoint),
		probe.Similarity(&other), probe.Similarity(&anchor)
	if !(so > sd) {
		t.Errorf("overlapping range (%v) should outrank disjoint range (%v)", so, sd)
	}
	if !(so > st) {
		t.Errorf("shared column (%v) should outrank foreign column (%v)", so, st)
	}
	if !(sa > st) {
		t.Errorf("anchor (%v) should outrank foreign-column candidate (%v)", sa, st)
	}
}

func TestSignatureRangeConflict(t *testing.T) {
	probe := sig(t, "SELECT * FROM title WHERE title.kind_id = 2")
	conflict := sig(t, "SELECT * FROM title WHERE title.kind_id = 1 AND title.kind_id = 3")
	same := sig(t, "SELECT * FROM title WHERE title.kind_id = 2")
	if probe.Similarity(&conflict) >= probe.Similarity(&same) {
		t.Errorf("contradictory conjunction should rank below an identical predicate")
	}
}

// TestTopKWideRangeRanksBelowNarrow pins interval similarity on a range
// wider than int64 can count: against a narrow probe its narrow twin scores
// Jaccard 1 and the wide range almost 0, so the twin is selected although
// the wide entry is older and would win a tie — on the indexed path and on
// the linear scan alike. Disjoint members of the same signature class make
// the clause dense enough for the index to be taken.
func TestTopKWideRangeRanksBelowNarrow(t *testing.T) {
	wide := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > -5000000000000000000 AND title.production_year < 5000000000000000000")
	narrow := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1990 AND title.production_year < 2000")
	for _, indexed := range []bool{true, false} {
		p := New(WithIndexedSelection(indexed))
		p.Add(wide, 10)
		p.Add(narrow, 10)
		for i := 0; i < 6; i++ {
			p.Add(sqlparse.MustParse(s, fmt.Sprintf(
				"SELECT * FROM title WHERE title.production_year > %d AND title.production_year < %d", 3000+10*i, 3010+10*i)), 10)
		}
		got := p.TopK(narrow, 1)
		if len(got) != 1 || got[0].Q.Key() != narrow.Key() {
			t.Errorf("indexed=%v: TopK(narrow, 1) = %v, want the narrow entry", indexed, got)
		}
		if hits := p.Stats().IndexHits; indexed != (hits > 0) {
			t.Errorf("indexed=%v: %d index hits", indexed, hits)
		}
	}
}

func TestSignatureJoins(t *testing.T) {
	probe := sig(t, "SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id")
	sameJoin := sig(t, "SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND cast_info.role_id = 2")
	noJoin := sig(t, "SELECT * FROM title, cast_info")
	if probe.Similarity(&sameJoin) <= probe.Similarity(&noJoin) {
		t.Errorf("shared join edge should improve the score")
	}
}

func TestTopKFullFallbackMatchesMatching(t *testing.T) {
	p := New()
	for i := 0; i < 10; i++ {
		p.Add(sqlparse.MustParse(s, fmt.Sprintf(
			"SELECT * FROM title WHERE title.production_year > %d", 1900+i)), int64(i+1))
	}
	probe := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1950")
	full := p.Matching(probe)
	for _, k := range []int{0, -3, 10, 11, 1000} {
		got := p.TopK(probe, k)
		if len(got) != len(full) {
			t.Fatalf("TopK(%d) returned %d entries, want %d", k, len(got), len(full))
		}
		for i := range got {
			if got[i].ID != full[i].ID {
				t.Fatalf("TopK(%d)[%d] = ID %d, want ID %d (order must match Matching)",
					k, i, got[i].ID, full[i].ID)
			}
		}
	}
	if st := p.Stats(); st.TopKCalls != 0 {
		t.Errorf("full-fallback selections should not count as TopK calls: %+v", st)
	}
}

func TestTopKSelectsMostSimilar(t *testing.T) {
	p := New()
	// 20 decoys on a foreign column, 3 near-misses on the probe's column.
	for i := 0; i < 20; i++ {
		p.Add(sqlparse.MustParse(s, fmt.Sprintf(
			"SELECT * FROM title WHERE title.kind_id = %d", i)), 50)
	}
	wantIDs := make(map[int64]bool)
	for i := 0; i < 3; i++ {
		q := sqlparse.MustParse(s, fmt.Sprintf(
			"SELECT * FROM title WHERE title.production_year > %d", 1980+i))
		p.Add(q, 100)
		wantIDs[int64(20+i)] = true
	}
	probe := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1985")
	got := p.TopK(probe, 3)
	if len(got) != 3 {
		t.Fatalf("TopK(3) returned %d entries", len(got))
	}
	for _, e := range got {
		if !wantIDs[e.ID] {
			t.Errorf("TopK selected decoy entry %d (%s)", e.ID, e.Q.SQL())
		}
	}
	st := p.Stats()
	if st.TopKCalls != 1 || st.TruncatedCalls != 1 || st.IndexHits != 1 || st.IndexFallbacks != 0 {
		t.Errorf("unexpected index stats: %+v", st)
	}
	// The signature-class index prunes the decoy class (its similarity upper
	// bound loses to the three kept candidates), so indexed selection visits
	// exactly the 3 near-misses where the linear scan scored all 23.
	if st.ScannedIndexed != 3 || st.ScannedFallback != 0 || st.ScannedCandidates != 3 {
		t.Errorf("unexpected scan split: %+v", st)
	}
	// The linear reference pool scores every candidate and reports it on the
	// fallback counter.
	lin := New(WithIndexedSelection(false))
	for _, e := range p.Entries() {
		lin.Add(e.Q, e.Card)
	}
	lin.TopK(probe, 3)
	if st := lin.Stats(); st.ScannedFallback != 23 || st.ScannedIndexed != 0 ||
		st.ScannedCandidates != 23 || st.IndexHits != 0 || st.IndexFallbacks != 0 {
		t.Errorf("unexpected linear-pool scan split: %+v", st)
	}
}

func TestTopKSkipsEmptyResults(t *testing.T) {
	p := New()
	p.Add(sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1990"), 0)
	p.Add(sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1991"), 5)
	p.Add(sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1992"), 5)
	probe := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1989")
	got := p.TopK(probe, 2)
	for _, e := range got {
		if e.Card == 0 {
			t.Errorf("TopK returned an empty-result entry under truncation")
		}
	}
}

func TestTopKDeterministicOrder(t *testing.T) {
	p := New()
	for i := 0; i < 8; i++ {
		// All candidates identical up to the predicate value: scores tie in
		// bunches, the ID tie-break must make the order reproducible.
		p.Add(sqlparse.MustParse(s, fmt.Sprintf(
			"SELECT * FROM title WHERE title.kind_id = %d", i%2)), 10)
	}
	probe := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 0")
	first := p.TopK(probe, 3)
	for trial := 0; trial < 5; trial++ {
		again := p.TopK(probe, 3)
		for i := range first {
			if again[i].ID != first[i].ID {
				t.Fatalf("TopK order not deterministic: trial %d slot %d", trial, i)
			}
		}
	}
}

func TestWithCapEvictsLRU(t *testing.T) {
	p := New(WithCap(4))
	if p.Cap() != 4 {
		t.Fatalf("Cap = %d", p.Cap())
	}
	queries := make([]string, 5)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1900+i)
	}
	for i := 0; i < 4; i++ {
		p.Add(sqlparse.MustParse(s, queries[i]), int64(i+1))
	}
	// Touch entries 1..3 via TopK so entry 0 becomes the LRU victim.
	probe := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1990")
	p.TopK(probe, 3) // similarity ties broken by ID: selects IDs 0,1,2... touch all but one
	// Deterministically stamp everything, then stamp a strict subset last.
	p.Matching(probe)
	p.TopK(probe, 3)

	vBefore := p.Version()
	if !p.Add(sqlparse.MustParse(s, queries[4]), 99) {
		t.Fatal("insert into full pool should succeed")
	}
	if p.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", p.Len())
	}
	if v := p.Version(); v < vBefore+2 {
		t.Errorf("eviction+insert should bump Version at least twice: %d -> %d", vBefore, v)
	}
	st := p.Stats()
	if st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
	// The victim is the one entry the last TopK(3) did not touch — and it
	// must no longer be Contains-able.
	evicted := 0
	for _, sql := range queries {
		if !p.Contains(sqlparse.MustParse(s, sql)) {
			evicted++
		}
	}
	if evicted != 1 {
		t.Errorf("exactly one original query should be gone, found %d missing", evicted)
	}
}

func TestWithCapUnboundedByDefault(t *testing.T) {
	p := New()
	for i := 0; i < 100; i++ {
		p.Add(sqlparse.MustParse(s, fmt.Sprintf(
			"SELECT * FROM title WHERE title.production_year > %d", i)), 1)
	}
	if p.Len() != 100 || p.Stats().Evictions != 0 {
		t.Errorf("unbounded pool should never evict: %+v", p.Stats())
	}
}

func TestEvictionPreservesSignatureAlignment(t *testing.T) {
	p := New(WithCap(3))
	p.Add(sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 1"), 10)
	p.Add(sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1990"), 20)
	p.Add(sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1991"), 30)
	// Evict (the oldest) and insert a new production_year query.
	p.Add(sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1992"), 40)

	// After the splice, TopK must still rank by the signature that belongs
	// to each surviving entry.
	probe := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1989")
	got := p.TopK(probe, 2)
	if len(got) != 2 {
		t.Fatalf("TopK returned %d entries", len(got))
	}
	for _, e := range got {
		if len(e.Q.Preds) == 0 || e.Q.Preds[0].Col.Column != "production_year" {
			t.Errorf("misaligned selection after eviction: got %s", e.Q.SQL())
		}
	}
}

// TestTopKHeapSelectsTrueTopK pins the selection heap directly: for every k
// over a score sequence chosen so mid-ranked candidates arrive after the
// heap is full, the kept set must be exactly the k best by (score, ID).
// One heap serves every k, as a pooled selector's does.
func TestTopKHeapSelectsTrueTopK(t *testing.T) {
	scores := []float64{10, 5, 7, 1, 9, 3, 8, 2, 6, 4}
	var h topKHeap
	for k := len(scores); k >= 1; k-- {
		h.reset(k)
		for i, s := range scores {
			h.offer(scoredRef{score: s, idx: i, id: int64(i)})
		}
		got := h.sorted()
		if len(got) != k {
			t.Fatalf("k=%d: kept %d", k, len(got))
		}
		for i, r := range got {
			want := float64(10 - i) // scores are a permutation of 1..10
			if r.score != want {
				t.Errorf("k=%d slot %d: score %v, want %v (heap dropped a better candidate)",
					k, i, r.score, want)
			}
		}
	}
}
