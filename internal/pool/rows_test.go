package pool

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"crn/internal/query"
	"crn/internal/sqlparse"
)

// checkRows asserts the signature rows of every FROM clause of p: one row
// per entry, position for position, each equal to its entry's own
// signature, Card and ID, its ranges inside the arena, and the arena's dead
// ranges at most its live ones.
func checkRows(t testing.TB, p *Pool) {
	t.Helper()
	p.mu.RLock()
	defer p.mu.RUnlock()
	for from, idx := range p.byFrom {
		if len(idx.rows) != len(idx.entries) {
			t.Fatalf("%s: %d rows for %d entries", from, len(idx.rows), len(idx.entries))
		}
		live := 0
		for i := range idx.rows {
			r, e := &idx.rows[i], &idx.entries[i]
			if int(r.hi) > len(idx.ranges) || r.lo > r.hi {
				t.Fatalf("%s row %d: ranges [%d, %d) outside an arena of %d", from, i, r.lo, r.hi, len(idx.ranges))
			}
			got, want := r.signature(idx.ranges), e.Q.Signature()
			if got.Cols != want.Cols || got.Joins != want.Joins || got.Ops != want.Ops || !slices.Equal(got.Ranges, want.Ranges) {
				t.Fatalf("%s row %d: signature %+v, entry %d has %+v", from, i, got, e.ID, want)
			}
			if r.card != e.Card || r.id != e.ID {
				t.Fatalf("%s row %d: (card %d, id %d), entry (card %d, id %d)", from, i, r.card, r.id, e.Card, e.ID)
			}
			live += int(r.hi - r.lo)
		}
		if live+idx.deadRanges != len(idx.ranges) {
			t.Fatalf("%s: %d live + %d dead ranges in an arena of %d", from, live, idx.deadRanges, len(idx.ranges))
		}
		if idx.deadRanges > live {
			t.Fatalf("%s: %d dead ranges outnumber %d live ones", from, idx.deadRanges, live)
		}
	}
}

// TestSignatureRowsTrackMutations drives a capped pool through inserts that
// evict, cardinality updates (to and from zero) and a snapshot restore, and
// checks the rows after every step: the arena must compact along the way,
// and selection from the rows must stay what the linear scan over a pool
// built from the same operations returns.
func TestSignatureRowsTrackMutations(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	shapes := indexShapes(r)
	p := New(WithCap(40))
	lin := New(WithCap(40), WithIndexedSelection(false))
	var added []query.Query
	compactions := 0
	for step := 0; step < 1500; step++ {
		switch r.Intn(4) {
		case 0, 1:
			q := sqlparse.MustParse(s, templatedSQL(r, shapes))
			card := int64(r.Intn(30))
			dead := arenaDead(p, q)
			if p.Add(q, card) != lin.Add(q, card) {
				t.Fatalf("step %d: add diverged", step)
			}
			if dead > 0 && arenaDead(p, q) == 0 {
				compactions++
			}
			added = append(added, q)
		case 2:
			if len(added) > 0 {
				q := added[r.Intn(len(added))]
				card := int64(r.Intn(30))
				if p.UpdateCard(q, card) != lin.UpdateCard(q, card) {
					t.Fatalf("step %d: update diverged", step)
				}
			}
		default:
			probe := sqlparse.MustParse(s, randIndexSQL(r))
			k := 1 + r.Intn(10)
			mustTopKEqual(t, fmt.Sprintf("step %d k=%d", step, k), p.TopK(probe, k), lin.TopK(probe, k))
		}
		checkRows(t, p)
		checkRows(t, lin)
	}
	if compactions == 0 {
		t.Fatal("no eviction compacted an arena: the test lost its point")
	}
	// A restore rebuilds every clause through insertLocked.
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(s, &buf, WithCap(40))
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, restored)
}

// arenaDead is the dead range count of q's FROM clause (0 without one).
func arenaDead(p *Pool, q query.Query) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if idx := p.byFrom[q.FROMKey()]; idx != nil {
		return idx.deadRanges
	}
	return 0
}

// titleShapes are single-table query shapes with the mix of one- and
// two-column, half- and fully-bounded predicates a served pool's clause
// holds; filled from fillShape's tight constant range, they recur as
// signature classes with differing values.
var titleShapes = []string{
	"SELECT * FROM title WHERE title.production_year > %d",
	"SELECT * FROM title WHERE title.production_year < %d AND title.kind_id = %d",
	"SELECT * FROM title WHERE title.kind_id > %d AND title.season_nr < %d",
	"SELECT * FROM title WHERE title.production_year > %d AND title.production_year < %d",
	"SELECT * FROM title WHERE title.episode_nr = %d AND title.production_year > %d AND title.kind_id < %d",
	"SELECT * FROM title WHERE title.season_nr > %d AND title.episode_nr < %d",
}

// TestBoundedSelectionAllocs pins a bounded selection on a warm pool to the
// entries it appends to dst: with room in dst it allocates nothing, on the
// linear scan and on the class walk alike.
func TestBoundedSelectionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned on the plain build only")
	}
	const k = 32
	r := rand.New(rand.NewSource(5))
	for _, indexed := range []bool{false, true} {
		p := New(WithCap(500), WithIndexedSelection(indexed))
		for p.Len() < 400 {
			p.Add(sqlparse.MustParse(s, templatedSQL(r, titleShapes)), int64(1+r.Intn(50)))
		}
		probes := make([]query.Query, 32)
		for i := range probes {
			probes[i] = sqlparse.MustParse(s, templatedSQL(r, titleShapes))
		}
		dst := make([]Entry, 0, k)
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			dst = p.AppendTopK(dst[:0], probes[i%len(probes)], k)
			i++
		})
		if len(dst) != k {
			t.Fatalf("indexed=%v: selected %d, want %d", indexed, len(dst), k)
		}
		if st := p.Stats(); (st.IndexHits > 0) != indexed || st.IndexFallbacks > 0 {
			t.Fatalf("indexed=%v: the selections took the other path: %+v", indexed, st)
		}
		if allocs != 0 {
			t.Errorf("indexed=%v: a bounded selection allocates %v times, want 0", indexed, allocs)
		}
	}
}
