package pool

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"crn/internal/query"
	"crn/internal/sqlparse"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	p := New()
	q1 := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 1")
	q2 := sqlparse.MustParse(s, "SELECT * FROM cast_info, title WHERE cast_info.movie_id = title.id")
	p.Add(q1, 111)
	p.Add(q2, 222)

	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(s, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("loaded %d entries", loaded.Len())
	}
	if !loaded.Contains(q1) || !loaded.Contains(q2) {
		t.Error("loaded pool missing queries")
	}
	m := loaded.Matching(q1)
	if len(m) != 1 || m[0].Card != 111 {
		t.Errorf("matching = %+v", m)
	}
}

func TestLoadCorrupt(t *testing.T) {
	if _, err := Load(s, bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("corrupt payload should fail")
	}
}

// TestSaveLoadRestartSelectsIdentically pins the restart invariant: a
// bounded pool restored from Save's bytes picks the same top-K candidates
// and evicts the same victims as the pool that was saved. Top-K selection
// and eviction break ties on entry ID, and templated pools tie at the cut
// all the time, so the restore must keep the saved pool's relative ID order
// as well as its recency order.
func TestSaveLoadRestartSelectsIdentically(t *testing.T) {
	const size, k = 2000, 32
	r := rand.New(rand.NewSource(7))
	shapes := indexShapes(r)
	saved := New(WithCap(size))
	for saved.Len() < size {
		saved.Add(sqlparse.MustParse(s, templatedSQL(r, shapes)), int64(1+r.Intn(40)))
	}
	// Bounded selections stamp recency, many entries with one shared tick.
	for i := 0; i < 200; i++ {
		saved.TopK(sqlparse.MustParse(s, templatedSQL(r, shapes)), k)
	}
	var buf bytes.Buffer
	if err := saved.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(s, &buf, WithCap(size))
	if err != nil {
		t.Fatal(err)
	}

	keys := func(es []Entry) []string {
		out := make([]string, len(es))
		for i, e := range es {
			out[i] = e.Q.Key()
		}
		return out
	}
	differ := 0
	for i := 0; i < 500; i++ {
		probe := sqlparse.MustParse(s, templatedSQL(r, shapes))
		if !slices.Equal(keys(saved.TopK(probe, k)), keys(restored.TopK(probe, k))) {
			differ++
		}
	}
	if differ > 0 {
		t.Errorf("%d of 500 top-%d selections differ after Save/Load", differ, k)
	}

	// Saturated inserts: both pools evict the same victims in the same order.
	var savedRec, restoredRec recordingListener
	saved.Subscribe(&savedRec)
	restored.Subscribe(&restoredRec)
	for i := 0; i < 300; i++ {
		q := sqlparse.MustParse(s, templatedSQL(r, shapes))
		saved.Add(q, 5)
		restored.Add(q, 5)
	}
	if len(savedRec.evicted) == 0 || !slices.Equal(savedRec.evicted, restoredRec.evicted) {
		t.Errorf("eviction victims differ after Save/Load:\nsaved    %v\nrestored %v", savedRec.evicted, restoredRec.evicted)
	}
}

// TestLoadOverCapKeepsMostRecent: a snapshot larger than the restored
// pool's cap keeps its most recently matched entries, whatever their
// insertion order.
func TestLoadOverCapKeepsMostRecent(t *testing.T) {
	p := New(WithCap(4))
	var qs []query.Query
	for _, sql := range []string{
		"SELECT * FROM title WHERE title.kind_id = 1",
		"SELECT * FROM cast_info WHERE cast_info.role_id = 2",
		"SELECT * FROM movie_keyword WHERE movie_keyword.keyword_id = 3",
		"SELECT * FROM movie_companies WHERE movie_companies.company_id = 4",
	} {
		q := sqlparse.MustParse(s, sql)
		qs = append(qs, q)
		p.Add(q, 10)
	}
	// The two oldest insertions become the two most recently matched.
	p.Matching(qs[1])
	p.Matching(qs[0])
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(s, &buf, WithCap(2))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 || !loaded.Contains(qs[0]) || !loaded.Contains(qs[1]) {
		t.Errorf("restored over-cap pool kept %d entries (first two matched last: %v, %v), want exactly those two",
			loaded.Len(), loaded.Contains(qs[0]), loaded.Contains(qs[1]))
	}
}
