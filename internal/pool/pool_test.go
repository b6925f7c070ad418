package pool

import (
	"fmt"
	"sync"
	"testing"

	"crn/internal/schema"
	"crn/internal/sqlparse"
)

var s = schema.IMDB()

func TestAddAndMatching(t *testing.T) {
	p := New()
	q1 := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 1")
	q2 := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 2")
	q3 := sqlparse.MustParse(s, "SELECT * FROM cast_info")
	if !p.Add(q1, 100) || !p.Add(q2, 200) || !p.Add(q3, 300) {
		t.Fatal("inserts should succeed")
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	probe := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 5")
	m := p.Matching(probe)
	if len(m) != 2 {
		t.Fatalf("Matching = %d entries, want 2", len(m))
	}
	for _, e := range m {
		if e.Q.FROMKey() != "title" {
			t.Errorf("wrong FROM: %s", e.Q.FROMKey())
		}
	}
	if len(p.Matching(sqlparse.MustParse(s, "SELECT * FROM movie_info"))) != 0 {
		t.Error("no matches expected for unseen FROM clause")
	}
}

func TestAddDeduplicates(t *testing.T) {
	p := New()
	q1 := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 1")
	if !p.Add(q1, 100) {
		t.Fatal("first insert should succeed")
	}
	if p.Add(q1, 999) {
		t.Error("duplicate insert should be rejected")
	}
	if p.Len() != 1 {
		t.Errorf("Len = %d", p.Len())
	}
	if !p.Contains(q1) {
		t.Error("Contains should find pooled query")
	}
}

func TestAddRejectsNegativeCard(t *testing.T) {
	p := New()
	if p.Add(sqlparse.MustParse(s, "SELECT * FROM title"), -1) {
		t.Error("negative cardinality should be rejected")
	}
}

func TestMatchingReturnsCopy(t *testing.T) {
	p := New()
	q1 := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 1")
	p.Add(q1, 100)
	m := p.Matching(q1)
	m[0].Card = 12345
	m2 := p.Matching(q1)
	if m2[0].Card != 100 {
		t.Error("Matching should return a copy")
	}
}

func TestFROMKeysAndEntries(t *testing.T) {
	p := New()
	p.Add(sqlparse.MustParse(s, "SELECT * FROM title"), 10)
	p.Add(sqlparse.MustParse(s, "SELECT * FROM cast_info"), 20)
	keys := p.FROMKeys()
	if len(keys) != 2 {
		t.Errorf("FROMKeys = %v", keys)
	}
	if len(p.Entries()) != 2 {
		t.Errorf("Entries = %d", len(p.Entries()))
	}
}

func TestSubsetRoundRobin(t *testing.T) {
	p := New()
	// Two FROM clauses, 4 queries each.
	for i := 0; i < 4; i++ {
		p.Add(sqlparse.MustParse(s, fmt.Sprintf("SELECT * FROM title WHERE title.kind_id = %d", i+1)), int64(i))
		p.Add(sqlparse.MustParse(s, fmt.Sprintf("SELECT * FROM cast_info WHERE cast_info.role_id = %d", i+1)), int64(i))
	}
	sub := p.Subset(4)
	if sub.Len() != 4 {
		t.Fatalf("Subset len = %d", sub.Len())
	}
	// Round-robin must cover both FROM clauses.
	if len(sub.FROMKeys()) != 2 {
		t.Errorf("Subset FROM coverage = %v", sub.FROMKeys())
	}
	// Requesting more than available returns everything.
	all := p.Subset(100)
	if all.Len() != p.Len() {
		t.Errorf("oversized Subset len = %d, want %d", all.Len(), p.Len())
	}
	if p.Subset(0).Len() != 0 {
		t.Error("Subset(0) should be empty")
	}
}

func TestFinalFunctions(t *testing.T) {
	results := []float64{1, 2, 3, 4, 1000}
	if got := Median(results); got != 3 {
		t.Errorf("Median = %v", got)
	}
	if got := Mean(results); got != 202 {
		t.Errorf("Mean = %v", got)
	}
	// With 8+ values the 12.5% trim drops one value from each tail, so the
	// giant outlier disappears.
	spread := []float64{1, 2, 3, 4, 5, 6, 7, 1000}
	tm := TrimmedMean(spread)
	if tm >= Mean(spread) {
		t.Errorf("TrimmedMean %v should be below Mean %v", tm, Mean(spread))
	}
	if tm != 4.5 {
		t.Errorf("TrimmedMean = %v, want 4.5", tm)
	}
}

func TestConcurrentAddAndMatch(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sql := fmt.Sprintf("SELECT * FROM title WHERE title.episode_nr = %d", w*50+i)
				p.Add(sqlparse.MustParse(s, sql), int64(i))
				p.Matching(sqlparse.MustParse(s, "SELECT * FROM title"))
			}
		}(w)
	}
	wg.Wait()
	if p.Len() != 200 {
		t.Errorf("Len = %d, want 200", p.Len())
	}
}

func TestUpdateCard(t *testing.T) {
	p := New()
	q := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 1")
	if p.UpdateCard(q, 5) {
		t.Fatal("updating an unpooled query must be a no-op")
	}
	p.Add(q, 100)
	v := p.Version()
	if p.UpdateCard(q, 100) {
		t.Fatal("unchanged cardinality must not count as an update")
	}
	if p.Version() != v {
		t.Fatal("no-op update must not bump Version")
	}
	if !p.UpdateCard(q, 40) {
		t.Fatal("moved cardinality must update")
	}
	if p.Version() <= v {
		t.Fatal("update must bump Version")
	}
	if m := p.Matching(q); len(m) != 1 || m[0].Card != 40 {
		t.Fatalf("matching after update = %+v", m)
	}
	if p.UpdateCard(q, -1) {
		t.Fatal("negative cardinality must be rejected")
	}
}

func TestHotEntriesRecencyOrder(t *testing.T) {
	p := New(WithCap(8))
	qa := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 1")
	qb := sqlparse.MustParse(s, "SELECT * FROM cast_info")
	qc := sqlparse.MustParse(s, "SELECT * FROM movie_keyword")
	p.Add(qa, 1) // tick 1
	p.Add(qb, 2) // tick 2
	p.Add(qc, 3) // tick 3
	// Touch qa last: it becomes the hottest entry.
	p.Matching(sqlparse.MustParse(s, "SELECT * FROM title"))

	hot := p.HotEntries(2)
	if len(hot) != 2 || hot[0].Q.Key() != qa.Key() || hot[1].Q.Key() != qc.Key() {
		keys := make([]string, len(hot))
		for i, e := range hot {
			keys[i] = e.Q.Key()
		}
		t.Fatalf("HotEntries(2) = %v, want [qa qc]", keys)
	}
	if all := p.HotEntries(0); len(all) != 3 {
		t.Fatalf("HotEntries(0) = %d entries, want all 3", len(all))
	}

	// An unbounded match stamps every entry of its FROM clause with one
	// tick: equal ticks order by insertion ID, newest first.
	qa2 := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 2")
	p.Add(qa2, 4)
	p.Matching(sqlparse.MustParse(s, "SELECT * FROM title"))
	hot = p.HotEntries(3)
	if len(hot) != 3 || hot[0].Q.Key() != qa2.Key() || hot[1].Q.Key() != qa.Key() || hot[2].Q.Key() != qc.Key() {
		keys := make([]string, len(hot))
		for i, e := range hot {
			keys[i] = e.Q.Key()
		}
		t.Fatalf("HotEntries(3) after an equal-tick match = %v, want [qa2 qa qc]", keys)
	}
}
