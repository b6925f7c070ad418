package pool

import (
	"bytes"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"crn/internal/query"
	"crn/internal/sqlparse"
)

// clauseStamp reads the stamp of a FROM clause (0: no entry has it).
func clauseStamp(p *Pool, from string) uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if idx := p.byFrom[from]; idx != nil {
		return idx.stamp
	}
	return 0
}

// TestClauseStampMovesOnEveryMutation: a FROM clause's stamp strictly
// increases on every insert, eviction and changing cardinality update on
// that clause, on a clause emptied and re-created, and on a snapshot
// restore, and stays put on a no-op update, on mutations of another clause
// and on selections; ReplaySelection accepts exactly the current stamp.
func TestClauseStampMovesOnEveryMutation(t *testing.T) {
	mustParse := func(sql string) query.Query { return sqlparse.MustParse(s, sql) }
	a := mustParse("SELECT * FROM title WHERE title.kind_id = 1")
	b := mustParse("SELECT * FROM title WHERE title.kind_id = 2")
	c := mustParse("SELECT * FROM cast_info WHERE cast_info.role_id = 1")
	d := mustParse("SELECT * FROM cast_info WHERE cast_info.role_id = 2")
	probe := mustParse("SELECT * FROM title WHERE title.kind_id < 3")

	p := New(WithCap(3))
	last := uint64(0)
	moved := func(what string) {
		t.Helper()
		if got := clauseStamp(p, "title"); got <= last {
			t.Fatalf("%s: title stamp %d, want above %d", what, got, last)
		} else {
			last = got
		}
	}
	kept := func(what string) {
		t.Helper()
		if got := clauseStamp(p, "title"); got != last {
			t.Fatalf("%s: title stamp moved %d -> %d", what, last, got)
		}
	}

	p.Add(a, 10)
	moved("insert")
	p.Add(b, 20)
	moved("second insert")
	p.Add(c, 30)
	kept("insert on another clause")
	if p.UpdateCard(a, 10) {
		t.Fatal("a no-op UpdateCard reported a change")
	}
	kept("no-op UpdateCard")
	p.UpdateCard(a, 11)
	moved("changing UpdateCard")
	p.UpdateCard(c, 31)
	kept("UpdateCard on another clause")

	p.Matching(probe)
	p.TopK(probe, 1)
	p.TopK(probe, 5)
	sel, stamp := p.AppendSelection(nil, probe, 1)
	kept("selections")
	if stamp != last || len(sel) != 1 {
		t.Fatalf("AppendSelection returned stamp %d and %d entries, want %d and 1", stamp, len(sel), last)
	}
	if !p.ReplaySelection(probe, 1, stamp, []int64{sel[0].ID}) {
		t.Fatal("ReplaySelection rejected the current stamp")
	}
	kept("replay")

	// Touch the other clause so a title entry is the eviction victim; the
	// insert itself lands on cast_info.
	p.Matching(c)
	p.Add(d, 40)
	if p.Len() != 3 || p.Stats().Evictions != 1 || len(p.Matching(probe)) != 1 {
		t.Fatalf("fixture: the insert did not evict a title entry: %+v", p.Stats())
	}
	moved("eviction")
	if p.ReplaySelection(probe, 1, stamp, []int64{sel[0].ID}) {
		t.Fatal("ReplaySelection accepted a stamp from before the eviction")
	}

	var snap bytes.Buffer
	src := New()
	src.Add(a, 99) // a correction if a is still pooled, an insert if not
	src.Add(b, 98)
	if err := src.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if n, err := LoadInto(p, s, &snap); err != nil || n == 0 {
		t.Fatalf("LoadInto applied %d entries: %v", n, err)
	}
	moved("LoadInto")

	// Empty the clause, then bring it back.
	q := New(WithCap(1))
	q.Add(a, 10)
	gone := clauseStamp(q, "title")
	q.Add(c, 30) // evicts a: the title clause is empty
	if got := clauseStamp(q, "title"); got != 0 {
		t.Fatalf("emptied clause still stamped %d", got)
	}
	if q.ReplaySelection(probe, 0, gone, nil) {
		t.Fatal("ReplaySelection accepted an emptied clause")
	}
	q.Add(a, 10)
	if got := clauseStamp(q, "title"); got <= gone {
		t.Fatalf("re-created clause stamped %d, want above %d", got, gone)
	}
	if q.ReplaySelection(probe, 0, gone, nil) {
		t.Fatal("ReplaySelection accepted the emptied clause's stamp on its successor")
	}
}

// recency lists every entry's last-match tick by ID, and the clock.
func recency(p *Pool) []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := []string{fmt.Sprintf("clock %d", p.tick.Load())}
	for _, idx := range p.byFrom {
		for i, e := range idx.entries {
			out = append(out, fmt.Sprintf("%d@%d", e.ID, atomic.LoadInt64(&idx.lastHit[i])))
		}
	}
	slices.Sort(out)
	return out
}

// TestReplaySelectionStampsLikeSelection: on twin bounded pools, one
// selecting every time and one replaying its first selection, every entry
// carries the same recency tick after each call — bounded selections, the
// full-clause path and the unbounded k alike — while the replaying pool's
// selection counters stay at its one selection per probe.
func TestReplaySelectionStampsLikeSelection(t *testing.T) {
	var twins [2]*Pool
	for i := range twins {
		twins[i] = New(WithCap(20))
		for j := 0; j < 8; j++ {
			twins[i].Add(sqlparse.MustParse(s, fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1900+10*j)), int64(j%3))
		}
		twins[i].Add(sqlparse.MustParse(s, "SELECT * FROM cast_info WHERE cast_info.role_id = 1"), 5)
	}
	probes := []struct {
		sql string
		k   int
	}{
		{"SELECT * FROM title WHERE title.production_year > 1955", 3},
		{"SELECT * FROM title WHERE title.production_year > 1925", 0},
		{"SELECT * FROM title WHERE title.production_year > 1935", 8},
		{"SELECT * FROM cast_info WHERE cast_info.role_id = 2", 3},
	}
	type memo struct {
		stamp uint64
		ids   []int64
	}
	memos := make([]memo, len(probes))
	for i, pr := range probes {
		q := sqlparse.MustParse(s, pr.sql)
		twins[0].AppendSelection(nil, q, pr.k)
		sel, stamp := twins[1].AppendSelection(nil, q, pr.k)
		memos[i].stamp = stamp
		for _, e := range sel {
			memos[i].ids = append(memos[i].ids, e.ID)
		}
	}
	before := twins[1].Stats()
	for round := 0; round < 3; round++ {
		for i, pr := range probes {
			q := sqlparse.MustParse(s, pr.sql)
			twins[0].AppendSelection(nil, q, pr.k)
			if !twins[1].ReplaySelection(q, pr.k, memos[i].stamp, memos[i].ids) {
				t.Fatalf("round %d %s: replay rejected an unmutated clause", round, pr.sql)
			}
			if a, b := recency(twins[0]), recency(twins[1]); !slices.Equal(a, b) {
				t.Fatalf("round %d %s: recency differs:\nselected %v\nreplayed %v", round, pr.sql, a, b)
			}
		}
	}
	if after := twins[1].Stats(); after != before || before.TopKCalls == 0 {
		t.Fatalf("replays moved the selection counters: %+v -> %+v", before, after)
	}
}
