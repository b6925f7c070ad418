package pool

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"crn/internal/query"
	"crn/internal/sqlparse"
)

// benchQueries parses n distinct single-table queries (one FROM clause, so
// they all land in one candidate index — the record-heavy serving shape).
func benchQueries(b *testing.B, n int) []query.Query {
	b.Helper()
	qs := make([]query.Query, n)
	for i := range qs {
		qs[i] = sqlparse.MustParse(s,
			fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", i))
	}
	return qs
}

// BenchmarkAddSaturated measures Add on a capacity-bounded pool that is
// already full, so every insert evicts the LRU victim first — the
// record-heavy steady state of a bounded serving pool. Before PR 5 the
// victim search scanned every entry (O(pool) per Add); the lazy min-heap
// makes it O(log pool) amortized.
func BenchmarkAddSaturated(b *testing.B) {
	for _, size := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			qs := benchQueries(b, size+b.N)
			p := New(WithCap(size))
			for i := 0; i < size; i++ {
				p.Add(qs[i], int64(i+1))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Add(qs[size+i], 1)
			}
		})
	}
}

// BenchmarkAddSaturatedWithSelection interleaves candidate selection with
// saturated inserts: TopK stamps the entries it returns (going through the
// whole match set at k=0), which is exactly the traffic that invalidates
// heap records and forces the lazy fix-ups the amortized bound relies on.
func BenchmarkAddSaturatedWithSelection(b *testing.B) {
	const size = 10000
	qs := benchQueries(b, size+b.N)
	p := New(WithCap(size))
	for i := 0; i < size; i++ {
		p.Add(qs[i], int64(i+1))
	}
	probe := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1960")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%8 == 0 {
			p.TopK(probe, 64)
		}
		p.Add(qs[size+i], 1)
	}
}

// servedShapeSQL draws a query over title joined to tables, with one to
// three title predicates of a random
// column, operator and constant: a clause of these holds nearly one
// signature class per entry, as most clauses of a served pool do.
func servedShapeSQL(r *rand.Rand, tables []string) string {
	cols := []struct {
		name   string
		lo, hi int
	}{{"kind_id", 1, 8}, {"production_year", 1880, 2020}, {"season_nr", 1, 16}, {"episode_nr", 1, 51}}
	ops := []string{"<", "=", ">"}
	var preds []string
	for _, t := range tables {
		preds = append(preds, "title.id = "+t+".movie_id")
	}
	for n := 1 + r.Intn(3); n > 0; n-- {
		c := cols[r.Intn(len(cols))]
		preds = append(preds, fmt.Sprintf("title.%s %s %d", c.name, ops[r.Intn(len(ops))], c.lo+r.Intn(c.hi-c.lo)))
	}
	return "SELECT * FROM " + strings.Join(append([]string{"title"}, tables...), ", ") + " WHERE " + strings.Join(preds, " AND ")
}

// BenchmarkTopKServedShape measures bounded top-32 selection on a pool
// shaped like a served one: 32 FROM clauses (title joined to each subset of
// the other five tables) of 150 mixed-shape entries each, and a probe that
// has not been seen before in every iteration, cycling over the clauses.
// Such clauses fail the density guard, so selection is the linear scan over
// the signature rows; ns/candidate is the time per candidate scored.
func BenchmarkTopKServedShape(b *testing.B) {
	const perClause, k, nProbes = 150, 32, 1 << 12
	r := rand.New(rand.NewSource(1))
	others := []string{"cast_info", "movie_companies", "movie_info", "movie_info_idx", "movie_keyword"}
	var clauses [][]string
	for set := 0; set < 1<<len(others); set++ {
		var tables []string
		for i, t := range others {
			if set&(1<<i) != 0 {
				tables = append(tables, t)
			}
		}
		clauses = append(clauses, tables)
	}
	p := New()
	for _, tables := range clauses {
		for n := 0; n < perClause; {
			if p.Add(sqlparse.MustParse(s, servedShapeSQL(r, tables)), int64(1+r.Intn(1000))) {
				n++
			}
		}
	}
	probes := make([]query.Query, nProbes)
	for i := range probes {
		probes[i] = sqlparse.MustParse(s, servedShapeSQL(r, clauses[i%len(clauses)]))
	}
	dst := make([]Entry, 0, k)
	before := p.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = p.AppendTopK(dst[:0], probes[i%nProbes], k)
	}
	b.StopTimer()
	st := p.Stats()
	if scanned := st.ScannedCandidates - before.ScannedCandidates; scanned > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(scanned), "ns/candidate")
	}
	if calls := st.TopKCalls - before.TopKCalls; calls > 0 {
		b.ReportMetric(float64(st.IndexFallbacks-before.IndexFallbacks)/float64(calls), "fallback-share")
	}
}
