package query

import (
	"reflect"
	"strings"
	"testing"

	"crn/internal/schema"
)

var s = schema.IMDB()

func ref(t, c string) schema.ColumnRef { return schema.ColumnRef{Table: t, Column: c} }

func mustQuery(t *testing.T, tables []string, joins []Join, preds []Predicate) Query {
	t.Helper()
	q, err := New(s, tables, joins, preds)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return q
}

func titleCast(t *testing.T, preds ...Predicate) Query {
	return mustQuery(t,
		[]string{schema.Title, schema.CastInfo},
		[]Join{{Left: ref("title", "id"), Right: ref("cast_info", "movie_id")}},
		preds,
	)
}

func TestNewCanonicalizes(t *testing.T) {
	q := mustQuery(t,
		[]string{schema.CastInfo, schema.Title},
		[]Join{{Left: ref("cast_info", "movie_id"), Right: ref("title", "id")}},
		[]Predicate{
			{Col: ref("title", "production_year"), Op: schema.OpGT, Val: 2000},
			{Col: ref("cast_info", "role_id"), Op: schema.OpEQ, Val: 2},
		},
	)
	if q.FROMKey() != "cast_info,title" {
		t.Errorf("FROMKey = %q", q.FROMKey())
	}
	// Joins canonicalized to lexicographic side order.
	if q.Joins[0].Left.Table != "cast_info" {
		t.Errorf("join not canonicalized: %v", q.Joins[0])
	}
	// Predicates sorted by column.
	if q.Preds[0].Col.Table != "cast_info" {
		t.Errorf("predicates not sorted: %v", q.Preds)
	}
	if q.NumJoins() != 1 {
		t.Errorf("NumJoins = %d", q.NumJoins())
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name   string
		tables []string
		joins  []Join
		preds  []Predicate
	}{
		{"unknown table", []string{"nope"}, nil, nil},
		{"duplicate table", []string{"title", "title"}, nil, nil},
		{"non-edge join", []string{"title", "cast_info"},
			[]Join{{Left: ref("title", "kind_id"), Right: ref("cast_info", "role_id")}}, nil},
		{"join outside FROM", []string{"title", "cast_info"},
			[]Join{{Left: ref("title", "id"), Right: ref("movie_keyword", "movie_id")}}, nil},
		{"duplicate join", []string{"title", "cast_info"},
			[]Join{
				{Left: ref("title", "id"), Right: ref("cast_info", "movie_id")},
				{Left: ref("cast_info", "movie_id"), Right: ref("title", "id")},
			}, nil},
		{"unknown predicate column", []string{"title"}, nil,
			[]Predicate{{Col: ref("title", "zzz"), Op: schema.OpEQ, Val: 1}}},
		{"predicate outside FROM", []string{"title"}, nil,
			[]Predicate{{Col: ref("cast_info", "role_id"), Op: schema.OpEQ, Val: 1}}},
		{"bad operator", []string{"title"}, nil,
			[]Predicate{{Col: ref("title", "kind_id"), Op: "!=", Val: 1}}},
	}
	for _, c := range cases {
		if _, err := New(s, c.tables, c.joins, c.preds); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestNewDeduplicatesPredicates(t *testing.T) {
	p := Predicate{Col: ref("title", "kind_id"), Op: schema.OpEQ, Val: 2}
	q := mustQuery(t, []string{schema.Title}, nil, []Predicate{p, p, p})
	if len(q.Preds) != 1 {
		t.Errorf("duplicate predicates not collapsed: %v", q.Preds)
	}
	// Distinct predicates survive.
	p2 := Predicate{Col: ref("title", "kind_id"), Op: schema.OpEQ, Val: 3}
	q = mustQuery(t, []string{schema.Title}, nil, []Predicate{p, p2, p})
	if len(q.Preds) != 2 {
		t.Errorf("distinct predicates lost: %v", q.Preds)
	}
}

func TestSQLRendering(t *testing.T) {
	q := titleCast(t, Predicate{Col: ref("title", "production_year"), Op: schema.OpGT, Val: 1990})
	sql := q.SQL()
	for _, want := range []string{"SELECT * FROM", "cast_info, title", "cast_info.movie_id = title.id", "title.production_year > 1990"} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL %q missing %q", sql, want)
		}
	}
	empty := mustQuery(t, []string{schema.Title}, nil, nil)
	if !strings.HasSuffix(empty.SQL(), "WHERE TRUE") {
		t.Errorf("empty WHERE should render TRUE: %q", empty.SQL())
	}
}

func TestPredicateMatches(t *testing.T) {
	p := Predicate{Col: ref("title", "kind_id"), Op: schema.OpLT, Val: 5}
	if !p.Matches(4) || p.Matches(5) {
		t.Error("OpLT semantics broken")
	}
	p.Op = schema.OpEQ
	if !p.Matches(5) || p.Matches(4) {
		t.Error("OpEQ semantics broken")
	}
	p.Op = schema.OpGT
	if !p.Matches(6) || p.Matches(5) {
		t.Error("OpGT semantics broken")
	}
	p.Op = "bogus"
	if p.Matches(5) {
		t.Error("unknown op should match nothing")
	}
}

func TestIntersect(t *testing.T) {
	q1 := titleCast(t, Predicate{Col: ref("title", "production_year"), Op: schema.OpGT, Val: 1990})
	q2 := titleCast(t,
		Predicate{Col: ref("title", "production_year"), Op: schema.OpGT, Val: 1990},
		Predicate{Col: ref("cast_info", "role_id"), Op: schema.OpEQ, Val: 1},
	)
	qi, err := q1.Intersect(q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(qi.Preds) != 2 {
		t.Errorf("intersection should dedup shared predicate: %v", qi.Preds)
	}
	if len(qi.Joins) != 1 {
		t.Errorf("intersection should dedup joins: %v", qi.Joins)
	}
	if qi.FROMKey() != q1.FROMKey() {
		t.Errorf("intersection FROM changed: %q", qi.FROMKey())
	}
	// Intersection is symmetric.
	qj, err := q2.Intersect(q1)
	if err != nil {
		t.Fatal(err)
	}
	if !qi.Equal(qj) {
		t.Errorf("intersection not symmetric: %q vs %q", qi.Key(), qj.Key())
	}
	// Self-intersection is identity.
	qs, err := q1.Intersect(q1)
	if err != nil {
		t.Fatal(err)
	}
	if !qs.Equal(q1) {
		t.Errorf("self-intersection changed query: %q", qs.Key())
	}
}

func TestIntersectRequiresSameFROM(t *testing.T) {
	q1 := mustQuery(t, []string{schema.Title}, nil, nil)
	q2 := mustQuery(t, []string{schema.CastInfo}, nil, nil)
	if _, err := q1.Intersect(q2); err == nil {
		t.Error("expected error for different FROM clauses")
	}
	if q1.Comparable(q2) {
		t.Error("queries with different FROM should not be comparable")
	}
}

func TestPredsOn(t *testing.T) {
	q := titleCast(t,
		Predicate{Col: ref("title", "production_year"), Op: schema.OpGT, Val: 1990},
		Predicate{Col: ref("cast_info", "role_id"), Op: schema.OpEQ, Val: 1},
		Predicate{Col: ref("title", "kind_id"), Op: schema.OpEQ, Val: 3},
	)
	if got := len(q.PredsOn("title")); got != 2 {
		t.Errorf("PredsOn(title) = %d, want 2", got)
	}
	if got := len(q.PredsOn("movie_keyword")); got != 0 {
		t.Errorf("PredsOn(movie_keyword) = %d, want 0", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	q := titleCast(t, Predicate{Col: ref("title", "kind_id"), Op: schema.OpEQ, Val: 3})
	c := q.Clone()
	c.Preds[0].Val = 99
	c.Tables[0] = "zzz"
	if q.Preds[0].Val != 3 || q.Tables[0] == "zzz" {
		t.Error("Clone is not deep")
	}
}

func TestWithPredicateKeepsOrder(t *testing.T) {
	q := mustQuery(t, []string{schema.Title}, nil, nil)
	q2 := q.WithPredicate(Predicate{Col: ref("title", "production_year"), Op: schema.OpGT, Val: 2000})
	q3 := q2.WithPredicate(Predicate{Col: ref("title", "kind_id"), Op: schema.OpEQ, Val: 1})
	if len(q.Preds) != 0 || len(q2.Preds) != 1 || len(q3.Preds) != 2 {
		t.Fatal("WithPredicate should be non-destructive")
	}
	if q3.Preds[0].Col.Column != "kind_id" {
		t.Errorf("predicates not re-sorted: %v", q3.Preds)
	}
}

func TestKeyStableUnderConstructionOrder(t *testing.T) {
	a := mustQuery(t,
		[]string{schema.Title, schema.CastInfo, schema.MovieKeyword},
		[]Join{
			{Left: ref("title", "id"), Right: ref("movie_keyword", "movie_id")},
			{Left: ref("cast_info", "movie_id"), Right: ref("title", "id")},
		},
		[]Predicate{
			{Col: ref("movie_keyword", "keyword_id"), Op: schema.OpEQ, Val: 7},
			{Col: ref("cast_info", "nr_order"), Op: schema.OpLT, Val: 4},
		},
	)
	b := mustQuery(t,
		[]string{schema.MovieKeyword, schema.CastInfo, schema.Title},
		[]Join{
			{Left: ref("title", "id"), Right: ref("cast_info", "movie_id")},
			{Left: ref("movie_keyword", "movie_id"), Right: ref("title", "id")},
		},
		[]Predicate{
			{Col: ref("cast_info", "nr_order"), Op: schema.OpLT, Val: 4},
			{Col: ref("movie_keyword", "keyword_id"), Op: schema.OpEQ, Val: 7},
		},
	)
	if a.Key() != b.Key() {
		t.Errorf("keys differ:\n%s\n%s", a.Key(), b.Key())
	}
	if !a.Equal(b) {
		t.Error("Equal should hold for canonically identical queries")
	}
}

// TestDerivedQueriesKeepKeysAndSignature: every way of obtaining a query —
// New, Intersect, WithPredicate, Clone, a struct literal — yields the same
// SQL, FROM key and signature for the same clauses, whether the values were
// precomputed (from the schema's ranks and hashes, or from the strings) or
// are rendered on demand.
func TestDerivedQueriesKeepKeysAndSignature(t *testing.T) {
	p1 := Predicate{Col: ref("title", "kind_id"), Op: schema.OpEQ, Val: 3}
	p2 := Predicate{Col: ref("cast_info", "nr_order"), Op: schema.OpLT, Val: 4}
	want := titleCast(t, p1, p2)
	literal := Query{Tables: want.Tables, Joins: want.Joins, Preds: want.Preds}
	inter, err := titleCast(t, p1).Intersect(titleCast(t, p2))
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]Query{
		"literal":       literal,
		"Intersect":     inter,
		"WithPredicate": titleCast(t, p2).WithPredicate(p1),
		"Clone":         want.Clone(),
	} {
		if got.SQL() != want.SQL() || got.FROMKey() != want.FROMKey() {
			t.Errorf("%s: %q / %q, want %q / %q", name, got.SQL(), got.FROMKey(), want.SQL(), want.FROMKey())
		}
		if !reflect.DeepEqual(got.Signature(), want.Signature()) {
			t.Errorf("%s: signature %+v, want %+v", name, got.Signature(), want.Signature())
		}
	}
	if want.FROMKey() != "cast_info,title" {
		t.Errorf("FROMKey = %q", want.FROMKey())
	}
}
