package exec

import (
	"math/rand"
	"testing"

	"crn/internal/datagen"
	"crn/internal/db"
	"crn/internal/query"
	"crn/internal/schema"
)

// bruteForce evaluates q by enumerating all row combinations — the reference
// semantics the executor must reproduce.
func bruteForce(d *db.Database, q query.Query) int64 {
	tables := joinOrder(q)
	preds := make([][]query.Predicate, len(tables))
	for i, t := range tables {
		preds[i] = q.PredsOn(t)
	}
	var count int64
	rowIdx := make([]int, len(tables))
	var recurse func(depth int)
	recurse = func(depth int) {
		if depth == len(tables) {
			count++
			return
		}
		t := d.Table(tables[depth])
	rows:
		for i := 0; i < t.NumRows(); i++ {
			rowIdx[depth] = i
			for _, p := range preds[depth] {
				if !p.Matches(t.Column(p.Col.Column)[i]) {
					continue rows
				}
			}
			for _, j := range q.Joins {
				li, lOK := indexOf(tables, j.Left.Table)
				ri, rOK := indexOf(tables, j.Right.Table)
				if !lOK || !rOK || li > depth || ri > depth {
					continue
				}
				lv := d.Table(j.Left.Table).Column(j.Left.Column)[rowIdx[li]]
				rv := d.Table(j.Right.Table).Column(j.Right.Column)[rowIdx[ri]]
				if lv != rv {
					continue rows
				}
			}
			recurse(depth + 1)
		}
	}
	recurse(0)
	return count
}

// joinOrder lists q's tables so that each table joined to another comes after
// one it joins: bruteForce then tests every join as soon as both sides are
// bound, instead of enumerating the full cross product first.
func joinOrder(q query.Query) []string {
	var out []string
	placed := make(map[string]bool, len(q.Tables))
	for _, start := range q.Tables {
		if placed[start] {
			continue
		}
		placed[start] = true
		out = append(out, start)
		for i := len(out) - 1; i < len(out); i++ {
			for _, j := range q.Joins {
				for _, e := range [][2]string{{j.Left.Table, j.Right.Table}, {j.Right.Table, j.Left.Table}} {
					if e[0] == out[i] && !placed[e[1]] {
						placed[e[1]] = true
						out = append(out, e[1])
					}
				}
			}
		}
	}
	return out
}

func indexOf(xs []string, x string) (int, bool) {
	for i, v := range xs {
		if v == x {
			return i, true
		}
	}
	return 0, false
}

var imdb = schema.IMDB()

func tinyDB(t *testing.T) *db.Database {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.Titles = 30
	cfg.CompaniesPerBlock = 5
	cfg.PersonsPerBlock = 10
	cfg.KeywordsPerBlock = 8
	d, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newExec(t testing.TB, d *db.Database) *Executor {
	t.Helper()
	e, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func ref(tb, c string) schema.ColumnRef { return schema.ColumnRef{Table: tb, Column: c} }

func mustQ(t *testing.T, tables []string, joins []query.Join, preds []query.Predicate) query.Query {
	t.Helper()
	q, err := query.New(imdb, tables, joins, preds)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func randomQuery(t *testing.T, rng *rand.Rand, d *db.Database, maxJoins int) query.Query {
	t.Helper()
	numJoins := rng.Intn(maxJoins + 1)
	var tables []string
	var joins []query.Join
	if numJoins == 0 {
		tables = []string{imdb.Tables[rng.Intn(len(imdb.Tables))].Name}
	} else {
		satellites := []string{schema.MovieCompany, schema.CastInfo, schema.MovieInfo, schema.MovieInfoIdx, schema.MovieKeyword}
		rng.Shuffle(len(satellites), func(i, j int) { satellites[i], satellites[j] = satellites[j], satellites[i] })
		tables = append([]string{schema.Title}, satellites[:numJoins]...)
		for _, sat := range satellites[:numJoins] {
			joins = append(joins, query.Join{Left: ref(schema.Title, "id"), Right: ref(sat, "movie_id")})
		}
	}
	var preds []query.Predicate
	for _, tb := range tables {
		td, _ := imdb.Table(tb)
		for _, col := range td.NonKeyColumns() {
			if rng.Float64() > 0.5 {
				continue
			}
			colVals := d.Table(tb).Column(col.Name)
			v := colVals[rng.Intn(len(colVals))]
			op := schema.Operators()[rng.Intn(3)]
			preds = append(preds, query.Predicate{Col: ref(tb, col.Name), Op: op, Val: v})
		}
	}
	return mustQ(t, tables, joins, preds)
}

func TestCardinalityMatchesBruteForce(t *testing.T) {
	d := tinyDB(t)
	e := newExec(t, d)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		q := randomQuery(t, rng, d, 3)
		got, err := e.Cardinality(q)
		if err != nil {
			t.Fatalf("query %s: %v", q, err)
		}
		want := bruteForce(d, q)
		if got != want {
			t.Fatalf("query %s: executor=%d brute=%d", q, got, want)
		}
	}
}

func TestCardinalityFullJoin(t *testing.T) {
	d := tinyDB(t)
	e := newExec(t, d)
	// All six tables, five joins, no predicates.
	sats := []string{schema.MovieCompany, schema.CastInfo, schema.MovieInfo, schema.MovieInfoIdx, schema.MovieKeyword}
	tables := append([]string{schema.Title}, sats...)
	var joins []query.Join
	for _, s := range sats {
		joins = append(joins, query.Join{Left: ref(schema.Title, "id"), Right: ref(s, "movie_id")})
	}
	q := mustQ(t, tables, joins, nil)
	got, err := e.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: per title, product of per-satellite fan-outs.
	fanout := make(map[string]map[int64]int64, len(sats))
	for _, s := range sats {
		fanout[s] = make(map[int64]int64)
		for _, id := range d.Table(s).Column("movie_id") {
			fanout[s][id]++
		}
	}
	var want int64
	titleIDs := d.Table(schema.Title).Column("id")
	for _, id := range titleIDs {
		m := int64(1)
		for _, s := range sats {
			m *= fanout[s][id]
			if m == 0 {
				break
			}
		}
		want += m
	}
	if got != want {
		t.Fatalf("full join: executor=%d reference=%d", got, want)
	}
}

func TestCartesianProduct(t *testing.T) {
	d := tinyDB(t)
	e := newExec(t, d)
	// Two tables, no join clause: cross product.
	q := query.Query{Tables: []string{schema.CastInfo, schema.Title}}
	got, err := e.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(d.NumRows(schema.CastInfo)) * int64(d.NumRows(schema.Title))
	if got != want {
		t.Fatalf("cartesian = %d, want %d", got, want)
	}
}

func TestMixedComponents(t *testing.T) {
	d := tinyDB(t)
	e := newExec(t, d)
	// One joined component (title ⋈ cast_info) crossed with a disconnected
	// singleton (movie_keyword): cardinality must be the product.
	joined := mustQ(t,
		[]string{schema.Title, schema.CastInfo},
		[]query.Join{{Left: ref(schema.Title, "id"), Right: ref(schema.CastInfo, "movie_id")}},
		[]query.Predicate{{Col: ref(schema.CastInfo, "role_id"), Op: schema.OpLT, Val: 5}},
	)
	joinedCard, err := e.Cardinality(joined)
	if err != nil {
		t.Fatal(err)
	}
	mixed := query.Query{
		Tables: []string{schema.CastInfo, schema.MovieKeyword, schema.Title},
		Joins:  joined.Joins,
		Preds:  joined.Preds,
	}
	got, err := e.Cardinality(mixed)
	if err != nil {
		t.Fatal(err)
	}
	want := joinedCard * int64(d.NumRows(schema.MovieKeyword))
	if got != want {
		t.Fatalf("mixed components = %d, want %d", got, want)
	}
}

func TestContainmentRateDefinition(t *testing.T) {
	d := tinyDB(t)
	e := newExec(t, d)
	q1 := mustQ(t, []string{schema.Title}, nil, []query.Predicate{
		{Col: ref(schema.Title, "production_year"), Op: schema.OpGT, Val: 1950},
	})
	q2 := mustQ(t, []string{schema.Title}, nil, []query.Predicate{
		{Col: ref(schema.Title, "production_year"), Op: schema.OpGT, Val: 1900},
	})
	// q1 ⊆ q2 analytically: containment of q1 in q2 is 100%.
	rate, err := e.ContainmentRate(q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := e.Cardinality(q1)
	if c1 > 0 && rate != 1.0 {
		t.Errorf("subset containment = %v, want 1.0", rate)
	}
	// Reverse direction matches the cardinality ratio.
	rev, err := e.ContainmentRate(q2, q1)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := e.Cardinality(q2)
	if c2 > 0 {
		want := float64(c1) / float64(c2)
		if diff := rev - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("reverse containment = %v, want %v", rev, want)
		}
	}
}

func TestContainmentRateProperties(t *testing.T) {
	d := tinyDB(t)
	e := newExec(t, d)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		q1 := randomQuery(t, rng, d, 2)
		q2 := randomQuery(t, rng, d, 2)
		if !q1.Comparable(q2) {
			continue
		}
		rate, err := e.ContainmentRate(q1, q2)
		if err != nil {
			t.Fatal(err)
		}
		if rate < 0 || rate > 1 {
			t.Fatalf("rate out of [0,1]: %v for %s vs %s", rate, q1, q2)
		}
		// Reflexivity: Q ⊂% Q is 1 for non-empty results, 0 otherwise.
		self, err := e.ContainmentRate(q1, q1)
		if err != nil {
			t.Fatal(err)
		}
		c1, _ := e.Cardinality(q1)
		if c1 > 0 && self != 1.0 {
			t.Fatalf("self containment = %v for %s", self, q1)
		}
		if c1 == 0 && self != 0 {
			t.Fatalf("empty query self containment = %v", self)
		}
	}
}

func TestAntiMonotonicity(t *testing.T) {
	d := tinyDB(t)
	e := newExec(t, d)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 40; i++ {
		q := randomQuery(t, rng, d, 2)
		base, err := e.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		// Adding any predicate never increases cardinality.
		tb := q.Tables[rng.Intn(len(q.Tables))]
		td, _ := imdb.Table(tb)
		nk := td.NonKeyColumns()
		col := nk[rng.Intn(len(nk))]
		vals := d.Table(tb).Column(col.Name)
		p := query.Predicate{
			Col: ref(tb, col.Name),
			Op:  schema.Operators()[rng.Intn(3)],
			Val: vals[rng.Intn(len(vals))],
		}
		narrowed, err := e.Cardinality(q.WithPredicate(p))
		if err != nil {
			t.Fatal(err)
		}
		if narrowed > base {
			t.Fatalf("adding %v increased cardinality %d -> %d for %s", p, base, narrowed, q)
		}
	}
}

func TestIntersectionBound(t *testing.T) {
	d := tinyDB(t)
	e := newExec(t, d)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 40; i++ {
		q1 := randomQuery(t, rng, d, 2)
		q2 := randomQuery(t, rng, d, 2)
		if !q1.Comparable(q2) {
			continue
		}
		qi, err := q1.Intersect(q2)
		if err != nil {
			t.Fatal(err)
		}
		ci, _ := e.Cardinality(qi)
		c1, _ := e.Cardinality(q1)
		c2, _ := e.Cardinality(q2)
		if ci > c1 || ci > c2 {
			t.Fatalf("|Q1∩Q2|=%d exceeds min(%d,%d)", ci, c1, c2)
		}
	}
}

func TestCacheHit(t *testing.T) {
	d := tinyDB(t)
	e := newExec(t, d)
	q := mustQ(t, []string{schema.Title}, nil, nil)
	if _, err := e.Cardinality(q); err != nil {
		t.Fatal(err)
	}
	n := e.CacheSize()
	if _, err := e.Cardinality(q); err != nil {
		t.Fatal(err)
	}
	if e.CacheSize() != n {
		t.Error("repeat query should hit the cache")
	}
	if n != 1 {
		t.Errorf("cache size = %d, want 1", n)
	}
}

func TestErrors(t *testing.T) {
	d := tinyDB(t)
	e := newExec(t, d)
	if _, err := e.Cardinality(query.Query{}); err == nil {
		t.Error("empty query should fail")
	}
	if _, err := e.Cardinality(query.Query{Tables: []string{"ghost"}}); err == nil {
		t.Error("unknown table should fail")
	}
	bad := query.Query{
		Tables: []string{schema.Title},
		Preds:  []query.Predicate{{Col: ref(schema.Title, "ghost"), Op: schema.OpEQ, Val: 1}},
	}
	if _, err := e.Cardinality(bad); err == nil {
		t.Error("unknown column should fail")
	}
	unfrozen := db.NewDatabase(imdb)
	if _, err := New(unfrozen); err == nil {
		t.Error("unfrozen database should be rejected")
	}
}

func TestSelectivityOn(t *testing.T) {
	d := tinyDB(t)
	e := newExec(t, d)
	sel, err := e.SelectivityOn(schema.Title, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel != 1.0 {
		t.Errorf("no predicates should select everything, got %v", sel)
	}
	sel, err = e.SelectivityOn(schema.Title, []query.Predicate{
		{Col: ref(schema.Title, "production_year"), Op: schema.OpGT, Val: 3000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sel != 0 {
		t.Errorf("impossible predicate should select nothing, got %v", sel)
	}
	if _, err := e.SelectivityOn("ghost", nil); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestConcurrentCardinality(t *testing.T) {
	d := tinyDB(t)
	e := newExec(t, d)
	rng := rand.New(rand.NewSource(23))
	queries := make([]query.Query, 20)
	for i := range queries {
		queries[i] = randomQuery(t, rng, d, 2)
	}
	want := make([]int64, len(queries))
	for i, q := range queries {
		c, err := e.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = c
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i, q := range queries {
				c, err := e.Cardinality(q)
				if err != nil {
					done <- err
					return
				}
				if c != want[i] {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent cardinality mismatch" }
