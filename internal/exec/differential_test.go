package exec

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"crn/internal/datagen"
	"crn/internal/db"
	"crn/internal/query"
	"crn/internal/schema"
	"crn/internal/workload"
)

// boundaryValues are the predicate literals at the edges of the value domain:
// an interval conversion that computes Val-1 or Val+1 without a guard
// overflows on the extremes.
var boundaryValues = []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 2, 3, math.MaxInt64 - 1, math.MaxInt64}

// edgeDB is a hand-built database over the IMDb schema whose non-key columns
// hold long runs of duplicates and both int64 extremes, whose title ids repeat
// (bag semantics on the key side too) and whose satellites reference ids no
// title has. It is small enough for bruteForce over six tables.
func edgeDB(t testing.TB) *db.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	values := []int64{math.MinInt64, -1, 0, 0, 0, 0, 1, 2, 3, math.MaxInt64}
	d := db.NewDatabase(imdb)
	for _, td := range imdb.Tables {
		rows, ids := 8, []int64{1, 2, 3, 4, 5, 6, 7}
		if td.Name == schema.Title {
			rows, ids = 7, []int64{1, 2, 3, 3, 4, 5, 6}
		}
		for r := 0; r < rows; r++ {
			row := make([]int64, len(td.Columns))
			for i, c := range td.Columns {
				switch {
				case !c.Key:
					row[i] = values[rng.Intn(len(values))]
				case td.Name == schema.Title:
					row[i] = ids[r]
				default:
					row[i] = ids[rng.Intn(len(ids))]
				}
			}
			if err := d.AppendRow(td.Name, row...); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.Freeze()
	return d
}

// genQuery draws a query with 0–5 joins, sometimes crossed with a disconnected
// table, whose predicates sit on any column (key columns cannot drive a
// selection) with values from the data, from boundaryValues or just outside
// the column's range.
func genQuery(t testing.TB, rng *rand.Rand, d *db.Database, cartesian bool) query.Query {
	t.Helper()
	sats := []string{schema.MovieCompany, schema.CastInfo, schema.MovieInfo, schema.MovieInfoIdx, schema.MovieKeyword}
	rng.Shuffle(len(sats), func(i, j int) { sats[i], sats[j] = sats[j], sats[i] })
	var tables []string
	var joins []query.Join
	if k := rng.Intn(6); k == 0 {
		tables = []string{imdb.Tables[rng.Intn(len(imdb.Tables))].Name}
	} else {
		tables = append([]string{schema.Title}, sats[:k]...)
		for _, s := range sats[:k] {
			joins = append(joins, query.Join{Left: ref(schema.Title, "id"), Right: ref(s, "movie_id")})
		}
	}
	if cartesian {
		for _, s := range sats {
			if _, in := indexOf(tables, s); !in {
				tables = append(tables, s)
				break
			}
		}
	}
	q, err := query.New(imdb, tables, joins, genPreds(rng, d, tables))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// genPreds draws 0–2 predicates per table of tables, on any column, with
// values from the data, from boundaryValues or just outside the column's
// range.
func genPreds(rng *rand.Rand, d *db.Database, tables []string) []query.Predicate {
	var preds []query.Predicate
	for _, tb := range tables {
		td, _ := imdb.Table(tb)
		for n := rng.Intn(3); n > 0; n-- {
			c := td.Columns[rng.Intn(len(td.Columns))]
			col := d.Table(tb).Column(c.Name)
			st, _ := d.Stats(ref(tb, c.Name))
			var v int64
			switch rng.Intn(6) {
			case 0, 1, 2, 3:
				v = col[rng.Intn(len(col))]
			case 4:
				v = boundaryValues[rng.Intn(len(boundaryValues))]
			default:
				v = []int64{st.Min - 1, st.Max + 1, (st.Min + st.Max) / 2}[rng.Intn(3)]
			}
			preds = append(preds, query.Predicate{Col: ref(tb, c.Name), Op: schema.Operators()[rng.Intn(3)], Val: v})
		}
	}
	return preds
}

// TestCardinalityDifferential holds the executor to bruteForce and to the
// map-based oracle on random queries with 0–5 joins, boundary predicates and
// cartesian FROM clauses, over generated data and over edgeDB.
func TestCardinalityDifferential(t *testing.T) {
	for _, fx := range []struct {
		name string
		d    *db.Database
		n    int
	}{{"tiny", tinyDB(t), 300}, {"edge", edgeDB(t), 600}} {
		t.Run(fx.name, func(t *testing.T) {
			e := newExec(t, fx.d)
			rng := rand.New(rand.NewSource(29))
			var zero, nonzero int
			for i := 0; i < fx.n; i++ {
				// Cartesian products over generated data multiply bruteForce's
				// enumeration by a whole table: keep them to edgeDB.
				q := genQuery(t, rng, fx.d, fx.name == "edge" && i%4 == 0)
				checkAgainstOracles(t, e, fx.d, q)
				if c, _ := e.Cardinality(q); c == 0 {
					zero++
				} else {
					nonzero++
				}
			}
			t.Logf("%d empty and %d non-empty results", zero, nonzero)
			if zero < fx.n/20 || nonzero < fx.n/4 {
				t.Errorf("uninformative draw: %d empty and %d non-empty results", zero, nonzero)
			}
		})
	}
}

// TestCardinalityEdgeCases pins the cases the random draw reaches only by
// chance.
func TestCardinalityEdgeCases(t *testing.T) {
	d := edgeDB(t)
	e := newExec(t, d)
	titleJoin := []query.Join{{Left: ref(schema.Title, "id"), Right: ref(schema.CastInfo, "movie_id")}}
	pred := func(tb, c, op string, v int64) query.Predicate {
		return query.Predicate{Col: ref(tb, c), Op: op, Val: v}
	}
	cases := []struct {
		name   string
		tables []string
		joins  []query.Join
		preds  []query.Predicate
	}{
		{"below MinInt64", []string{schema.Title}, nil, []query.Predicate{pred(schema.Title, "kind_id", schema.OpLT, math.MinInt64)}},
		{"above MaxInt64", []string{schema.Title}, nil, []query.Predicate{pred(schema.Title, "kind_id", schema.OpGT, math.MaxInt64)}},
		{"equals MaxInt64", []string{schema.Title}, nil, []query.Predicate{pred(schema.Title, "kind_id", schema.OpEQ, math.MaxInt64)}},
		{"below MaxInt64", []string{schema.Title}, nil, []query.Predicate{pred(schema.Title, "kind_id", schema.OpLT, math.MaxInt64)}},
		{"above MinInt64", []string{schema.Title}, nil, []query.Predicate{pred(schema.Title, "kind_id", schema.OpGT, math.MinInt64)}},
		{"duplicate run", []string{schema.Title}, nil, []query.Predicate{pred(schema.Title, "kind_id", schema.OpEQ, 0)}},
		{"absent value", []string{schema.Title}, nil, []query.Predicate{pred(schema.Title, "kind_id", schema.OpEQ, 42)}},
		{"contradiction", []string{schema.Title}, nil, []query.Predicate{
			pred(schema.Title, "kind_id", schema.OpGT, 2), pred(schema.Title, "kind_id", schema.OpLT, 1)}},
		{"empty driving selection under a join", []string{schema.CastInfo, schema.Title}, titleJoin, []query.Predicate{
			pred(schema.Title, "production_year", schema.OpGT, math.MaxInt64), pred(schema.CastInfo, "role_id", schema.OpEQ, 0)}},
		{"key-column predicate only", []string{schema.CastInfo, schema.Title}, titleJoin, []query.Predicate{
			pred(schema.Title, "id", schema.OpEQ, 3)}},
		{"key and value predicates", []string{schema.CastInfo, schema.Title}, titleJoin, []query.Predicate{
			pred(schema.CastInfo, "movie_id", schema.OpGT, 2), pred(schema.CastInfo, "role_id", schema.OpLT, 1)}},
		{"cartesian", []string{schema.MovieKeyword, schema.Title}, nil, []query.Predicate{
			pred(schema.Title, "kind_id", schema.OpGT, -1)}},
		{"cartesian with a join", []string{schema.CastInfo, schema.MovieKeyword, schema.Title}, titleJoin, []query.Predicate{
			pred(schema.MovieKeyword, "keyword_id", schema.OpLT, 1)}},
		{"cartesian with an empty side", []string{schema.MovieKeyword, schema.Title}, nil, []query.Predicate{
			pred(schema.MovieKeyword, "keyword_id", schema.OpLT, math.MinInt64)}},
	}
	for _, c := range cases {
		q, err := query.New(imdb, c.tables, c.joins, c.preds)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Run(c.name, func(t *testing.T) { checkAgainstOracles(t, e, d, q) })
	}
}

// checkAgainstOracles compares the executor's count of q with bruteForce's
// and the map evaluator's.
func checkAgainstOracles(t testing.TB, e *Executor, d *db.Database, q query.Query) {
	t.Helper()
	got, err := e.Cardinality(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if want := bruteForce(d, q); got != want {
		t.Fatalf("%s: executor=%d brute=%d", q, got, want)
	}
	if want, err := mapCardinality(d, q); err != nil || got != want {
		t.Fatalf("%s: executor=%d map oracle=%d (%v)", q, got, want, err)
	}
}

// TestCardinalityScaleMatchesMapOracle compares the executor with the map
// evaluator it replaced on generated pool queries (every FROM clause, 0–5
// joins) at the benchmark's database size.
func TestCardinalityScaleMatchesMapOracle(t *testing.T) {
	titles, n := 4000, 5000
	if testing.Short() {
		titles, n = 1000, 1000
	}
	cfg := datagen.DefaultConfig()
	cfg.Titles = titles
	d, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := workload.NewGenerator(imdb, d, 3).PoolQueries(n)
	if err != nil {
		t.Fatal(err)
	}
	e := newExec(t, d)
	for _, q := range qs {
		got, err := e.Cardinality(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := mapCardinality(d, q)
		if err != nil {
			t.Fatalf("%s: map oracle: %v", q, err)
		}
		if got != want {
			t.Fatalf("%s: executor=%d map oracle=%d", q, got, want)
		}
	}
}

// TestCardinalityConcurrentScratch has eight goroutines evaluate the same
// queries in different orders on one executor, so most first evaluations run
// concurrently and each draws row buffers and weight arrays from the shared
// scratch pool. Run it under -race.
func TestCardinalityConcurrentScratch(t *testing.T) {
	d := tinyDB(t)
	rng := rand.New(rand.NewSource(31))
	queries := make([]query.Query, 120)
	want := make([]int64, len(queries))
	for i := range queries {
		queries[i] = genQuery(t, rng, d, false)
		c, err := mapCardinality(d, queries[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = c
	}
	e := newExec(t, d)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queries {
				i := (k + w*len(queries)/workers) % len(queries)
				c, err := e.Cardinality(queries[i])
				if err != nil {
					t.Errorf("%s: %v", queries[i], err)
					return
				}
				if c != want[i] {
					t.Errorf("%s: executor=%d map oracle=%d", queries[i], c, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzCardinality holds the executor to bruteForce on edgeDB for
// fuzzer-chosen FROM clauses (tables), join subsets (joins) and predicates
// (4 bytes each: table, column, operator, value from boundaryValues).
func FuzzCardinality(f *testing.F) {
	f.Add(uint8(0b000001), uint8(0), []byte{})
	f.Add(uint8(0b111111), uint8(0b11111), []byte{0, 1, 2, 3, 5, 1, 0, 8})
	f.Add(uint8(0b100010), uint8(0), []byte{1, 1, 0, 0, 0, 2, 1, 4})
	f.Add(uint8(0b100100), uint8(0b11111), []byte{0, 0, 1, 3, 1, 2, 2, 6, 1, 2, 0, 7})
	d := edgeDB(f)
	e := newExec(f, d)
	f.Fuzz(func(t *testing.T, tables, joins uint8, raw []byte) {
		q, ok := fuzzQuery(t, tables, joins, raw)
		if !ok {
			return
		}
		got, err := e.Cardinality(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if want := bruteForce(d, q); got != want {
			t.Fatalf("%s: executor=%d brute=%d", q, got, want)
		}
	})
}

// FuzzFacts holds query.Facts to the executor on edgeDB: two queries over one
// fuzzer-chosen FROM clause, each with its own join subset and predicates
// (rawA and rawB, decoded as in FuzzCardinality, literals at the int64
// edges), must relate as checkFacts demands.
func FuzzFacts(f *testing.F) {
	f.Add(uint8(0b000001), uint8(0), uint8(0), []byte{0, 1, 2, 3}, []byte{0, 1, 2, 5})
	f.Add(uint8(0b100010), uint8(0b11111), uint8(0), []byte{1, 1, 0, 4}, []byte{1, 1, 0, 6, 0, 2, 1, 0})
	f.Add(uint8(0b100100), uint8(0b11111), uint8(0b11111), []byte{0, 0, 1, 3, 0, 0, 1, 3}, []byte{0, 0, 1, 3})
	f.Add(uint8(0b000001), uint8(0), uint8(0), []byte{0, 1, 0, 0, 0, 1, 2, 8}, []byte{0, 1, 1, 2})
	d := edgeDB(f)
	e := newExec(f, d)
	f.Fuzz(func(t *testing.T, tables, joinsA, joinsB uint8, rawA, rawB []byte) {
		a, ok := fuzzQuery(t, tables, joinsA, rawA)
		if !ok {
			return
		}
		b, _ := fuzzQuery(t, tables, joinsB, rawB)
		checkFacts(t, e, a, b)
	})
}

// fuzzQuery decodes a query over edgeDB's schema: the tables of the mask
// tables, the joins of the mask joins that the FROM clause reaches, and one
// predicate per 4 bytes of raw (at most 8). It reports false for an empty
// FROM clause.
func fuzzQuery(t *testing.T, tables, joins uint8, raw []byte) (query.Query, bool) {
	var from []string
	for i, td := range imdb.Tables {
		if tables&(1<<i) != 0 {
			from = append(from, td.Name)
		}
	}
	if len(from) == 0 {
		return query.Query{}, false
	}
	var js []query.Join
	if _, ok := indexOf(from, schema.Title); ok {
		for i, je := range imdb.Joins {
			if _, ok := indexOf(from, je.Right.Table); ok && joins&(1<<i) != 0 {
				js = append(js, query.Join{Left: je.Left, Right: je.Right})
			}
		}
	}
	var preds []query.Predicate
	for k := 0; k+4 <= len(raw) && k < 4*8; k += 4 {
		td, _ := imdb.Table(from[int(raw[k])%len(from)])
		c := td.Columns[int(raw[k+1])%len(td.Columns)]
		preds = append(preds, query.Predicate{
			Col: ref(td.Name, c.Name),
			Op:  schema.Operators()[int(raw[k+2])%schema.NumOperators],
			Val: boundaryValues[int(raw[k+3])%len(boundaryValues)],
		})
	}
	q, err := query.New(imdb, from, js, preds)
	if err != nil {
		t.Fatal(err)
	}
	return q, true
}
