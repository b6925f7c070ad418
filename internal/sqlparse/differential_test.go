package sqlparse

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unsafe"

	"crn/internal/datagen"
	"crn/internal/query"
	"crn/internal/schema"
	"crn/internal/workload"
)

// prefixSchema is a second, hand-built schema whose names share prefixes, so
// rank order is decided by '.', '_', digits and letters meeting at one byte
// position, and whose join graph is not a star.
func prefixSchema() *schema.Schema {
	col := func(t, n string) schema.Column { return schema.Column{Table: t, Name: n} }
	ref := func(t, c string) schema.ColumnRef { return schema.ColumnRef{Table: t, Column: c} }
	return schema.New(
		[]schema.TableDef{
			{Name: "tx", Columns: []schema.Column{col("tx", "id"), col("tx", "i"), col("tx", "id_x")}},
			{Name: "t", Columns: []schema.Column{col("t", "x_id"), col("t", "id"), col("t", "x")}},
			{Name: "t_x", Columns: []schema.Column{col("t_x", "id"), col("t_x", "t_id")}},
			{Name: "t0", Columns: []schema.Column{col("t0", "id0"), col("t0", "id")}},
		},
		[]schema.JoinEdge{
			{Left: ref("tx", "id"), Right: ref("t", "id")},
			{Left: ref("t", "id"), Right: ref("t_x", "t_id")},
			{Left: ref("t0", "id"), Right: ref("t", "id")},
			{Left: ref("t0", "id0"), Right: ref("t_x", "id")},
		},
	)
}

// checkQuery holds a query built by the new front end to the oracle's.
func checkQuery(t *testing.T, what string, got query.Query, want oracleQuery) {
	t.Helper()
	if got.SQL() != want.SQL || got.FROMKey() != want.FROMKey {
		t.Errorf("%s:\n got  %q / %q\n want %q / %q", what, got.SQL(), got.FROMKey(), want.SQL, want.FROMKey)
	}
	// DeepEqual also pins the nil-versus-empty shape of each slice.
	if !reflect.DeepEqual(got.Tables, want.Tables) || !reflect.DeepEqual(got.Joins, want.Joins) ||
		!reflect.DeepEqual(got.Preds, want.Preds) {
		t.Errorf("%s: clauses\n got  %#v %#v %#v\n want %#v %#v %#v", what,
			got.Tables, got.Joins, got.Preds, want.Tables, want.Joins, want.Preds)
	}
	if !reflect.DeepEqual(got.Signature(), want.Sig) {
		t.Errorf("%s: signature\n got  %+v\n want %+v", what, got.Signature(), want.Sig)
	}
}

// checkParse parses sql with the scanner and with the oracle and requires the
// same outcome: the same error message wrapping ErrDialect, or the same query.
func checkParse(t *testing.T, s *schema.Schema, dict StringInterner, sql string) (accepted bool) {
	t.Helper()
	got, err := ParseWith(s, dict, sql)
	return checkOutcome(t, s, dict, sql, got, err)
}

// checkOutcome holds one parse outcome for sql — from the scanner directly or
// through a statement cache — to the oracle's.
func checkOutcome(t *testing.T, s *schema.Schema, dict StringInterner, sql string, got query.Query, err error) (accepted bool) {
	t.Helper()
	want, wantErr := oracleParseWith(s, dict, sql)
	if (err == nil) != (wantErr == nil) {
		t.Errorf("%q: error %v, oracle error %v", sql, err, wantErr)
		return false
	}
	if err != nil {
		if !errors.Is(err, ErrDialect) {
			t.Errorf("%q: error %v does not wrap ErrDialect", sql, err)
		}
		if err.Error() != wantErr.Error() {
			t.Errorf("%q: error\n got  %v\n want %v", sql, err, wantErr)
		}
		return false
	}
	checkQuery(t, fmt.Sprintf("%q", sql), got, want)
	return true
}

// handWritten are the inputs of the package's other tests plus the corners of
// the lexer: bytes >= 0x80 in every class, stray and unterminated quotes,
// numbers out of place and out of range.
var handWritten = []string{
	"SELECT * FROM title WHERE title.production_year > 1990",
	"SELECT * FROM title, cast_info, movie_keyword\n\t\tWHERE title.id = cast_info.movie_id AND movie_keyword.movie_id = title.id\n\t\tAND cast_info.role_id = 2 AND title.kind_id < 4",
	"SELECT * FROM movie_keyword WHERE TRUE",
	"SELECT * FROM movie_keyword",
	"select * from TITLE where Title.Kind_ID = 3;",
	"SELECT * FROM title WHERE title.season_nr > -1",
	"SELECT * FROM title WHERE title.id = 5",
	"SELECT * FROM title WHERE TRUE AND title.kind_id = 1 AND TRUE",
	"SELECT * FROM title WHERE title.kind_id = 1 AND title.kind_id = 1 AND title.kind_id < 1",
	"SELECT a FROM title", "FROM title", "SELECT * title", "SELECT * FROM", "SELECT * FROM ghost",
	"SELECT * FROM title WHERE", "SELECT * FROM title WHERE kind_id = 3",
	"SELECT * FROM title WHERE title.kind_id ! 3", "SELECT * FROM title WHERE title.kind_id = 3 extra",
	"SELECT * FROM title, cast_info WHERE title.id < cast_info.movie_id",
	"SELECT * FROM title WHERE title.ghost = 3", "SELECT * FROM cast_info WHERE title.kind_id = 3",
	"SELECT * FROM title, title", "SELECT * FROM ghost, ghost", "SELECT * FROM zzz, aaa, title, title",
	"SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND cast_info.movie_id = title.id",
	"SELECT * FROM title, cast_info WHERE title.id = cast_info.person_id",
	"SELECT * FROM title WHERE title.id = cast_info.movie_id",
	"SELECT * FROM title WHERE title.id = title.id",
	"SELECT * FROM title WHERE title.kind_id = 'movie'", "SELECT * FROM title WHERE title.kind_id < 'movie'",
	"SELECT * FROM title WHERE title.kind_id = 'movie", "SELECT * FROM title WHERE title.kind_id = ''",
	"SELECT * FROM title WHERE title.kind_id = 'ghost' AND title.kind_id = 'movie'",
	"SELECT * FROM title WHERE title.kind_id = 9223372036854775807",
	"SELECT * FROM title WHERE title.kind_id = 9223372036854775808",
	"SELECT * FROM title WHERE title.kind_id > -9223372036854775808",
	"SELECT * FROM title WHERE title.kind_id > -9223372036854775809",
	"SELECT * FROM title WHERE title.kind_id = -", "SELECT * FROM title WHERE title.kind_id = --5",
	"SELECT * FROM title WHERE title.kind_id = 5-3", "SELECT * FROM title WHERE title.kind_id = 007",
	"SELECT * FROM title WHERE title.kind_id = 1_0", "SELECT * FROM title WHERE title.kind_id = 1e3",
	"SELECT * FROM 5", "SELECT * FROM title,", "SELECT * FROM title WHERE title.kind_id = 3 AND",
	"SELECT * FROM title;;", "SELECT * FROM title ; ", ";", "", " ", "SELECT", "SELECT *", "SELECT * FROM title WHERE TRUE TRUE",
	"SELECT\xa0* FROM title", "SELECT\x85* FROM\u00a0title", "SELECT * FROM title\xa0WHERE\x0btitle.kind_id\x0c=\r3",
	"SELECT * FROM t\xeftle", "SELECT * FROM title\xe9", "SELECT * FROM \xc4\xaa", "SELECT * FROM \xc3\xaatitle",
	"SELECT * FROM title WHERE title.kind_id = \xb2", "SELECT * FROM title WHERE title.kind\xaa_id = 2",
	"SELECT * FROM title WHERE title.kind_id \xd7 2", "\xff", "SELECT \xf7 FROM title", "S\u0130LECT * FROM title",
	"SELECT * FROM t\u0131tle", "SELECT * FROM \u212aind", "\u017fELECT * FROM title", "SELECT * FROM title WHERE title.\u212aind_id = 1",
}

// generated returns canonical SQL of workload queries with 0, 1 and 2 joins.
func generated(t testing.TB, perJoin int) []string {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.Titles = 200
	d, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewGenerator(s, d, 11)
	var out []string
	for joins := 0; joins <= 2; joins++ {
		qs, err := g.Queries(map[int]int{joins: perJoin})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			out = append(out, q.SQL())
		}
	}
	return out
}

// respell rewrites canonical SQL the way clients do without changing its
// meaning much: shuffled FROM list and conjuncts, flipped join sides, random
// case, odd whitespace, a trailing semicolon.
func respell(rng *rand.Rand, sql string) string {
	rest := strings.TrimPrefix(sql, "SELECT * FROM ")
	from, where, _ := strings.Cut(rest, " WHERE ")
	tables := strings.Split(from, ", ")
	rng.Shuffle(len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
	conds := strings.Split(where, " AND ")
	rng.Shuffle(len(conds), func(i, j int) { conds[i], conds[j] = conds[j], conds[i] })
	for i, c := range conds {
		if l, r, ok := strings.Cut(c, " = "); ok && strings.Contains(r, ".") && rng.Intn(2) == 0 {
			conds[i] = r + " = " + l
		}
	}
	spaces := []string{" ", "  ", "\t", "\n", " \r\n", "\xa0"}
	sp := func() string { return spaces[rng.Intn(len(spaces))] }
	out := "SELECT" + sp() + "*" + sp() + "FROM" + sp() + strings.Join(tables, ","+sp()) +
		sp() + "WHERE" + sp() + strings.Join(conds, sp()+"AND"+sp())
	// Case changes are bytewise: out is not valid UTF-8 once it holds \xa0.
	b := []byte(out)
	for i, c := range b {
		if mode := rng.Intn(3); 'a' <= c && c <= 'z' && (mode == 0 || mode == 1 && rng.Intn(2) == 0) {
			b[i] = c - 'a' + 'A'
		}
	}
	out = string(b)
	if rng.Intn(2) == 0 {
		out += sp() + ";"
	}
	return out
}

// mutate changes sql at one or two random places: a byte replaced by one the
// lexer cares about, flipped in case, deleted or doubled, or a slice moved.
// Some mutants still parse (another value, another spelling, a dropped
// conjunct's worth of bytes); most do not.
func mutate(rng *rand.Rand, sql string) string {
	const alphabet = " \t*,.;<=>'-_09azAZ!(\xa0\x85\xaa\xb5\xc4\xd7\xe9\xff"
	b := []byte(sql)
	for n := 1 + rng.Intn(2); n > 0 && len(b) > 0; n-- {
		i := rng.Intn(len(b))
		switch rng.Intn(6) {
		case 0:
			b[i] = alphabet[rng.Intn(len(alphabet))]
		case 1:
			b[i] ^= 0x20 // the other case of a letter; '<' <-> 0x1c, ' ' <-> 0x00, ...
		case 2:
			b[i] = "0123456789<=>"[rng.Intn(13)]
		case 3:
			b = append(b[:i], b[i+1:]...)
		case 4:
			b = append(b[:i+1], b[i:]...)
		case 5:
			j := i + rng.Intn(len(b)-i)
			k := rng.Intn(len(b) - (j - i) + 1)
			moved := append([]byte(nil), b[i:j]...)
			rest := append(append([]byte(nil), b[:i]...), b[j:]...)
			b = append(append(append([]byte(nil), rest[:k]...), moved...), rest[k:]...)
		}
	}
	return string(b)
}

func TestParseMatchesOracle(t *testing.T) {
	dict := fakeDict{"title.kind_id=movie": 3}
	for _, sql := range handWritten {
		checkParse(t, s, nil, sql)
		checkParse(t, s, dict, sql)
	}
	rng := rand.New(rand.NewSource(5))
	accepted, total := 0, 0
	for _, sql := range generated(t, 40) {
		if !checkParse(t, s, nil, sql) {
			t.Errorf("canonical SQL rejected: %q", sql)
		}
		for i := 0; i < 4; i++ {
			re := respell(rng, sql)
			if !checkParse(t, s, nil, re) {
				t.Errorf("respelled SQL rejected: %q", re)
			}
			for k := 0; k < 100; k++ {
				total++
				if checkParse(t, s, dict, mutate(rng, re)) {
					accepted++
				}
			}
		}
	}
	// The mutations must exercise both outcomes, or the comparison is vacuous.
	if accepted < total/10 || accepted > total*9/10 {
		t.Errorf("mutated inputs: %d of %d accepted", accepted, total)
	}
	t.Logf("mutated inputs: %d of %d accepted", accepted, total)
}

// TestParseMatchesOracleOnPrefixSchema runs the comparison where rank order
// is not catalog order and FoldTable/FoldColumn have near-miss names to tell
// apart.
func TestParseMatchesOracleOnPrefixSchema(t *testing.T) {
	ps := prefixSchema()
	rng := rand.New(rand.NewSource(9))
	for _, sql := range prefixBase {
		checkParse(t, ps, nil, sql)
		for k := 0; k < 300; k++ {
			checkParse(t, ps, nil, mutate(rng, sql))
		}
	}
}

// prefixBase are the hand-written inputs over prefixSchema.
var prefixBase = []string{
	"SELECT * FROM tx, t, t_x, t0 WHERE tx.id = t.id AND t_x.t_id = t.id AND t.id = t0.id AND t_x.id = t0.id0 AND t.x_id < 3 AND t.x = 3 AND t.id > 3 AND tx.i = 1 AND tx.id_x = 1 AND t0.id0 = 2 AND t0.id = 2 AND t_x.id = 9",
	"SELECT * FROM t0, t_x WHERE t0.id0 = t_x.id AND t_x.t_id = 4 AND t_x.id < 4",
	"SELECT * FROM T, TX WHERE T.ID = TX.ID AND TX.I > -7 AND T.X_ID = 0",
	"SELECT * FROM t, t0 WHERE t.id = t0.id0", "SELECT * FROM t_, t", "SELECT * FROM t WHERE t.i = 1",
	"SELECT * FROM t0 WHERE t0.id0 < 5 AND t0.id0 < 4 AND t0.id > 4 AND t0.id = 4",
}

// TestNewMatchesOracle feeds query.New clause lists no SQL text can spell —
// unsupported operators, upper-case and empty names, no tables at all —
// beside valid ones in random order, on both schemas.
func TestNewMatchesOracle(t *testing.T) {
	for name, sc := range map[string]*schema.Schema{"imdb": s, "prefix": prefixSchema()} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			var tableNames []string
			var cols []schema.ColumnRef
			for _, td := range sc.Tables {
				tableNames = append(tableNames, td.Name)
				for _, c := range td.Columns {
					cols = append(cols, schema.ColumnRef{Table: td.Name, Column: c.Name})
				}
			}
			tableNames = append(tableNames, "ghost", "", strings.ToUpper(tableNames[0]))
			cols = append(cols, schema.ColumnRef{Table: tableNames[0], Column: "ghost"},
				schema.ColumnRef{Table: "ghost", Column: "id"}, schema.ColumnRef{})
			ops := []string{schema.OpLT, schema.OpEQ, schema.OpGT, schema.OpEQ, schema.OpLT, "!=", ""}
			accepted := 0
			const rounds = 20000
			for i := 0; i < rounds; i++ {
				var tables []string
				var joins []query.Join
				var preds []query.Predicate
				if rng.Intn(3) > 0 {
					// Mostly valid: a connected table set with its spanning joins.
					sets := sc.JoinableSets(3)
					tables = append(tables, sets[rng.Intn(len(sets))]...)
					edges, _ := sc.SpanningJoins(tables)
					for _, e := range edges {
						j := query.Join{Left: e.Left, Right: e.Right}
						if rng.Intn(2) == 0 {
							j = query.Join{Left: e.Right, Right: e.Left}
						}
						joins = append(joins, j)
					}
					for n := rng.Intn(5); n > 0; n-- {
						c := cols[rng.Intn(len(cols)-3)]
						if rng.Intn(4) > 0 {
							c.Table = tables[rng.Intn(len(tables))]
						}
						preds = append(preds, query.Predicate{Col: c, Op: ops[rng.Intn(3)], Val: int64(rng.Intn(5) - 2)})
					}
				}
				for n := rng.Intn(3) * rng.Intn(2); n > 0; n-- {
					tables = append(tables, tableNames[rng.Intn(len(tableNames))])
				}
				for n := rng.Intn(3) * rng.Intn(2); n > 0; n-- {
					if e := sc.Joins[rng.Intn(len(sc.Joins))]; rng.Intn(2) == 0 {
						joins = append(joins, query.Join{Left: e.Right, Right: e.Left})
					} else {
						joins = append(joins, query.Join{Left: cols[rng.Intn(len(cols))], Right: cols[rng.Intn(len(cols))]})
					}
				}
				for n := rng.Intn(3) * rng.Intn(2); n > 0; n-- {
					preds = append(preds, query.Predicate{Col: cols[rng.Intn(len(cols))], Op: ops[rng.Intn(len(ops))], Val: rng.Int63() - rng.Int63()})
				}
				rng.Shuffle(len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
				rng.Shuffle(len(joins), func(i, j int) { joins[i], joins[j] = joins[j], joins[i] })
				rng.Shuffle(len(preds), func(i, j int) { preds[i], preds[j] = preds[j], preds[i] })

				what := fmt.Sprintf("New(%q, %v, %v)", tables, joins, preds)
				got, err := query.New(sc, tables, joins, preds)
				want, wantErr := oracleNew(sc, tables, joins, preds)
				switch {
				case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
					t.Fatalf("%s: error %v, oracle error %v", what, err, wantErr)
				case err == nil:
					accepted++
					checkQuery(t, what, got, want)
				}
			}
			if accepted < rounds/10 || accepted > rounds*9/10 {
				t.Errorf("%d of %d clause lists accepted", accepted, rounds)
			}
		})
	}
}

// FuzzParse holds the scanner to the oracle on arbitrary bytes, with and
// without a string dictionary.
func FuzzParse(f *testing.F) {
	for _, sql := range handWritten {
		f.Add(sql)
	}
	rng := rand.New(rand.NewSource(1))
	for _, sql := range generated(f, 6) {
		f.Add(sql)
		f.Add(respell(rng, sql))
	}
	dict := fakeDict{"title.kind_id=movie": 3}
	ps := prefixSchema()
	f.Fuzz(func(t *testing.T, sql string) {
		checkParse(t, s, nil, sql)
		checkParse(t, s, dict, sql)
		checkParse(t, ps, nil, sql)
	})
}

// TestByteClasses pins the class table to the predicates the old lexer
// applied to each byte, first match winning.
func TestByteClasses(t *testing.T) {
	for b := 0; b < 256; b++ {
		c := rune(b)
		want := clsSymbol
		switch {
		case unicode.IsSpace(c):
			want = clsSpace
		case strings.ContainsRune("*,.;<=>", c):
		case c == '\'':
			want = clsQuote
		case c == '-':
			want = clsMinus
		case unicode.IsDigit(c):
			want = clsDigit
		case unicode.IsLetter(c) || c == '_':
			want = clsLetter
		}
		if classOf[b] != want {
			t.Errorf("byte %#x: class %d, want %d", b, classOf[b], want)
		}
		// The continuation tests of the old lexer did not go through the
		// switch; the classes must answer them all the same.
		if (classOf[b] == clsDigit) != unicode.IsDigit(c) {
			t.Errorf("byte %#x: digit class disagrees with unicode.IsDigit", b)
		}
		if (classOf[b] == clsLetter || classOf[b] == clsDigit) != (unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_') {
			t.Errorf("byte %#x: identifier classes disagree with the unicode predicates", b)
		}
	}
}

// twoJoinThreePred is the shape the allocation contract is stated for.
const twoJoinThreePred = "SELECT * FROM title, cast_info, movie_companies " +
	"WHERE title.id = cast_info.movie_id AND movie_companies.movie_id = title.id " +
	"AND cast_info.role_id = 2 AND title.production_year > 1990 AND movie_companies.company_type_id < 3"

// TestParseAllocations pins the front end's contract: a 2-join/3-predicate
// query parses in at most 8 allocations (the canonical query's three slices,
// its key, its signature and the signature's ranges), however it is spelled.
func TestParseAllocations(t *testing.T) {
	for _, sql := range []string{twoJoinThreePred, strings.ToUpper(twoJoinThreePred)} {
		q := MustParse(s, sql)
		if len(q.Joins) != 2 || len(q.Preds) != 3 {
			t.Fatalf("shape: %v", q)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, err := Parse(s, sql); err != nil {
				t.Fatal(err)
			}
		}); n > 8 {
			t.Errorf("Parse allocates %v times, want <= 8", n)
		}
		if n := testing.AllocsPerRun(200, func() { _ = q.FROMKey() }); n != 0 {
			t.Errorf("FROMKey allocates %v times", n)
		}
	}
}

// TestParsedQueryDoesNotRetainInput pins that no string of the canonical
// query aliases the request text: a pooled query must not keep a batch
// frame's arena alive.
func TestParsedQueryDoesNotRetainInput(t *testing.T) {
	sql := strings.Clone(twoJoinThreePred)
	q := MustParse(s, sql)
	interned := map[string]bool{schema.OpLT: true, schema.OpEQ: true, schema.OpGT: true}
	for _, td := range s.Tables {
		interned[td.Name] = true
		for _, c := range td.Columns {
			interned[c.Name] = true
		}
	}
	var parts []string
	parts = append(parts, q.Tables...)
	for _, j := range q.Joins {
		parts = append(parts, j.Left.Table, j.Left.Column, j.Right.Table, j.Right.Column)
	}
	for _, p := range q.Preds {
		parts = append(parts, p.Col.Table, p.Col.Column, p.Op)
	}
	for _, part := range parts {
		if !interned[part] {
			t.Fatalf("%q is not a schema name", part)
		}
		if aliases(part, sql) {
			t.Errorf("%q aliases the input text", part)
		}
	}
}

// aliases reports whether part's bytes lie inside whole's backing array.
func aliases(part, whole string) bool {
	p := uintptr(unsafe.Pointer(unsafe.StringData(part)))
	w := uintptr(unsafe.Pointer(unsafe.StringData(whole)))
	return len(part) > 0 && p >= w && p < w+uintptr(len(whole))
}

var benchSink query.Query

// BenchmarkParse is the hot mix a planner session posts: generated 0-, 1-
// and 2-join queries in their canonical spelling.
func BenchmarkParse(b *testing.B) {
	sqls := generated(b, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := Parse(s, sqls[i%len(sqls)])
		if err != nil {
			b.Fatal(err)
		}
		benchSink = q
	}
}
