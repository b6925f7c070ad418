package schema

import (
	"reflect"
	"strings"
	"testing"
)

func TestIMDBCatalogDimensions(t *testing.T) {
	s := IMDB()
	if got, want := s.NumTables(), 6; got != want {
		t.Errorf("NumTables = %d, want %d", got, want)
	}
	// 5 + 3 + 4 + 3 + 3 + 2 columns.
	if got, want := s.NumColumns(), 20; got != want {
		t.Errorf("NumColumns = %d, want %d", got, want)
	}
	if got, want := s.NumJoins(), 5; got != want {
		t.Errorf("NumJoins = %d, want %d", got, want)
	}
}

func TestTableAndColumnLookup(t *testing.T) {
	s := IMDB()
	id, ok := s.TableID(Title)
	if !ok {
		t.Fatalf("TableID(%q) not found", Title)
	}
	if id != 0 {
		t.Errorf("TableID(title) = %d, want 0", id)
	}
	if _, ok := s.TableID("nope"); ok {
		t.Error("TableID of unknown table should fail")
	}

	cid, ok := s.ColumnID(ColumnRef{Table: Title, Column: "production_year"})
	if !ok {
		t.Fatal("ColumnID(title.production_year) not found")
	}
	col := s.ColumnByID(cid)
	if col.Qualified() != "title.production_year" {
		t.Errorf("ColumnByID round trip = %q", col.Qualified())
	}
	if s.HasColumn(ColumnRef{Table: Title, Column: "bogus"}) {
		t.Error("HasColumn should reject unknown column")
	}
}

func TestColumnOrdinalsAreDenseAndUnique(t *testing.T) {
	s := IMDB()
	seen := make(map[int]bool)
	for _, tab := range s.Tables {
		for _, c := range tab.Columns {
			id, ok := s.ColumnID(ColumnRef{Table: c.Table, Column: c.Name})
			if !ok {
				t.Fatalf("missing ordinal for %s", c.Qualified())
			}
			if seen[id] {
				t.Fatalf("duplicate ordinal %d for %s", id, c.Qualified())
			}
			seen[id] = true
			if id < 0 || id >= s.NumColumns() {
				t.Fatalf("ordinal %d out of range", id)
			}
		}
	}
	if len(seen) != s.NumColumns() {
		t.Errorf("ordinals not dense: %d of %d", len(seen), s.NumColumns())
	}
}

// TestColumnHashesAreDistinct: query signatures merge per-column value
// ranges by the 64-bit column hash, and the estimator's predicate facts read
// those ranges, so two columns sharing a hash would merge their predicates
// and could prove a false implication or disjointness. The precomputed hash
// must also be the hash of the qualified name.
func TestColumnHashesAreDistinct(t *testing.T) {
	s := IMDB()
	seen := make(map[uint64]string)
	for id := 0; id < s.NumColumns(); id++ {
		ci := s.ColumnInfo(id)
		name := ci.Ref.String()
		if ci.Hash != Hash(name) {
			t.Fatalf("%s: precomputed hash %x, Hash gives %x", name, ci.Hash, Hash(name))
		}
		if other, ok := seen[ci.Hash]; ok {
			t.Fatalf("%s and %s share column hash %x", other, name, ci.Hash)
		}
		seen[ci.Hash] = name
	}
}

func TestNonKeyColumns(t *testing.T) {
	s := IMDB()
	tab, ok := s.Table(Title)
	if !ok {
		t.Fatal("title missing")
	}
	nk := tab.NonKeyColumns()
	if len(nk) != 4 {
		t.Fatalf("title non-key columns = %d, want 4", len(nk))
	}
	for _, c := range nk {
		if c.Key {
			t.Errorf("NonKeyColumns returned key column %s", c.Qualified())
		}
	}
	mk, _ := s.Table(MovieKeyword)
	if got := len(mk.NonKeyColumns()); got != 1 {
		t.Errorf("movie_keyword non-key columns = %d, want 1", got)
	}
}

func TestOperatorIDs(t *testing.T) {
	s := IMDB()
	want := map[string]int{OpLT: 0, OpEQ: 1, OpGT: 2}
	for op, idx := range want {
		got, ok := s.OperatorID(op)
		if !ok || got != idx {
			t.Errorf("OperatorID(%q) = %d,%v want %d,true", op, got, ok, idx)
		}
	}
	if _, ok := s.OperatorID("!="); ok {
		t.Error("OperatorID should reject unsupported operator")
	}
	if len(Operators()) != NumOperators {
		t.Errorf("Operators() length %d != NumOperators %d", len(Operators()), NumOperators)
	}
}

func TestJoinLookupIsOrderIndependent(t *testing.T) {
	s := IMDB()
	a := ColumnRef{Table: Title, Column: "id"}
	b := ColumnRef{Table: CastInfo, Column: "movie_id"}
	i1, ok1 := s.JoinID(a, b)
	i2, ok2 := s.JoinID(b, a)
	if !ok1 || !ok2 || i1 != i2 {
		t.Errorf("JoinID not order independent: (%d,%v) vs (%d,%v)", i1, ok1, i2, ok2)
	}
	if _, ok := s.JoinID(a, ColumnRef{Table: MovieInfo, Column: "info_val"}); ok {
		t.Error("JoinID should reject non-edges")
	}
}

func TestJoinableSets(t *testing.T) {
	s := IMDB()
	sets := s.JoinableSets(6)
	// 6 singletons + all subsets of the 5 satellites combined with title:
	// 2^5 - 1 = 31 multi-table sets. Total 37.
	if got, want := len(sets), 37; got != want {
		t.Fatalf("JoinableSets = %d sets, want %d", got, want)
	}
	for _, set := range sets {
		if len(set) > 1 {
			found := false
			for _, tb := range set {
				if tb == Title {
					found = true
				}
			}
			if !found {
				t.Errorf("multi-table set %v lacks title (disconnected)", set)
			}
		}
		if !sortedUnique(set) {
			t.Errorf("set %v not sorted/unique", set)
		}
	}
	// maxTables caps set size.
	for _, set := range s.JoinableSets(2) {
		if len(set) > 2 {
			t.Errorf("JoinableSets(2) returned %v", set)
		}
	}
}

func TestSpanningJoins(t *testing.T) {
	s := IMDB()
	edges, ok := s.SpanningJoins([]string{Title, CastInfo, MovieKeyword})
	if !ok {
		t.Fatal("expected connected set")
	}
	if len(edges) != 2 {
		t.Fatalf("spanning edges = %d, want 2", len(edges))
	}
	if _, ok := s.SpanningJoins([]string{CastInfo, MovieKeyword}); ok {
		t.Error("satellite-only set should be disconnected")
	}
	if edges, ok := s.SpanningJoins([]string{CastInfo}); !ok || len(edges) != 0 {
		t.Error("singleton should be trivially connected with no edges")
	}
	if _, ok := s.SpanningJoins([]string{"nope"}); ok {
		t.Error("unknown table should not be connected")
	}
}

func TestEdgeKeyCanonical(t *testing.T) {
	a := ColumnRef{Table: "b", Column: "x"}
	b := ColumnRef{Table: "a", Column: "y"}
	if EdgeKey(a, b) != EdgeKey(b, a) {
		t.Error("EdgeKey not symmetric")
	}
	if !strings.Contains(EdgeKey(a, b), "=") {
		t.Error("EdgeKey missing separator")
	}
}

func TestNewPanicsOnMalformedSchema(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate table")
		}
	}()
	New([]TableDef{{Name: "t"}, {Name: "t"}}, nil)
}

func TestNewPanicsOnUnknownJoinColumn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unknown join column")
		}
	}()
	New(
		[]TableDef{{Name: "t", Columns: []Column{{Table: "t", Name: "id", Key: true}}}},
		[]JoinEdge{{Left: ColumnRef{"t", "id"}, Right: ColumnRef{"u", "tid"}}},
	)
}

func sortedUnique(xs []string) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] >= xs[i] {
			return false
		}
	}
	return true
}

func TestJoinableSetsDeterministic(t *testing.T) {
	s := IMDB()
	a := s.JoinableSets(6)
	b := s.JoinableSets(6)
	if !reflect.DeepEqual(a, b) {
		t.Error("JoinableSets not deterministic")
	}
}

// prefixSchema is a hand-built schema whose table and column names share
// prefixes ("t" / "t_x" / "t0" / "tx", "id" / "id_x" / "i"), so qualified-name
// order differs from catalog order and is decided by '.', '_', digits and
// letters meeting at the same byte position.
func prefixSchema() *Schema {
	col := func(t, n string) Column { return Column{Table: t, Name: n} }
	tables := []TableDef{
		{Name: "tx", Columns: []Column{col("tx", "id"), col("tx", "i"), col("tx", "id_x")}},
		{Name: "t", Columns: []Column{col("t", "x_id"), col("t", "id"), col("t", "x")}},
		{Name: "t_x", Columns: []Column{col("t_x", "id"), col("t_x", "t_id")}},
		{Name: "t0", Columns: []Column{col("t0", "id0"), col("t0", "id")}},
	}
	joins := []JoinEdge{
		{Left: ColumnRef{"tx", "id"}, Right: ColumnRef{"t", "id"}},
		{Left: ColumnRef{"t", "id"}, Right: ColumnRef{"t_x", "t_id"}},
		{Left: ColumnRef{"t0", "id"}, Right: ColumnRef{"t", "id"}},
		{Left: ColumnRef{"t0", "id0"}, Right: ColumnRef{"t_x", "id"}},
	}
	return New(tables, joins)
}

func TestHashIsFNV1a(t *testing.T) {
	for in, want := range map[string]uint64{
		"":       0xcbf29ce484222325,
		"a":      0xaf63dc4c8601ec8c,
		"foobar": 0x85944171f73967e8,
	} {
		if got := Hash(in); got != want {
			t.Errorf("Hash(%q) = %#x, want %#x", in, got, want)
		}
	}
}

// TestPrecomputedNamesRanksAndHashes pins what query.New relies on: for every
// table, column and join edge the precomputed name is the string the old code
// built, its hash is Hash of that string, and rank order is string order.
func TestPrecomputedNamesRanksAndHashes(t *testing.T) {
	for name, s := range map[string]*Schema{"imdb": IMDB(), "prefix": prefixSchema()} {
		t.Run(name, func(t *testing.T) {
			for i, a := range s.Tables {
				if got := s.TableAtRank(s.TableRank(i)); got != a.Name {
					t.Errorf("TableAtRank(TableRank(%q)) = %q", a.Name, got)
				}
				for j, b := range s.Tables {
					if (s.TableRank(i) < s.TableRank(j)) != (a.Name < b.Name) {
						t.Errorf("table rank order of %q, %q is not string order", a.Name, b.Name)
					}
				}
			}
			for id := 0; id < s.NumColumns(); id++ {
				c, ci := s.ColumnByID(id), s.ColumnInfo(id)
				if ci.Ref.String() != c.Qualified() || ci.Hash != Hash(c.Qualified()) {
					t.Errorf("column %d: info %+v does not describe %q", id, ci, c.Qualified())
				}
				if got := s.ColumnAtRank(ci.Rank); *got != *ci {
					t.Errorf("ColumnAtRank(%d) = %+v, want %+v", ci.Rank, got, ci)
				}
				if tid, _ := s.TableID(c.Table); ci.TableRank != s.TableRank(tid) {
					t.Errorf("column %v: table rank %d", ci.Ref, ci.TableRank)
				}
				for other := 0; other < s.NumColumns(); other++ {
					co := s.ColumnInfo(other)
					if (ci.Rank < co.Rank) != (ci.Ref.String() < co.Ref.String()) {
						t.Errorf("column rank order of %v, %v is not string order", ci.Ref, co.Ref)
					}
				}
			}
			for i, j := range s.Joins {
				ei := s.EdgeInfo(i)
				key := EdgeKey(j.Left, j.Right)
				if ei.Hash != Hash(key) || ei.Lo.String() > ei.Hi.String() || ei.Lo.String()+"="+ei.Hi.String() != key {
					t.Errorf("edge %d: info %+v does not describe %q", i, ei, key)
				}
				if got := s.EdgeAtRank(ei.Rank); *got != *ei {
					t.Errorf("EdgeAtRank(%d) = %+v, want %+v", ei.Rank, got, ei)
				}
				lo, _ := s.ColumnID(ei.Lo)
				hi, _ := s.ColumnID(ei.Hi)
				if want := uint64(1)<<s.ColumnInfo(lo).TableRank | 1<<s.ColumnInfo(hi).TableRank; ei.Tables != want {
					t.Errorf("edge %q: table mask %b, want %b", key, ei.Tables, want)
				}
				for k := range s.Joins {
					eo, other := s.EdgeInfo(k), EdgeKey(s.Joins[k].Left, s.Joins[k].Right)
					if (ei.Rank < eo.Rank) != (key < other) {
						t.Errorf("edge rank order of %q, %q is not string order", key, other)
					}
				}
			}
		})
	}
}

// TestFoldLookups pins the case-folding lookups to strings.ToLower + exact
// match for ASCII spellings, and to "not resolved" for anything else.
func TestFoldLookups(t *testing.T) {
	s := IMDB()
	for _, td := range s.Tables {
		for _, spell := range []string{td.Name, strings.ToUpper(td.Name), strings.ToUpper(td.Name[:1]) + td.Name[1:]} {
			if got, ok := s.FoldTable(spell); !ok || got != td.Name {
				t.Errorf("FoldTable(%q) = %q, %v", spell, got, ok)
			}
			for _, c := range td.Columns {
				want := ColumnRef{Table: td.Name, Column: c.Name}
				if got, ok := s.FoldColumn(spell, strings.ToUpper(c.Name)); !ok || got != want {
					t.Errorf("FoldColumn(%q, %q) = %v, %v", spell, strings.ToUpper(c.Name), got, ok)
				}
			}
		}
	}
	// U+0130 and U+212A are the two runes unicode.ToLower maps to ASCII (i, k).
	for _, bad := range []string{"", "titl", "titles", "tit\xeele", "t\u0130tle", "\u212aind_id"} {
		if got, ok := s.FoldTable(bad); ok {
			t.Errorf("FoldTable(%q) resolved to %q", bad, got)
		}
		if got, ok := s.FoldColumn("title", bad); ok {
			t.Errorf("FoldColumn(title, %q) resolved to %v", bad, got)
		}
	}
	if _, ok := s.FoldColumn("cast_info", "kind_id"); ok {
		t.Error("FoldColumn resolved a column of another table")
	}
	if n := testing.AllocsPerRun(100, func() {
		s.FoldTable("MOVIE_INFO_IDX")
		s.FoldColumn("Movie_Companies", "COMPANY_TYPE_ID")
		s.ColumnID(ColumnRef{Table: MovieKeyword, Column: "keyword_id"})
		s.JoinID(ColumnRef{Table: CastInfo, Column: "movie_id"}, ColumnRef{Table: Title, Column: "id"})
	}); n != 0 {
		t.Errorf("lookups allocate %v times", n)
	}
}

func TestNewPanicsOnDuplicateJoin(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate join edge")
		}
	}()
	s := IMDB()
	New(s.Tables, append(s.Joins[:1:1], JoinEdge{Left: s.Joins[0].Right, Right: s.Joins[0].Left}))
}
