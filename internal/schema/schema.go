// Package schema defines the IMDb-like relational schema used throughout the
// repository: table and column catalogs, primary/foreign-key join edges, and
// the featurization dimensions (#T, #C, #O) derived from them.
//
// The schema mirrors the six-table subset of IMDb used by the MSCN paper
// (Kipf et al., CIDR 2019) and by the containment-rate paper: the fact table
// `title` plus five satellite tables that each reference `title.id` through a
// `movie_id` foreign key. All join edges therefore form a star centered on
// `title`, which bounds the number of joins in a query at five — exactly the
// range exercised by the paper's workloads.
//
// New also precomputes everything the SQL front end needs to canonicalise a
// query without building strings: per table, column and join edge the interned
// name, the rank of that name in byte-wise string order (sorting by rank is
// sorting by name) and its FNV-1a hash, plus allocation-free lookups — exact
// (TableID, ColumnID, JoinID) and ASCII-case-folding (FoldTable, FoldColumn).
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Table names of the IMDb-like schema.
const (
	Title        = "title"
	MovieCompany = "movie_companies"
	CastInfo     = "cast_info"
	MovieInfo    = "movie_info"
	MovieInfoIdx = "movie_info_idx"
	MovieKeyword = "movie_keyword"
)

// Column describes a single column of a table.
type Column struct {
	Table string // owning table name
	Name  string // column name, unique within the table
	// Key reports whether the column participates in a join (primary or
	// foreign key). The paper's generator draws value predicates from
	// non-key columns only; query.New accepts them on any column.
	Key bool
}

// Qualified returns the table-qualified column name, e.g. "title.id".
func (c Column) Qualified() string { return c.Table + "." + c.Name }

// JoinEdge is an equi-join edge of the schema join graph. Left is always the
// primary-key side and Right the foreign-key side.
type JoinEdge struct {
	Left  ColumnRef // PK side, e.g. title.id
	Right ColumnRef // FK side, e.g. movie_companies.movie_id
}

// ColumnRef identifies a column by table and column name.
type ColumnRef struct {
	Table  string
	Column string
}

// String returns the qualified "table.column" form.
func (r ColumnRef) String() string { return r.Table + "." + r.Column }

// TableDef describes one table: its columns in catalog order.
type TableDef struct {
	Name    string
	Columns []Column
}

// NonKeyColumns returns the predicate-eligible columns of the table.
func (t TableDef) NonKeyColumns() []Column {
	var out []Column
	for _, c := range t.Columns {
		if !c.Key {
			out = append(out, c)
		}
	}
	return out
}

// Schema is the full catalog: tables, their columns and the join graph.
// A Schema is immutable after construction; all lookup structures are
// precomputed.
type Schema struct {
	Tables []TableDef
	Joins  []JoinEdge

	tables    []tableInfo    // parallel to Tables
	tableAt   []int          // table rank -> position in Tables
	columns   []Column       // flat catalog in global ordinal order
	colInfo   []ColumnInfo   // parallel to columns
	colAt     []int          // column rank -> global ordinal
	edgeIndex map[[2]int]int // (lower, higher column ordinal) -> position in Joins
	edgeInfo  []EdgeInfo     // parallel to Joins
	edgeAt    []int          // edge rank -> position in Joins
	adjacency map[string][]JoinEdge
}

// MaxTables and MaxJoins bound a schema so that a query's FROM clause and join
// set each fit one 64-bit mask over ranks (query.New canonicalises with them).
const (
	MaxTables = 64
	MaxJoins  = 64
)

type tableInfo struct {
	rank     int // position of the name among all table names in string order
	firstCol int // global ordinal of Columns[0]
}

// ColumnInfo is the precomputed canonical data of one catalog column.
type ColumnInfo struct {
	Ref       ColumnRef // the schema's own (interned) name strings
	Hash      uint64    // Hash(Ref.String())
	Rank      int       // position of Ref.String() among all qualified column names in string order
	TableRank int       // rank of the owning table
}

// EdgeInfo is the precomputed canonical data of one join edge.
type EdgeInfo struct {
	Lo, Hi ColumnRef // the two sides with Lo.String() <= Hi.String()
	Hash   uint64    // Hash(EdgeKey(Lo, Hi))
	Rank   int       // position of EdgeKey(Lo, Hi) among all edge keys in string order
	Tables uint64    // the rank bits (1 << TableRank) of the two tables joined
}

// Operators supported in column predicates, in featurization order.
// The paper fixes #O = 3 with operators <, = and >.
const (
	OpLT = "<"
	OpEQ = "="
	OpGT = ">"
)

// Operators lists the predicate operators in their one-hot encoding order.
func Operators() []string { return []string{OpLT, OpEQ, OpGT} }

// NumOperators is #O from the paper's featurization (Table 1).
const NumOperators = 3

// IMDB constructs the six-table IMDb-like schema used by the paper's
// evaluation. The result is a fresh immutable value; callers may share it
// freely across goroutines.
func IMDB() *Schema {
	tables := []TableDef{
		{Name: Title, Columns: []Column{
			{Table: Title, Name: "id", Key: true},
			{Table: Title, Name: "kind_id"},
			{Table: Title, Name: "production_year"},
			{Table: Title, Name: "season_nr"},
			{Table: Title, Name: "episode_nr"},
		}},
		{Name: MovieCompany, Columns: []Column{
			{Table: MovieCompany, Name: "movie_id", Key: true},
			{Table: MovieCompany, Name: "company_id"},
			{Table: MovieCompany, Name: "company_type_id"},
		}},
		{Name: CastInfo, Columns: []Column{
			{Table: CastInfo, Name: "movie_id", Key: true},
			{Table: CastInfo, Name: "person_id"},
			{Table: CastInfo, Name: "role_id"},
			{Table: CastInfo, Name: "nr_order"},
		}},
		{Name: MovieInfo, Columns: []Column{
			{Table: MovieInfo, Name: "movie_id", Key: true},
			{Table: MovieInfo, Name: "info_type_id"},
			{Table: MovieInfo, Name: "info_val"},
		}},
		{Name: MovieInfoIdx, Columns: []Column{
			{Table: MovieInfoIdx, Name: "movie_id", Key: true},
			{Table: MovieInfoIdx, Name: "info_type_id"},
			{Table: MovieInfoIdx, Name: "info_val"},
		}},
		{Name: MovieKeyword, Columns: []Column{
			{Table: MovieKeyword, Name: "movie_id", Key: true},
			{Table: MovieKeyword, Name: "keyword_id"},
		}},
	}
	pk := ColumnRef{Table: Title, Column: "id"}
	joins := []JoinEdge{
		{Left: pk, Right: ColumnRef{Table: MovieCompany, Column: "movie_id"}},
		{Left: pk, Right: ColumnRef{Table: CastInfo, Column: "movie_id"}},
		{Left: pk, Right: ColumnRef{Table: MovieInfo, Column: "movie_id"}},
		{Left: pk, Right: ColumnRef{Table: MovieInfoIdx, Column: "movie_id"}},
		{Left: pk, Right: ColumnRef{Table: MovieKeyword, Column: "movie_id"}},
	}
	return New(tables, joins)
}

// New builds a Schema from table definitions and join edges, precomputing all
// lookup structures. It panics on duplicate tables/columns/joins, joins that
// reference unknown columns, or more than MaxTables tables / MaxJoins joins,
// since a malformed schema is a programming error.
func New(tables []TableDef, joins []JoinEdge) *Schema {
	if len(tables) > MaxTables || len(joins) > MaxJoins {
		panic(fmt.Sprintf("schema: %d tables / %d joins exceed the supported %d / %d",
			len(tables), len(joins), MaxTables, MaxJoins))
	}
	s := &Schema{
		Tables:    tables,
		Joins:     joins,
		tables:    make([]tableInfo, len(tables)),
		edgeIndex: make(map[[2]int]int, len(joins)),
		edgeInfo:  make([]EdgeInfo, len(joins)),
		adjacency: make(map[string][]JoinEdge),
	}
	for i, t := range tables {
		for _, prev := range tables[:i] {
			if prev.Name == t.Name {
				panic(fmt.Sprintf("schema: duplicate table %q", t.Name))
			}
		}
		s.tables[i].firstCol = len(s.columns)
		for k, c := range t.Columns {
			if c.Table != t.Name {
				panic(fmt.Sprintf("schema: column %q listed under table %q", c.Qualified(), t.Name))
			}
			for _, prev := range t.Columns[:k] {
				if prev.Name == c.Name {
					panic(fmt.Sprintf("schema: duplicate column %q", c.Qualified()))
				}
			}
			s.columns = append(s.columns, c)
			s.colInfo = append(s.colInfo, ColumnInfo{
				Ref:  ColumnRef{Table: t.Name, Column: c.Name},
				Hash: Hash(c.Qualified()),
			})
		}
	}
	s.tableAt = rankBy(len(tables), func(i int) string { return tables[i].Name })
	for rank, i := range s.tableAt {
		s.tables[i].rank = rank
	}
	s.colAt = rankBy(len(s.columns), func(i int) string { return s.columns[i].Qualified() })
	for rank, i := range s.colAt {
		s.colInfo[i].Rank = rank
		ti, _ := s.TableID(s.columns[i].Table)
		s.colInfo[i].TableRank = s.tables[ti].rank
	}
	for i, j := range joins {
		for _, ref := range []ColumnRef{j.Left, j.Right} {
			if !s.HasColumn(ref) {
				panic(fmt.Sprintf("schema: join references unknown column %q", ref))
			}
		}
		a, _ := s.ColumnID(j.Left)
		b, _ := s.ColumnID(j.Right)
		pair := edgePair(a, b)
		if _, dup := s.edgeIndex[pair]; dup {
			panic(fmt.Sprintf("schema: duplicate join %q", EdgeKey(j.Left, j.Right)))
		}
		s.edgeIndex[pair] = i
		lo, hi := s.colInfo[a], s.colInfo[b]
		if lo.Rank > hi.Rank {
			lo, hi = hi, lo
		}
		s.edgeInfo[i] = EdgeInfo{Lo: lo.Ref, Hi: hi.Ref, Hash: Hash(EdgeKey(lo.Ref, hi.Ref)),
			Tables: 1<<lo.TableRank | 1<<hi.TableRank}
		s.adjacency[j.Left.Table] = append(s.adjacency[j.Left.Table], j)
		s.adjacency[j.Right.Table] = append(s.adjacency[j.Right.Table], j)
	}
	s.edgeAt = rankBy(len(joins), func(i int) string { return EdgeKey(joins[i].Left, joins[i].Right) })
	for rank, i := range s.edgeAt {
		s.edgeInfo[i].Rank = rank
	}
	return s
}

// rankBy returns the indices 0..n-1 ordered by name(i) in byte-wise string
// order: element r is the index holding rank r.
func rankBy(n int, name func(int) string) []int {
	at := make([]int, n)
	for i := range at {
		at[i] = i
	}
	sort.Slice(at, func(a, b int) bool { return name(at[a]) < name(at[b]) })
	return at
}

// Hash is 64-bit FNV-1a, the identity hash of column and edge names in query
// signatures; ColumnInfo.Hash and EdgeInfo.Hash hold it precomputed.
func Hash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

func edgePair(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// EdgeKey returns the canonical key of an equi-join between two columns,
// independent of argument order.
func EdgeKey(a, b ColumnRef) string {
	x, y := a.String(), b.String()
	if x > y {
		x, y = y, x
	}
	return x + "=" + y
}

// NumTables is #T from the featurization.
func (s *Schema) NumTables() int { return len(s.Tables) }

// NumColumns is #C from the featurization: all catalog columns.
func (s *Schema) NumColumns() int { return len(s.columns) }

// NumJoins returns the number of join edges in the schema join graph.
func (s *Schema) NumJoins() int { return len(s.Joins) }

// TableID returns the one-hot ordinal of the named table. A scan: with at
// most MaxTables names, mostly of different lengths, it beats hashing.
func (s *Schema) TableID(name string) (int, bool) {
	for i := range s.Tables {
		if s.Tables[i].Name == name {
			return i, true
		}
	}
	return 0, false
}

// Table returns the definition of the named table.
func (s *Schema) Table(name string) (TableDef, bool) {
	i, ok := s.TableID(name)
	if !ok {
		return TableDef{}, false
	}
	return s.Tables[i], true
}

// ColumnID returns the global one-hot ordinal of the referenced column.
func (s *Schema) ColumnID(ref ColumnRef) (int, bool) {
	ti, ok := s.TableID(ref.Table)
	if !ok {
		return 0, false
	}
	for k := range s.Tables[ti].Columns {
		if s.Tables[ti].Columns[k].Name == ref.Column {
			return s.tables[ti].firstCol + k, true
		}
	}
	return 0, false
}

// ColumnByID returns the column with the given global ordinal.
func (s *Schema) ColumnByID(id int) Column { return s.columns[id] }

// HasColumn reports whether the referenced column exists.
func (s *Schema) HasColumn(ref ColumnRef) bool {
	_, ok := s.ColumnID(ref)
	return ok
}

// JoinID returns the ordinal of the join edge between the two columns,
// independent of argument order.
func (s *Schema) JoinID(a, b ColumnRef) (int, bool) {
	ia, okA := s.ColumnID(a)
	ib, okB := s.ColumnID(b)
	if !okA || !okB {
		return 0, false
	}
	i, ok := s.edgeIndex[edgePair(ia, ib)]
	return i, ok
}

// TableRank returns the position of table id's name among all table names in
// string order; TableAtRank is its inverse.
func (s *Schema) TableRank(id int) int { return s.tables[id].rank }

// TableAtRank returns the (interned) name of the table holding the rank.
func (s *Schema) TableAtRank(rank int) string { return s.Tables[s.tableAt[rank]].Name }

// ColumnInfo returns the precomputed canonical data of the column with the
// given global ordinal. Like the three accessors below it points into the
// schema's immutable catalog: read, do not write.
func (s *Schema) ColumnInfo(id int) *ColumnInfo { return &s.colInfo[id] }

// ColumnAtRank returns the column holding the rank.
func (s *Schema) ColumnAtRank(rank int) *ColumnInfo { return &s.colInfo[s.colAt[rank]] }

// EdgeInfo returns the precomputed canonical data of the join edge with the
// given ordinal.
func (s *Schema) EdgeInfo(id int) *EdgeInfo { return &s.edgeInfo[id] }

// EdgeAtRank returns the join edge holding the rank.
func (s *Schema) EdgeAtRank(rank int) *EdgeInfo { return &s.edgeInfo[s.edgeAt[rank]] }

// FoldTable resolves a table identifier as SQL text spells it — ASCII letters
// in any case — to the schema's own name string, without allocating. ok
// implies strings.ToLower(ident) equals that name, and the converse holds
// for ASCII identifiers; one with a byte >= 0x80 is never resolved here, so a
// caller that must match such names lowers it and uses the exact lookups.
func (s *Schema) FoldTable(ident string) (string, bool) {
	if i := s.foldTable(ident); i >= 0 {
		return s.Tables[i].Name, true
	}
	return "", false
}

// FoldColumn is FoldTable for a table-qualified column reference.
func (s *Schema) FoldColumn(table, column string) (ColumnRef, bool) {
	if i := s.foldTable(table); i >= 0 {
		for k := range s.Tables[i].Columns {
			if foldEq(column, s.Tables[i].Columns[k].Name) {
				return s.colInfo[s.tables[i].firstCol+k].Ref, true
			}
		}
	}
	return ColumnRef{}, false
}

func (s *Schema) foldTable(ident string) int {
	for i := range s.Tables {
		if foldEq(ident, s.Tables[i].Name) {
			return i
		}
	}
	return -1
}

// foldEq reports whether ident, with ASCII upper-case letters lowered, equals
// name byte for byte. An ident with a byte >= 0x80 never matches: Unicode
// lowering may change it in ways a byte loop cannot follow.
func foldEq(ident, name string) bool {
	if len(ident) != len(name) {
		return false
	}
	for i := 0; i < len(ident); i++ {
		c := ident[i]
		if c >= 0x80 {
			return false
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

// OperatorID returns the one-hot ordinal of a predicate operator.
func (s *Schema) OperatorID(op string) (int, bool) {
	switch op {
	case OpLT:
		return 0, true
	case OpEQ:
		return 1, true
	case OpGT:
		return 2, true
	}
	return 0, false
}

// JoinableSets enumerates every FROM-clause table set that forms a connected
// subgraph of the join graph, up to maxTables tables. Each set is returned as
// a sorted slice of table names. Singletons are always connected. The result
// is deterministic (lexicographically sorted).
func (s *Schema) JoinableSets(maxTables int) [][]string {
	names := make([]string, len(s.Tables))
	for i, t := range s.Tables {
		names[i] = t.Name
	}
	var out [][]string
	n := len(names)
	for mask := 1; mask < 1<<n; mask++ {
		var set []string
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				set = append(set, names[i])
			}
		}
		if len(set) > maxTables {
			continue
		}
		if s.connected(set) {
			sorted := append([]string(nil), set...)
			sort.Strings(sorted)
			out = append(out, sorted)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return strings.Join(out[i], ",") < strings.Join(out[j], ",")
	})
	return out
}

// SpanningJoins returns, for a connected table set, the join edges linking
// the set (a spanning tree of the induced subgraph). The second result is
// false if the set is not connected in the join graph.
func (s *Schema) SpanningJoins(tables []string) ([]JoinEdge, bool) {
	in := make(map[string]bool, len(tables))
	for _, t := range tables {
		if _, ok := s.TableID(t); !ok {
			return nil, false
		}
		in[t] = true
	}
	if len(tables) <= 1 {
		return nil, true
	}
	visited := map[string]bool{tables[0]: true}
	var edges []JoinEdge
	frontier := []string{tables[0]}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, e := range s.adjacency[cur] {
			other := e.Left.Table
			if other == cur {
				other = e.Right.Table
			}
			if !in[other] || visited[other] {
				continue
			}
			visited[other] = true
			edges = append(edges, e)
			frontier = append(frontier, other)
		}
	}
	if len(visited) != len(tables) {
		return nil, false
	}
	sort.Slice(edges, func(i, j int) bool {
		return EdgeKey(edges[i].Left, edges[i].Right) < EdgeKey(edges[j].Left, edges[j].Right)
	})
	return edges, true
}

func (s *Schema) connected(tables []string) bool {
	_, ok := s.SpanningJoins(tables)
	return ok
}
