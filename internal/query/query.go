// Package query models the conjunctive SELECT * queries of the paper:
// a set of tables T (FROM clause), a set of equi-join clauses J, and a set of
// column predicates P with operators <, = and > (§3.2.1). It provides
// canonical keys (pairs of queries are only comparable when their SELECT and
// FROM clauses are identical, §2), the intersection query Q1∩Q2 used by the
// Crd2Cnt transformation (§4.1.1), and a SQL renderer.
//
// Predicate.Interval is the one rule that maps an operator to the values it
// admits: ground truth (the executor) and top-K ranking (Signature) both
// intersect it, so the two cannot disagree at the int64 edges.
package query

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"crn/internal/schema"
)

// Join is an equi-join clause (col1 = col2) from the WHERE clause.
type Join struct {
	Left, Right schema.ColumnRef
}

// Canonical returns the join with its sides in lexicographic order, so that
// equal joins compare equal regardless of how they were written.
func (j Join) Canonical() Join {
	if j.Left.String() > j.Right.String() {
		return Join{Left: j.Right, Right: j.Left}
	}
	return j
}

// String renders the clause as SQL.
func (j Join) String() string { return j.Left.String() + " = " + j.Right.String() }

// Predicate is a column predicate (col op val) from the WHERE clause.
type Predicate struct {
	Col schema.ColumnRef
	Op  string // schema.OpLT, schema.OpEQ or schema.OpGT
	Val int64
}

// String renders the predicate as SQL.
func (p Predicate) String() string {
	return p.Col.String() + " " + p.Op + " " + strconv.FormatInt(p.Val, 10)
}

// Matches reports whether value v satisfies the predicate.
func (p Predicate) Matches(v int64) bool {
	switch p.Op {
	case schema.OpLT:
		return v < p.Val
	case schema.OpEQ:
		return v == p.Val
	case schema.OpGT:
		return v > p.Val
	}
	return false
}

// Interval returns the closed interval [lo, hi] of values the predicate
// admits, saturated at MinInt64 and MaxInt64; it is empty (lo > hi) when
// nothing does. It is the one rule, beside Matches, that maps an operator to
// values: the executor's selections and the signature's per-column ranges
// both intersect it.
func (p Predicate) Interval() (lo, hi int64) {
	switch p.Op {
	case schema.OpLT:
		if p.Val != math.MinInt64 {
			return math.MinInt64, p.Val - 1
		}
	case schema.OpEQ:
		return p.Val, p.Val
	case schema.OpGT:
		if p.Val != math.MaxInt64 {
			return p.Val + 1, math.MaxInt64
		}
	}
	// Nothing lies below MinInt64 or above MaxInt64, and an unknown operator
	// matches nothing, as in Matches.
	return 1, 0
}

// Query is a conjunctive SELECT * query. The zero value is an empty query;
// construct real queries with New to get validation and canonical ordering.
type Query struct {
	Tables []string    // sorted table names (the FROM clause)
	Joins  []Join      // canonicalized, sorted join clauses
	Preds  []Predicate // sorted column predicates

	// key is the canonical SQL rendering and fromKey the canonical FROM key,
	// precomputed by New so the serving hot path (cache lookups, pool dedup,
	// per-selection FROM matching) never re-renders them; they share one
	// backing string. keyHash is key's hash (see KeyHash), precomputed with
	// them. Literal-built values leave all three empty and fall back to
	// rendering and hashing on demand.
	key     string
	fromKey string
	keyHash uint64

	// sig is the predicate signature, precomputed like key so the pool's
	// candidate selection never recomputes it per probe. Immutable once set;
	// Clone shares it. Literal-built values leave it nil and Signature()
	// computes on demand.
	sig *Signature
}

// New assembles a Query, canonicalizing table, join and predicate order and
// validating every reference against the schema: tables must exist and be
// distinct, join clauses must be distinct edges of the schema join graph, and
// predicates must name an existing column — key or not; the paper's generator
// draws from non-key columns only, but `title.id = 5` is a valid query — with
// one of the operators <, = and >. Joins and predicates may only touch tables
// present in the FROM clause.
//
// Canonical order is byte-wise string order of table names, of join
// schema.EdgeKeys and of (qualified column, operator, value). New gets it from
// the ranks the schema precomputed instead of building and comparing those
// strings, and the returned query's strings are the schema's own.
func New(s *schema.Schema, tables []string, joins []Join, preds []Predicate) (Query, error) {
	var q Query

	// FROM clause as a mask over table ranks: membership tests for the
	// clauses below, and ascending bit order is the canonical table order.
	var from uint64
	for _, t := range tables {
		id, ok := s.TableID(t)
		if !ok {
			return Query{}, tablesError(s, tables)
		}
		bit := uint64(1) << s.TableRank(id)
		if from&bit != 0 {
			return Query{}, tablesError(s, tables)
		}
		from |= bit
	}
	if len(tables) > 0 {
		q.Tables = make([]string, 0, len(tables))
		for m := from; m != 0; m &= m - 1 {
			q.Tables = append(q.Tables, s.TableAtRank(bits.TrailingZeros64(m)))
		}
	}

	// Joins likewise: a mask over edge ranks, duplicates noted on the way.
	var edges, dupEdges uint64
	for _, j := range joins {
		e, ok := s.JoinID(j.Left, j.Right)
		if !ok {
			return Query{}, fmt.Errorf("query: %v is not a join edge of the schema", j.Canonical())
		}
		ei := s.EdgeInfo(e)
		if from&ei.Tables != ei.Tables {
			return Query{}, fmt.Errorf("query: join %v references table outside FROM clause", Join{Left: ei.Lo, Right: ei.Hi})
		}
		bit := uint64(1) << ei.Rank
		dupEdges |= edges & bit
		edges |= bit
	}
	if dupEdges != 0 {
		ei := s.EdgeAtRank(bits.TrailingZeros64(dupEdges))
		return Query{}, fmt.Errorf("query: duplicate join %v", Join{Left: ei.Lo, Right: ei.Hi})
	}
	var sig Signature
	q.Joins = make([]Join, 0, len(joins))
	for m := edges; m != 0; m &= m - 1 {
		ei := s.EdgeAtRank(bits.TrailingZeros64(m))
		q.Joins = append(q.Joins, Join{Left: ei.Lo, Right: ei.Hi})
		sig.addJoin(ei.Hash)
	}

	// Predicates: an insertion sort of (column rank, operator ordinal, value)
	// — the operator ordinals are in the operators' string order — over small
	// keys on the stack, the predicates themselves written once, in order.
	// P is a set (§3.2.1): conjunction is idempotent, so exact duplicates
	// collapse (they would otherwise double-weight the vector in the mean
	// pooling of the set encoders).
	type predKey struct {
		key uint32 // column rank<<2 | operator ordinal
		src uint32 // index into preds, for the value
	}
	var ordBuf [16]predKey
	ord := ordBuf[:0]
	for src, p := range preds {
		id, ok := s.ColumnID(p.Col)
		if !ok {
			return Query{}, fmt.Errorf("query: unknown column %v", p.Col)
		}
		ci := s.ColumnInfo(id)
		if from&(1<<ci.TableRank) == 0 {
			return Query{}, fmt.Errorf("query: predicate on %v references table outside FROM clause", p.Col)
		}
		op, ok := s.OperatorID(p.Op)
		if !ok {
			return Query{}, fmt.Errorf("query: unsupported operator %q", p.Op)
		}
		k := uint32(ci.Rank)<<2 | uint32(op)
		i := len(ord)
		for i > 0 && (ord[i-1].key > k || ord[i-1].key == k && preds[ord[i-1].src].Val > p.Val) {
			i--
		}
		if i > 0 && ord[i-1].key == k && preds[ord[i-1].src].Val == p.Val {
			continue
		}
		ord = append(ord, predKey{})
		copy(ord[i+1:], ord[i:])
		ord[i] = predKey{key: k, src: uint32(src)}
	}
	if len(ord) > 0 {
		// Same-column predicates are adjacent, so the distinct columns — the
		// signature's ranges — can be counted and allocated exactly.
		distinct := 1
		for i := 1; i < len(ord); i++ {
			if ord[i].key>>2 != ord[i-1].key>>2 {
				distinct++
			}
		}
		sig.Ranges = make([]ColRange, 0, distinct)
		q.Preds = make([]Predicate, len(ord))
		for i, o := range ord {
			ci := s.ColumnAtRank(int(o.key >> 2))
			q.Preds[i] = Predicate{Col: ci.Ref, Op: operators[o.key&3], Val: preds[o.src].Val}
			sig.addPred(ci.Hash, q.Preds[i])
		}
	}
	sortRanges(sig.Ranges)
	q.sig = &sig
	q.renderKeys()
	return q, nil
}

// operators maps a schema operator ordinal back to its (constant) string, so
// a canonical predicate never pins the text it was parsed from.
var operators = [schema.NumOperators]string{schema.OpLT, schema.OpEQ, schema.OpGT}

// tablesError reports what is wrong with a FROM list New rejected: the first
// duplicate, else the first unknown table, in sorted order.
func tablesError(s *schema.Schema, tables []string) error {
	sorted := append([]string(nil), tables...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return fmt.Errorf("query: duplicate table %q", sorted[i])
		}
	}
	for _, t := range sorted {
		if _, ok := s.TableID(t); !ok {
			return fmt.Errorf("query: unknown table %q", t)
		}
	}
	panic("query: tablesError called on a valid FROM list")
}

// finish precomputes the canonical keys and the signature of a query whose
// clauses are already in canonical order.
func (q *Query) finish() {
	q.renderKeys()
	sig := computeSignature(*q)
	q.sig = &sig
}

func sortPreds(preds []Predicate) {
	sort.Slice(preds, func(a, b int) bool {
		pa, pb := preds[a], preds[b]
		if pa.Col.String() != pb.Col.String() {
			return pa.Col.String() < pb.Col.String()
		}
		if pa.Op != pb.Op {
			return pa.Op < pb.Op
		}
		return pa.Val < pb.Val
	})
}

func joinKey(j Join) string { return schema.EdgeKey(j.Left, j.Right) }

// NumJoins returns the number of join clauses (the paper counts a query's
// "number of joins" this way).
func (q Query) NumJoins() int { return len(q.Joins) }

// FROMKey returns the canonical key of the FROM clause. Two queries are
// containment-comparable exactly when their FROMKeys are equal (§2). It also
// serves as the hash key of the queries pool (§5.2).
func (q Query) FROMKey() string {
	if q.fromKey != "" {
		return q.fromKey
	}
	return strings.Join(q.Tables, ",")
}

// Key returns a canonical string uniquely identifying the whole query; used
// for deduplication and label caching.
func (q Query) Key() string { return q.SQL() }

// keySeed seeds KeyHash. One process-wide seed: every hash of one key agrees
// within a process, which is all its users (the live-accuracy ring) need.
var keySeed = maphash.MakeSeed()

// KeyHash returns a 64-bit hash of Key, stable within a process: precomputed
// for queries built by New or Intersect, so a per-request consumer keyed by
// the query does not hash its canonical text again.
func (q Query) KeyHash() uint64 {
	if q.key != "" {
		return q.keyHash
	}
	return maphash.String(keySeed, q.render())
}

// SQL returns the query as a SQL string in canonical order (precomputed for
// queries built by New or Intersect).
func (q Query) SQL() string {
	if q.key != "" {
		return q.key
	}
	return q.render()
}

// render builds the canonical SQL string.
func (q Query) render() string {
	var buf [256]byte
	return string(q.appendSQL(buf[:0]))
}

// renderKeys renders the canonical SQL and the FROM key into one string and
// pins both, with the SQL's hash.
func (q *Query) renderKeys() {
	var buf [512]byte
	b := q.appendSQL(buf[:0])
	n := len(b)
	for i, t := range q.Tables {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, t...)
	}
	both := string(b)
	q.key, q.fromKey = both[:n], both[n:]
	q.keyHash = maphash.String(keySeed, q.key)
}

func (q Query) appendSQL(b []byte) []byte {
	b = append(b, "SELECT * FROM "...)
	for i, t := range q.Tables {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, t...)
	}
	b = append(b, " WHERE "...)
	if len(q.Joins) == 0 && len(q.Preds) == 0 {
		return append(b, "TRUE"...)
	}
	for i, j := range q.Joins {
		if i > 0 {
			b = append(b, " AND "...)
		}
		b = appendColumn(b, j.Left)
		b = append(b, " = "...)
		b = appendColumn(b, j.Right)
	}
	for i, p := range q.Preds {
		if i > 0 || len(q.Joins) > 0 {
			b = append(b, " AND "...)
		}
		b = appendColumn(b, p.Col)
		b = append(b, ' ')
		b = append(b, p.Op...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, p.Val, 10)
	}
	return b
}

func appendColumn(b []byte, c schema.ColumnRef) []byte {
	b = append(b, c.Table...)
	b = append(b, '.')
	return append(b, c.Column...)
}

// String implements fmt.Stringer.
func (q Query) String() string { return q.SQL() }

// Comparable reports whether the two queries have identical SELECT and FROM
// clauses, the precondition for a containment rate to be defined (§2).
func (q Query) Comparable(other Query) bool { return q.FROMKey() == other.FROMKey() }

// Intersect returns the intersection query Q1∩Q2 of the Crd2Cnt
// transformation (§4.1.1): identical SELECT and FROM clauses, WHERE clause
// the conjunction of both queries' WHERE clauses. It fails if the FROM
// clauses differ.
func (q Query) Intersect(other Query) (Query, error) {
	if !q.Comparable(other) {
		return Query{}, fmt.Errorf("query: intersection requires identical FROM clauses (%q vs %q)", q.FROMKey(), other.FROMKey())
	}
	out := Query{Tables: append([]string(nil), q.Tables...)}
	seenJ := make(map[Join]bool)
	for _, j := range append(append([]Join(nil), q.Joins...), other.Joins...) {
		c := j.Canonical()
		if !seenJ[c] {
			seenJ[c] = true
			out.Joins = append(out.Joins, c)
		}
	}
	sort.Slice(out.Joins, func(a, b int) bool { return joinKey(out.Joins[a]) < joinKey(out.Joins[b]) })
	seenP := make(map[Predicate]bool)
	for _, p := range append(append([]Predicate(nil), q.Preds...), other.Preds...) {
		if !seenP[p] {
			seenP[p] = true
			out.Preds = append(out.Preds, p)
		}
	}
	sortPreds(out.Preds)
	out.finish()
	return out, nil
}

// PredsOn returns the predicates restricted to one table.
func (q Query) PredsOn(table string) []Predicate {
	var out []Predicate
	for _, p := range q.Preds {
		if p.Col.Table == table {
			out = append(out, p)
		}
	}
	return out
}

// Clone returns a deep copy of the query; mutating the copy's slices leaves
// the original untouched.
func (q Query) Clone() Query {
	return Query{
		Tables:  append([]string(nil), q.Tables...),
		Joins:   append([]Join(nil), q.Joins...),
		Preds:   append([]Predicate(nil), q.Preds...),
		key:     q.key,
		fromKey: q.fromKey,
		keyHash: q.keyHash,
		sig:     q.sig,
	}
}

// Equal reports structural equality of two canonical queries.
func (q Query) Equal(other Query) bool { return q.Key() == other.Key() }

// WithPredicate returns a copy of the query with one extra predicate,
// keeping canonical predicate order.
func (q Query) WithPredicate(p Predicate) Query {
	out := q.Clone()
	out.Preds = append(out.Preds, p)
	sortPreds(out.Preds)
	out.finish()
	return out
}

// Component is one connected piece of a query's join graph. Queries whose
// FROM clause is join-disconnected evaluate to the cartesian product of
// their components.
type Component struct {
	Tables []string
	Joins  []Join
}

// Components partitions the query's tables into connected components under
// its join clauses, in deterministic (first-table) order.
func (q Query) Components() []Component {
	parent := make(map[string]string, len(q.Tables))
	for _, t := range q.Tables {
		parent[t] = t
	}
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, j := range q.Joins {
		a, b := find(j.Left.Table), find(j.Right.Table)
		if a != b {
			parent[a] = b
		}
	}
	byRoot := make(map[string]*Component)
	var order []string
	for _, t := range q.Tables {
		r := find(t)
		if byRoot[r] == nil {
			byRoot[r] = &Component{}
			order = append(order, r)
		}
		byRoot[r].Tables = append(byRoot[r].Tables, t)
	}
	for _, j := range q.Joins {
		r := find(j.Left.Table)
		byRoot[r].Joins = append(byRoot[r].Joins, j)
	}
	out := make([]Component, 0, len(order))
	for _, r := range order {
		out = append(out, *byRoot[r])
	}
	return out
}
