// Package exec evaluates conjunctive queries over the column store exactly,
// producing the ground-truth cardinalities and containment rates that label
// the training and test sets (§3.1.2: "we execute the dataset queries ... to
// obtain their true containment rates").
//
// Evaluation strategy: per-table selections first, then a bottom-up weight
// propagation over the query's join tree. Under bag semantics the result rows
// of a SELECT * join query are identified by tuples of base-table row ids, so
// the result cardinality is
//
//	Σ over selected root rows Π over child subtrees weight(join code)
//
// where weight counts, per join code, the subtree row combinations carrying
// it. Queries whose FROM clauses contain join-disconnected tables are
// cartesian products of their connected components.
//
// Both halves run on the two indexes db.Database.Freeze builds, and look
// columns up by schema ordinal:
//
//   - Selection. A table's predicates merge into one closed value interval per
//     column, the intersection of their query.Predicate.Interval — the rule
//     the top-K signature's ranges are built on too. The narrowest interval
//     on a column with a sorted row permutation drives: binary search finds
//     its rows as one slice of the permutation (`<` a prefix, `>` a suffix,
//     `=` a run), and the other intervals filter only that slice. A table
//     whose selection is empty makes the count 0 before any join work.
//   - Join. Every join-edge column carries a dense int32 code per row from one
//     dictionary over all join-key values, so a subtree's weights are an
//     []int64 over the code domain indexed by code, not a hash map.
//
// Memory: the permutations cost 4 bytes per row of every non-key column and
// the codes 4 bytes per row of every join-edge column — half the int64
// columns they index, built once per frozen database. An evaluation borrows
// its row buffers and domain-sized weight arrays from a pool.
//
// Counts are exact int64 sums of products. Selections come out in value
// order, not row order, and neither that order nor the code assignment can
// change a sum of integers: a count is independent of row order.
package exec

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"crn/internal/db"
	"crn/internal/query"
	"crn/internal/schema"
)

// Executor computes exact cardinalities and containment rates over one
// frozen database. It memoizes cardinalities by canonical query key and is
// safe for concurrent use.
type Executor struct {
	db   *db.Database
	rows []int   // row count by schema table ordinal
	all  []int32 // 0, 1, 2, …: a table with no driving predicate selects a prefix
	// scratch holds *scratch values: the working memory of one evaluation.
	scratch sync.Pool

	mu    sync.RWMutex
	cache map[string]int64
}

// New creates an Executor over a frozen database.
func New(d *db.Database) (*Executor, error) {
	if !d.Frozen() {
		return nil, fmt.Errorf("exec: database must be frozen")
	}
	e := &Executor{
		db:      d,
		rows:    make([]int, len(d.Schema.Tables)),
		scratch: sync.Pool{New: func() any { return new(scratch) }},
		cache:   make(map[string]int64),
	}
	longest := 0
	for i, td := range d.Schema.Tables {
		e.rows[i] = d.NumRows(td.Name)
		longest = max(longest, e.rows[i])
	}
	e.all = make([]int32, longest)
	for i := range e.all {
		e.all[i] = int32(i)
	}
	return e, nil
}

// CacheSize returns the number of memoized cardinalities.
func (e *Executor) CacheSize() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.cache)
}

// Cardinality returns the exact result cardinality of q.
func (e *Executor) Cardinality(q query.Query) (int64, error) {
	return e.CardinalityCtx(context.Background(), q)
}

// CardinalityCtx is Cardinality with cancellation: the evaluation checks ctx
// between per-table selections and join-tree passes, so long-running exact
// executions abort promptly once the caller cancels or the deadline passes.
func (e *Executor) CardinalityCtx(ctx context.Context, q query.Query) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	key := q.Key()
	e.mu.RLock()
	if c, ok := e.cache[key]; ok {
		e.mu.RUnlock()
		return c, nil
	}
	e.mu.RUnlock()
	c, err := e.compute(ctx, q)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	// Bound the memoization cache: a long-lived serving process feeds the
	// executor arbitrary client queries, and an unbounded map would grow
	// for the life of the process. A full reset keeps the common case
	// (a bounded working set of repeated queries) fast and the worst case
	// merely a recomputation.
	if len(e.cache) > maxCachedCardinalities {
		e.cache = make(map[string]int64)
	}
	e.cache[key] = c
	e.mu.Unlock()
	return c, nil
}

// maxCachedCardinalities bounds the executor's memoization map (~64k
// entries; keys are canonical SQL, so on the order of a few MiB).
const maxCachedCardinalities = 1 << 16

// ContainmentRate returns Q1 ⊂% Q2 on the database as a fraction in [0,1]:
// |Q1∩Q2| / |Q1|, and 0 when Q1's result is empty (§2). The queries must
// have identical FROM clauses.
func (e *Executor) ContainmentRate(q1, q2 query.Query) (float64, error) {
	return e.ContainmentRateCtx(context.Background(), q1, q2)
}

// ContainmentRateCtx is ContainmentRate with cancellation.
func (e *Executor) ContainmentRateCtx(ctx context.Context, q1, q2 query.Query) (float64, error) {
	c1, err := e.CardinalityCtx(ctx, q1)
	if err != nil {
		return 0, err
	}
	if c1 == 0 {
		return 0, nil
	}
	qi, err := q1.Intersect(q2)
	if err != nil {
		return 0, err
	}
	ci, err := e.CardinalityCtx(ctx, qi)
	if err != nil {
		return 0, err
	}
	return float64(ci) / float64(c1), nil
}

// SelectivityOn computes the fraction of rows of `table` passing the
// query's predicates on that table; used by sampling-based featurizations
// (MSCN's sample bitmaps evaluate exactly this on a sample). A predicate is
// resolved by its column name within `table`.
func (e *Executor) SelectivityOn(table string, preds []query.Predicate) (float64, error) {
	id, ok := e.db.Schema.TableID(table)
	if !ok {
		return 0, fmt.Errorf("exec: unknown table %q", table)
	}
	sc := e.scratch.Get().(*scratch)
	defer e.scratch.Put(sc)
	sc.reset(1)
	t := &sc.tables[0]
	t.id = id
	for _, p := range preds {
		if err := e.addCond(t, schema.ColumnRef{Table: table, Column: p.Col.Column}, p); err != nil {
			return 0, err
		}
	}
	n := e.rows[id]
	if n == 0 {
		return 0, nil
	}
	return float64(len(e.selectRows(t))) / float64(n), nil
}

// scratch is the reusable working memory of one evaluation.
type scratch struct {
	tables []tableSel // one per FROM position
	joins  []joinRef
	kids   []child   // stack of evaluated subtrees, see children
	free   [][]int64 // all-zero weight arrays of the join domain
}

// tableSel is one FROM-clause table of the query being evaluated.
type tableSel struct {
	id    int     // schema table ordinal
	conds []cond  // merged predicate intervals, one per column
	rows  []int32 // the selection: a view of an index, or of buf
	buf   []int32
	comp  int // union-find parent over FROM positions
}

// cond is the conjunction of a table's predicates on one column: lo ≤ v ≤ hi.
type cond struct {
	id     int // schema column ordinal
	col    []db.Value
	sorted []int32
	lo, hi db.Value
}

// joinRef is one join clause between FROM positions a and b.
type joinRef struct {
	a, b           int
	codesA, codesB []int32
}

// child is an evaluated subtree below a node.
type child struct {
	codes []int32 // the node's join codes on the edge to the child
	w     []int64 // the subtree's row combinations by join code
	rows  []int32 // the child's selection and
	link  []int32 // its join codes on the edge: what w was written at
}

func (sc *scratch) reset(n int) {
	if cap(sc.tables) < n {
		sc.tables = append(sc.tables[:cap(sc.tables)], make([]tableSel, n-cap(sc.tables))...)
	}
	sc.tables = sc.tables[:n]
	for i := range sc.tables {
		t := &sc.tables[i]
		t.conds, t.rows, t.comp = t.conds[:0], nil, i
	}
	sc.joins = sc.joins[:0]
	// A failed evaluation may leave subtrees on the stack; their weight arrays
	// are dropped, never returned to free.
	clear(sc.kids)
	sc.kids = sc.kids[:0]
}

func (sc *scratch) find(i int) int {
	for sc.tables[i].comp != i {
		i = sc.tables[i].comp
	}
	return i
}

func (sc *scratch) takeWeights(domain int) []int64 {
	if k := len(sc.free); k > 0 {
		w := sc.free[k-1]
		sc.free = sc.free[:k-1]
		return w
	}
	return make([]int64, domain)
}

// release zeroes the weight arrays of the subtrees above base on the stack,
// returns them to free and pops the subtrees.
func (sc *scratch) release(base int) {
	for _, k := range sc.kids[base:] {
		// Rewriting the entries the child wrote beats clearing the whole
		// array only while the child selected few rows.
		if len(k.rows) < len(k.w)/8 {
			for _, r := range k.rows {
				k.w[k.link[r]] = 0
			}
		} else {
			clear(k.w)
		}
		sc.free = append(sc.free, k.w)
	}
	clear(sc.kids[base:])
	sc.kids = sc.kids[:base]
}

// compute evaluates the query from scratch.
func (e *Executor) compute(ctx context.Context, q query.Query) (int64, error) {
	if len(q.Tables) == 0 {
		return 0, fmt.Errorf("exec: query has no tables")
	}
	sc := e.scratch.Get().(*scratch)
	defer e.scratch.Put(sc)
	if err := e.plan(q, sc); err != nil {
		return 0, err
	}
	for i := range sc.tables {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		t := &sc.tables[i]
		if t.rows = e.selectRows(t); len(t.rows) == 0 {
			return 0, nil
		}
	}
	total := int64(1)
	for i := range sc.tables {
		if sc.find(i) != i {
			continue
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		c, err := e.component(ctx, sc, i)
		if err != nil {
			return 0, err
		}
		total *= c
		if total == 0 {
			return 0, nil
		}
	}
	return total, nil
}

// plan resolves the query's tables, predicates and joins into sc, rejecting
// unknown names and join graphs that are not forests.
func (e *Executor) plan(q query.Query, sc *scratch) error {
	sc.reset(len(q.Tables))
	var seen uint64
	for i, name := range q.Tables {
		id, ok := e.db.Schema.TableID(name)
		if !ok {
			return fmt.Errorf("exec: unknown table %q", name)
		}
		if seen&(1<<id) != 0 {
			return fmt.Errorf("exec: duplicate table %q", name)
		}
		seen |= 1 << id
		sc.tables[i].id = id
	}
	for _, p := range q.Preds {
		// Predicates on tables outside the FROM clause constrain nothing.
		if i := position(q.Tables, p.Col.Table); i >= 0 {
			if err := e.addCond(&sc.tables[i], p.Col, p); err != nil {
				return err
			}
		}
	}
	for _, j := range q.Joins {
		a, b := position(q.Tables, j.Left.Table), position(q.Tables, j.Right.Table)
		if a < 0 || b < 0 {
			return fmt.Errorf("exec: join %v references a table outside the FROM clause", j)
		}
		codesA, err := e.joinCodes(j.Left)
		if err != nil {
			return err
		}
		codesB, err := e.joinCodes(j.Right)
		if err != nil {
			return err
		}
		ra, rb := sc.find(a), sc.find(b)
		if ra == rb {
			return fmt.Errorf("exec: cyclic join graph over %v not supported", q.Tables)
		}
		// Union under the lower position: a component's root is its first
		// table, where the evaluation starts.
		sc.tables[max(ra, rb)].comp = min(ra, rb)
		sc.joins = append(sc.joins, joinRef{a: a, b: b, codesA: codesA, codesB: codesB})
	}
	return nil
}

func position(tables []string, name string) int {
	for i, t := range tables {
		if t == name {
			return i
		}
	}
	return -1
}

func (e *Executor) joinCodes(ref schema.ColumnRef) ([]int32, error) {
	id, ok := e.db.Schema.ColumnID(ref)
	if !ok {
		return nil, fmt.Errorf("exec: unknown join column %v", ref)
	}
	codes := e.db.JoinCodes(id)
	if codes == nil {
		return nil, fmt.Errorf("exec: %v is in no schema join edge", ref)
	}
	return codes, nil
}

// addCond intersects predicate p's interval, on column ref, into t's
// conditions.
func (e *Executor) addCond(t *tableSel, ref schema.ColumnRef, p query.Predicate) error {
	id, ok := e.db.Schema.ColumnID(ref)
	if !ok {
		return fmt.Errorf("exec: unknown column %v", p.Col)
	}
	lo, hi := p.Interval()
	for i := range t.conds {
		if c := &t.conds[i]; c.id == id {
			c.lo, c.hi = max(c.lo, lo), min(c.hi, hi)
			return nil
		}
	}
	t.conds = append(t.conds, cond{id: id, col: e.db.ColumnByID(id), sorted: e.db.SortedRows(id), lo: lo, hi: hi})
	return nil
}

// selectRows returns the rows of t's table satisfying all its conditions.
func (e *Executor) selectRows(t *tableSel) []int32 {
	n := e.rows[t.id]
	drive, lead := e.all[:n], -1
	for i, c := range t.conds {
		if c.lo > c.hi {
			return nil
		}
		if c.sorted == nil {
			continue
		}
		lo := sort.Search(n, func(k int) bool { return c.col[c.sorted[k]] >= c.lo })
		hi := lo + sort.Search(n-lo, func(k int) bool { return c.col[c.sorted[lo+k]] > c.hi })
		if lead < 0 || hi-lo < len(drive) {
			drive, lead = c.sorted[lo:hi], i
		}
	}
	filters := t.conds
	if lead >= 0 {
		filters[0], filters[lead] = filters[lead], filters[0]
		filters = filters[1:]
	}
	if len(filters) == 0 || len(drive) == 0 {
		return drive
	}
	if cap(t.buf) < len(drive) {
		t.buf = make([]int32, 0, len(drive))
	}
	out := t.buf[:0]
rows:
	for _, r := range drive {
		for _, c := range filters {
			if v := c.col[r]; v < c.lo || v > c.hi {
				continue rows
			}
		}
		out = append(out, r)
	}
	t.buf = out
	return out
}

// component counts the row combinations of the join tree rooted at FROM
// position root.
func (e *Executor) component(ctx context.Context, sc *scratch, root int) (int64, error) {
	base := len(sc.kids)
	if err := e.children(ctx, sc, root, -1); err != nil {
		return 0, err
	}
	kids, rows := sc.kids[base:], sc.tables[root].rows
	total := int64(len(rows))
	if len(kids) > 0 {
		total = 0
		for _, r := range rows {
			total += product(kids, r)
		}
	}
	sc.release(base)
	return total, nil
}

// weights returns, for the subtree rooted at FROM position v and entered from
// position from, the number of its row combinations per join code of link
// (v's codes on the edge to from).
func (e *Executor) weights(ctx context.Context, sc *scratch, v, from int, link []int32) ([]int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	base := len(sc.kids)
	if err := e.children(ctx, sc, v, from); err != nil {
		return nil, err
	}
	kids, rows := sc.kids[base:], sc.tables[v].rows
	w := sc.takeWeights(e.db.JoinDomain())
	if len(kids) == 0 {
		for _, r := range rows {
			w[link[r]]++
		}
	} else {
		for _, r := range rows {
			if m := product(kids, r); m != 0 {
				w[link[r]] += m
			}
		}
	}
	sc.release(base)
	return w, nil
}

// children evaluates every subtree hanging off FROM position v, except the
// one toward from, and pushes it on sc.kids; the caller pops them with
// release.
func (e *Executor) children(ctx context.Context, sc *scratch, v, from int) error {
	for _, j := range sc.joins {
		u, mine, theirs := j.b, j.codesA, j.codesB
		switch v {
		case j.a:
		case j.b:
			u, mine, theirs = j.a, j.codesB, j.codesA
		default:
			continue
		}
		if u == from {
			continue
		}
		w, err := e.weights(ctx, sc, u, v, theirs)
		if err != nil {
			return err
		}
		sc.kids = append(sc.kids, child{codes: mine, w: w, rows: sc.tables[u].rows, link: theirs})
	}
	return nil
}

// product multiplies the children's weights at row r.
func product(kids []child, r int32) int64 {
	m := int64(1)
	for i := range kids {
		if m *= kids[i].w[kids[i].codes[r]]; m == 0 {
			break
		}
	}
	return m
}
