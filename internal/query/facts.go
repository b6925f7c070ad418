package query

import "math"

// Predicate facts. Two queries over one FROM clause select rows of the same
// cartesian product, so their predicates alone can prove how their results
// relate: a query that applies every join and, per column, a value interval
// within another query's selects a subset of that query's rows, and two
// queries whose intervals on a shared column do not meet select disjoint
// rows. These facts fix a containment rate exactly (Q1 ⊂% Q2 =
// |Q1 ∩ Q2| / |Q1|, §2): 1 for an implication whenever Q1 is non-empty, 0
// for disjoint queries. They read only the canonical join lists and the
// signature's per-column ranges (Predicate.Interval, intersected), so a fact
// may be missed — one that follows from the data or from a join's column
// equality — but never invented. Ranges are merged by 64-bit column hash;
// the schema's columns must hash apart, which its tests pin.

// Relation is what the predicates prove about how two queries over one FROM
// clause relate, read from the first query's side (see Relate).
type Relation uint8

const (
	Undecided  Relation = iota // nothing proven
	Subset                     // every row a selects, b selects
	Superset                   // every row b selects, a selects
	Equivalent                 // Subset | Superset: a and b select the same rows
	Disjoint                   // a and b select no common row
)

func (r Relation) String() string {
	return [...]string{"undecided", "subset", "superset", "equivalent", "disjoint"}[r]
}

// Relate returns how a's rows relate to b's, from one merge over the two
// queries' ranges. a and b must share a FROM clause (see Comparable).
// Disjoint takes precedence: a contradictory query is disjoint from
// everything, whatever else its ranges pass. a is a Subset of b when it
// applies every join b applies and, on every column, pins an interval
// within b's; two queries are disjoint when their intervals on some column
// do not meet. A column only one side constrains is, on the other, the
// full range [MinInt64, MaxInt64].
func Relate(a, b Query) Relation {
	aInB, bInA := joinsCover(a.Joins, b.Joins), joinsCover(b.Joins, a.Joins)
	ra, rb := a.Signature().Ranges, b.Signature().Ranges
	all := ColRange{Lo: math.MinInt64, Hi: math.MaxInt64}
	for i, j := 0, 0; i < len(ra) || j < len(rb); {
		x, y := &all, &all
		switch {
		case j == len(rb) || i < len(ra) && ra[i].Col < rb[j].Col:
			x, i = &ra[i], i+1
		case i == len(ra) || rb[j].Col < ra[i].Col:
			y, j = &rb[j], j+1
		default:
			x, y, i, j = &ra[i], &rb[j], i+1, j+1
		}
		if !x.meet(y) {
			return Disjoint
		}
		aInB = aInB && x.within(y)
		bInA = bInA && y.within(x)
	}
	var rel Relation
	if aInB {
		rel |= Subset
	}
	if bInA {
		rel |= Superset
	}
	return rel
}

// Contradictory reports whether q's predicates contradict each other on
// some column (e.g. x = 1 AND x = 2): its result is provably empty.
func (q Query) Contradictory() bool {
	for _, r := range q.Signature().Ranges {
		if r.Lo > r.Hi {
			return true
		}
	}
	return false
}

// within reports whether r's interval lies inside o's; both are non-empty.
func (r *ColRange) within(o *ColRange) bool { return r.Lo >= o.Lo && r.Hi <= o.Hi }

// joinsCover reports whether every join of sub is one of super's. Join lists
// are short (a few edges), so a nested scan beats any index; a literal-built
// query may list a join uncanonicalized, so both orientations match.
func joinsCover(super, sub []Join) bool {
	if len(sub) > len(super) {
		return false
	}
outer:
	for _, j := range sub {
		for _, k := range super {
			if k == j || k.Left == j.Right && k.Right == j.Left {
				continue outer
			}
		}
		return false
	}
	return true
}
