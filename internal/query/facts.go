package query

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

// Implies reports whether every row a selects is provably a row b selects:
// a applies every join b applies and, on every column b constrains, pins an
// interval within b's. a and b must share a FROM clause (see Comparable).
func Implies(a, b Query) bool {
	in, _, _ := Facts(a, b)
	return in
}

// Disjoint reports whether a and b provably select no common row: one of
// them contradicts itself on some column, or their intervals on a column
// both constrain do not meet. a and b must share a FROM clause.
func Disjoint(a, b Query) bool {
	_, _, dis := Facts(a, b)
	return dis
}

// Contradictory reports whether q's predicates contradict each other on
// some column (e.g. x = 1 AND x = 2): its result is provably empty.
func (q Query) Contradictory() bool {
	for _, r := range q.ranges() {
		if r.Conflict {
			return true
		}
	}
	return false
}

// Facts returns Implies(a, b), Implies(b, a) and Disjoint(a, b) from one
// merge over the two queries' ranges. a and b must share a FROM clause.
func Facts(a, b Query) (aInB, bInA, disjoint bool) {
	aInB, bInA = joinsCover(a.Joins, b.Joins), joinsCover(b.Joins, a.Joins)
	ra, rb := a.ranges(), b.ranges()
	i, j := 0, 0
	for i < len(ra) || j < len(rb) {
		switch {
		case j == len(rb) || i < len(ra) && ra[i].Col < rb[j].Col:
			// Only a constrains this column: b's rows are not all a's.
			disjoint = disjoint || ra[i].Conflict
			bInA = false
			i++
		case i == len(ra) || rb[j].Col < ra[i].Col:
			disjoint = disjoint || rb[j].Conflict
			aInB = false
			j++
		default:
			x, y := &ra[i], &rb[j]
			disjoint = disjoint || x.Conflict || y.Conflict ||
				x.HasLo && y.HasHi && x.Lo > y.Hi || y.HasLo && x.HasHi && y.Lo > x.Hi
			aInB = aInB && x.within(y)
			bInA = bInA && y.within(x)
			i++
			j++
		}
	}
	return aInB, bInA, disjoint
}

// within reports whether r's interval lies inside o's. Either side may be a
// Conflict range: an empty r lies inside anything, and a non-empty r never
// passes both bound checks against an empty o.
func (r *ColRange) within(o *ColRange) bool {
	return (!o.HasLo || r.HasLo && r.Lo >= o.Lo) && (!o.HasHi || r.HasHi && r.Hi <= o.Hi)
}

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

// ranges returns q's per-column intervals, sorted by column hash: the cached
// signature's for queries built by New, computed for literal-built values.
func (q Query) ranges() []ColRange {
	if q.sig != nil {
		return q.sig.Ranges
	}
	return computeSignature(q).Ranges
}
