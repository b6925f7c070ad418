package exec

import (
	"math/rand"
	"testing"

	"crn/internal/db"
	"crn/internal/query"
)

// mirror is the relation of b to a given that of a to b.
func mirror(r query.Relation) query.Relation {
	switch r {
	case query.Subset:
		return query.Superset
	case query.Superset:
		return query.Subset
	}
	return r
}

// checkFacts holds query.Relate on a and b, which share a FROM clause, to
// the executor and returns it: a subset x of y gives |x ∩ y| = |x| — so
// y_rate x ⊂% y = 1 whenever x is non-empty — and a disjoint pair an empty
// intersection. Relate(b, a) must be Relate(a, b) seen from b's side.
func checkFacts(t testing.TB, e *Executor, a, b query.Query) query.Relation {
	t.Helper()
	rel := query.Relate(a, b)
	if back := query.Relate(b, a); back != mirror(rel) {
		t.Fatalf("Relate(%s, %s) = %v, but Relate back = %v", a, b, rel, back)
	}
	aInB := rel == query.Subset || rel == query.Equivalent
	bInA := rel == query.Superset || rel == query.Equivalent
	ab, err := a.Intersect(b)
	if err != nil {
		t.Fatal(err)
	}
	count := func(q query.Query) int64 {
		c, err := e.Cardinality(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return c
	}
	inter, ca, cb := count(ab), count(a), count(b)
	switch {
	case rel == query.Disjoint && inter != 0:
		t.Fatalf("%s and %s are disjoint, but they share %d rows", a, b, inter)
	case aInB && inter != ca:
		t.Fatalf("%s is a subset of %s, but |a ∩ b| = %d of |a| = %d", a, b, inter, ca)
	case bInA && inter != cb:
		t.Fatalf("%s is a subset of %s, but |a ∩ b| = %d of |b| = %d", b, a, inter, cb)
	}
	if a.Contradictory() && ca != 0 {
		t.Fatalf("%s is contradictory, but selects %d rows", a, ca)
	}
	return rel
}

// genPair draws a query with genQuery and a partner over its FROM clause: a
// subset of its joins, each of its predicates kept, moved by a few values or
// dropped, and sometimes fresh ones — so the pair is often implied one way
// or both, often disjoint, and often neither. The two are returned in random
// order.
func genPair(t testing.TB, rng *rand.Rand, d *db.Database, cartesian bool) (a, b query.Query) {
	t.Helper()
	a = genQuery(t, rng, d, cartesian)
	var joins []query.Join
	for _, j := range a.Joins {
		if rng.Intn(4) > 0 {
			joins = append(joins, j)
		}
	}
	var preds []query.Predicate
	for _, p := range a.Preds {
		switch rng.Intn(3) {
		case 0:
			preds = append(preds, p)
		case 1:
			if p.Val > -1<<62 && p.Val < 1<<62 {
				p.Val += int64(rng.Intn(5) - 2)
			}
			preds = append(preds, p)
		}
	}
	if rng.Intn(3) == 0 {
		preds = append(preds, genPreds(rng, d, a.Tables)...)
	}
	b, err := query.New(imdb, a.Tables, joins, preds)
	if err != nil {
		t.Fatal(err)
	}
	if rng.Intn(2) == 0 {
		a, b = b, a
	}
	return a, b
}

// TestFactsAgreeWithExecutor is the property behind the estimator's use of
// predicate facts: on random pairs over one FROM clause — 0–5 joins,
// boundary literals, cartesian FROM clauses — every implication and every
// disjointness query.Relate proves holds on the data (see checkFacts), over
// generated data and over edgeDB. The draw must reach each fact often.
func TestFactsAgreeWithExecutor(t *testing.T) {
	for _, fx := range []struct {
		name string
		d    *db.Database
		n    int
	}{{"tiny", tinyDB(t), 400}, {"edge", edgeDB(t), 800}} {
		t.Run(fx.name, func(t *testing.T) {
			e := newExec(t, fx.d)
			rng := rand.New(rand.NewSource(41))
			var in, both, dis int
			for i := 0; i < fx.n; i++ {
				a, b := genPair(t, rng, fx.d, fx.name == "edge" && i%4 == 0)
				switch checkFacts(t, e, a, b) {
				case query.Disjoint:
					dis++
				case query.Equivalent:
					both++
				case query.Subset, query.Superset:
					in++
				}
			}
			t.Logf("%d pairs: %d implied one way, %d both ways, %d disjoint", fx.n, in, both, dis)
			if in < fx.n/10 || both < fx.n/50 || dis < fx.n/50 {
				t.Errorf("uninformative draw: %d implied one way, %d both ways, %d disjoint of %d", in, both, dis, fx.n)
			}
		})
	}
}
