package exec

import (
	"math/rand"
	"testing"

	"crn/internal/db"
	"crn/internal/query"
)

// checkFacts holds query.Facts on a and b, which share a FROM clause, to the
// executor and returns them: an implication x ⇒ y gives |x ∩ y| = |x| — so
// y_rate x ⊂% y = 1 whenever x is non-empty — and a disjoint pair an empty
// intersection. Implies and Disjoint must agree with Facts, Disjoint in both
// argument orders.
func checkFacts(t testing.TB, e *Executor, a, b query.Query) (aInB, bInA, disjoint bool) {
	t.Helper()
	aInB, bInA, disjoint = query.Facts(a, b)
	if aInB != query.Implies(a, b) || bInA != query.Implies(b, a) ||
		disjoint != query.Disjoint(a, b) || disjoint != query.Disjoint(b, a) {
		t.Fatalf("%s vs %s: Facts disagrees with Implies/Disjoint", a, b)
	}
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
	case disjoint && inter != 0:
		t.Fatalf("Disjoint(%s, %s), but they share %d rows", a, b, inter)
	case aInB && inter != ca:
		t.Fatalf("Implies(%s, %s), but |a ∩ b| = %d of |a| = %d", a, b, inter, ca)
	case bInA && inter != cb:
		t.Fatalf("Implies(%s, %s), but |a ∩ b| = %d of |b| = %d", b, a, inter, cb)
	}
	if a.Contradictory() && ca != 0 {
		t.Fatalf("%s is contradictory, but selects %d rows", a, ca)
	}
	return aInB, bInA, disjoint
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
// disjointness query.Facts proves holds on the data (see checkFacts), over
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
				aInB, bInA, disjoint := checkFacts(t, e, a, b)
				switch {
				case disjoint:
					dis++
				case aInB && bInA:
					both++
				case aInB || bInA:
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
