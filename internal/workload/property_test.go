package workload

import (
	"math/rand"
	"testing"

	"crn/internal/exec"
	"crn/internal/query"
)

// Every query and variant the generator produces must pass query.New's
// validation (tables exist, joins are schema edges inside the FROM clause,
// predicates on non-key columns of FROM tables).
func TestGeneratedQueriesAlwaysValid(t *testing.T) {
	d := testDB(t)
	g := NewGenerator(s, d, 77)
	for i := 0; i < 300; i++ {
		q, err := g.InitialQuery(i % 6)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := query.New(s, q.Tables, q.Joins, q.Preds); err != nil {
			t.Fatalf("invalid initial query %s: %v", q, err)
		}
		v := g.Variant(q)
		if _, err := query.New(s, v.Tables, v.Joins, v.Preds); err != nil {
			t.Fatalf("invalid variant %s: %v", v, err)
		}
	}
}

// Scale-generator queries must be valid too, and must stay executable.
func TestScaleGeneratorQueriesExecutable(t *testing.T) {
	d := testDB(t)
	g := NewScaleGenerator(s, d, 78)
	ex, err := exec.New(d)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := g.Queries(map[int]int{2: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if _, err := ex.Cardinality(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

// Containment labels must be consistent with cardinality labels:
// rate(Q1,Q2)·|Q1| = |Q1∩Q2| exactly (both come from the same executor).
func TestLabelConsistency(t *testing.T) {
	d := testDB(t)
	g := NewGenerator(s, d, 79)
	ex, err := exec.New(d)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := g.Pairs(map[int]int{1: 40})
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := LabelPairs(ex, pairs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, lp := range labeled {
		c1, err := ex.Cardinality(lp.Q1)
		if err != nil {
			t.Fatal(err)
		}
		qi, err := lp.Q1.Intersect(lp.Q2)
		if err != nil {
			t.Fatal(err)
		}
		ci, err := ex.Cardinality(qi)
		if err != nil {
			t.Fatal(err)
		}
		got := lp.Rate * float64(c1)
		if diff := got - float64(ci); diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("label inconsistent: rate %v · |Q1|=%d != |Q1∩Q2|=%d", lp.Rate, c1, ci)
		}
	}
}

// The pool generator's first-per-clause empty queries guarantee that any
// generated probe finds at least one match with y_rate = 1 — the §5.2
// "always a usable old query" property.
func TestPoolAlwaysHasSupersetAnchor(t *testing.T) {
	d := testDB(t)
	g := NewGenerator(s, d, 80)
	qs, err := g.PoolQueries(60)
	if err != nil {
		t.Fatal(err)
	}
	anchors := make(map[string]query.Query)
	for _, q := range qs {
		if len(q.Preds) == 0 {
			anchors[q.FROMKey()] = q
		}
	}
	probeGen := NewGenerator(s, d, rand.Int63n(1000)+81)
	for joins := 0; joins <= 5; joins++ {
		probe, err := probeGen.InitialQuery(joins)
		if err != nil {
			t.Fatal(err)
		}
		anchor, ok := anchors[probe.FROMKey()]
		if !ok {
			t.Fatalf("no anchor for FROM %q", probe.FROMKey())
		}
		// The anchor has no predicates, so probe ⊆ anchor by construction:
		// probe ∩ anchor == probe.
		qi, err := probe.Intersect(anchor)
		if err != nil {
			t.Fatal(err)
		}
		if !qi.Equal(probe) {
			t.Fatalf("anchor is not a superset: %s vs %s", qi, probe)
		}
	}
}
