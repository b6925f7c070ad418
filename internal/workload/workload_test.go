package workload

import (
	"testing"

	"crn/internal/datagen"
	"crn/internal/db"
	"crn/internal/exec"
	"crn/internal/query"
	"crn/internal/schema"
)

var s = schema.IMDB()

func testDB(t *testing.T) *db.Database {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.Titles = 150
	d, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestInitialQueryJoinCounts(t *testing.T) {
	g := NewGenerator(s, testDB(t), 1)
	for joins := 0; joins <= 5; joins++ {
		q, err := g.InitialQuery(joins)
		if err != nil {
			t.Fatal(err)
		}
		if q.NumJoins() != joins {
			t.Errorf("joins = %d, want %d (query %s)", q.NumJoins(), joins, q)
		}
		if joins > 0 && q.Tables[len(q.Tables)-1] != schema.Title && q.Tables[0] != schema.Title {
			found := false
			for _, tb := range q.Tables {
				if tb == schema.Title {
					found = true
				}
			}
			if !found {
				t.Errorf("join query lacks title: %v", q.Tables)
			}
		}
	}
	if _, err := g.InitialQuery(6); err == nil {
		t.Error("too many joins should fail")
	}
	if _, err := g.InitialQuery(-1); err == nil {
		t.Error("negative joins should fail")
	}
}

func TestInitialQueryPredicatesAreNonKey(t *testing.T) {
	g := NewGenerator(s, testDB(t), 2)
	for i := 0; i < 100; i++ {
		q, err := g.InitialQuery(i % 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range q.Preds {
			td, _ := s.Table(p.Col.Table)
			for _, c := range td.Columns {
				if c.Name == p.Col.Column && c.Key {
					t.Fatalf("predicate on key column %v", p.Col)
				}
			}
		}
	}
}

func TestVariantPreservesFROM(t *testing.T) {
	g := NewGenerator(s, testDB(t), 3)
	for i := 0; i < 50; i++ {
		q, err := g.InitialQuery(i % 3)
		if err != nil {
			t.Fatal(err)
		}
		v := g.Variant(q)
		if !q.Comparable(v) {
			t.Fatalf("variant changed FROM: %q -> %q", q.FROMKey(), v.FROMKey())
		}
	}
}

func TestVariantsDiffer(t *testing.T) {
	g := NewGenerator(s, testDB(t), 4)
	q, err := g.InitialQuery(1)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for i := 0; i < 20; i++ {
		if !g.Variant(q).Equal(q) {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("20 variants all identical to the original")
	}
}

func TestPairsUniqueAndComparable(t *testing.T) {
	g := NewGenerator(s, testDB(t), 5)
	pairs, err := g.Pairs(map[int]int{1: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 60 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	seen := make(map[string]bool)
	for _, p := range pairs {
		if !p.Q1.Comparable(p.Q2) {
			t.Fatalf("pair not comparable: %s | %s", p.Q1, p.Q2)
		}
		if p.Q1.NumJoins() != 1 {
			t.Fatalf("wrong join count: %s", p.Q1)
		}
		key := p.Q1.Key() + "|" + p.Q2.Key()
		if seen[key] {
			t.Fatal("duplicate pair")
		}
		seen[key] = true
	}
}

func TestPairsJoinHistogram(t *testing.T) {
	g := NewGenerator(s, testDB(t), 6)
	dist := map[int]int{0: 10, 1: 8, 2: 6}
	pairs, err := g.Pairs(dist)
	if err != nil {
		t.Fatal(err)
	}
	hist := PairJoinHistogram(pairs)
	for j, n := range dist {
		if hist[j] != n {
			t.Errorf("join %d: %d pairs, want %d", j, hist[j], n)
		}
	}
}

func TestQueriesJoinHistogram(t *testing.T) {
	g := NewGenerator(s, testDB(t), 7)
	dist := map[int]int{0: 12, 2: 5, 4: 3}
	qs, err := g.Queries(dist)
	if err != nil {
		t.Fatal(err)
	}
	hist := JoinHistogram(qs)
	for j, n := range dist {
		if hist[j] != n {
			t.Errorf("join %d: %d queries, want %d", j, hist[j], n)
		}
	}
	// Uniqueness.
	seen := make(map[string]bool)
	for _, q := range qs {
		if seen[q.Key()] {
			t.Fatal("duplicate query")
		}
		seen[q.Key()] = true
	}
}

func TestDistHelpers(t *testing.T) {
	if d := CntTest1Dist(1200); d[0] != 400 || d[1] != 400 || d[2] != 400 {
		t.Errorf("CntTest1Dist = %v", d)
	}
	if d := CntTest2Dist(1200); d[5] != 200 {
		t.Errorf("CntTest2Dist = %v", d)
	}
	if d := CrdTest1Dist(450); d[0] != 150 {
		t.Errorf("CrdTest1Dist = %v", d)
	}
	if d := CrdTest2Dist(450); d[3] != 75 {
		t.Errorf("CrdTest2Dist = %v", d)
	}
	d := ScaleDist(500)
	if d[0] != 115 || d[1] != 115 || d[2] != 107 || d[3] != 88 || d[4] != 75 || d[5] != 0 {
		t.Errorf("ScaleDist(500) = %v", d)
	}
	total := 0
	for _, n := range ScaleDist(100) {
		total += n
	}
	if total != 100 {
		t.Errorf("ScaleDist(100) sums to %d", total)
	}
}

func TestPoolQueries(t *testing.T) {
	g := NewGenerator(s, testDB(t), 8)
	qs, err := g.PoolQueries(80)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 80 {
		t.Fatalf("pool queries = %d", len(qs))
	}
	// All 37 joinable FROM clauses covered, each with an empty-predicate
	// query first.
	froms := make(map[string]bool)
	emptyPreds := make(map[string]bool)
	for _, q := range qs {
		froms[q.FROMKey()] = true
		if len(q.Preds) == 0 {
			emptyPreds[q.FROMKey()] = true
		}
	}
	if len(froms) != 37 {
		t.Errorf("FROM coverage = %d, want 37", len(froms))
	}
	for f := range froms {
		if !emptyPreds[f] {
			t.Errorf("FROM %q has no empty-predicate query", f)
		}
	}
}

func TestLabelPairsMatchesExecutor(t *testing.T) {
	d := testDB(t)
	g := NewGenerator(s, d, 9)
	ex, err := exec.New(d)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := g.Pairs(map[int]int{1: 20})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := LabelPairs(ex, pairs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := LabelPairs(ex, pairs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Rate != parallel[i].Rate {
			t.Fatalf("parallel labeling differs at %d", i)
		}
		if serial[i].Rate < 0 || serial[i].Rate > 1 {
			t.Fatalf("rate out of range: %v", serial[i].Rate)
		}
	}
}

func TestLabelQueries(t *testing.T) {
	d := testDB(t)
	g := NewGenerator(s, d, 10)
	ex, err := exec.New(d)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := g.Queries(map[int]int{0: 15})
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := LabelQueries(ex, qs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, lq := range labeled {
		want, _ := ex.Cardinality(lq.Q)
		if lq.Card != want {
			t.Fatalf("label %d != executor %d", lq.Card, want)
		}
	}
}

// countingOracle counts the cardinality executions per query key.
type countingOracle struct {
	*exec.Executor
	calls map[string]int
}

func (o countingOracle) Cardinality(q query.Query) (int64, error) {
	o.calls[q.Key()]++
	return o.Executor.Cardinality(q)
}

// TestNonEmptyPoolQueriesLabels: the pool comes labeled by the executions its
// rejection sampling made, one per distinct query, and no label needs a
// second pass.
func TestNonEmptyPoolQueriesLabels(t *testing.T) {
	d := testDB(t)
	ex, err := exec.New(d)
	if err != nil {
		t.Fatal(err)
	}
	o := countingOracle{Executor: ex, calls: make(map[string]int)}
	labeled, err := NewGenerator(s, d, 11).NonEmptyPoolQueries(o, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(labeled) != 120 {
		t.Fatalf("got %d pool queries, want 120", len(labeled))
	}
	for _, lq := range labeled {
		if o.calls[lq.Q.Key()] != 1 {
			t.Fatalf("%s executed %d times, want once", lq.Q, o.calls[lq.Q.Key()])
		}
		want, _ := ex.Cardinality(lq.Q)
		if lq.Card != want {
			t.Fatalf("%s: label %d != executor %d", lq.Q, lq.Card, want)
		}
		if lq.Card == 0 && len(lq.Q.Preds) > 0 {
			t.Fatalf("%s: empty result kept", lq.Q)
		}
	}
	for key, n := range o.calls {
		if n != 1 {
			t.Fatalf("%s executed %d times", key, n)
		}
	}
}

func TestSplitPairs(t *testing.T) {
	all := make([]LabeledPair, 10)
	train, val := SplitPairs(all, 0.8)
	if len(train) != 8 || len(val) != 2 {
		t.Errorf("split = %d/%d", len(train), len(val))
	}
	train, val = SplitPairs(all, 1.5)
	if len(train) != 10 || len(val) != 0 {
		t.Errorf("overflow split = %d/%d", len(train), len(val))
	}
	train, val = SplitPairs(all, -1)
	if len(train) != 0 || len(val) != 10 {
		t.Errorf("negative split = %d/%d", len(train), len(val))
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	d := testDB(t)
	g1 := NewGenerator(s, d, 42)
	g2 := NewGenerator(s, d, 42)
	p1, err := g1.Pairs(map[int]int{1: 10})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := g2.Pairs(map[int]int{1: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if p1[i].Q1.Key() != p2[i].Q1.Key() || p1[i].Q2.Key() != p2[i].Q2.Key() {
			t.Fatal("same seed produced different pairs")
		}
	}
	g3 := NewGenerator(s, d, 43)
	p3, err := g3.Pairs(map[int]int{1: 10})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range p1 {
		if p1[i].Q1.Key() != p3[i].Q1.Key() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical pairs")
	}
}

// TestNonEmptyQueries: every drawn query is non-empty, has the wanted join
// count and comes labeled with the cardinality its rejection test
// computed, executed once per distinct drawn query and never again.
func TestNonEmptyQueries(t *testing.T) {
	d := testDB(t)
	ex, err := exec.New(d)
	if err != nil {
		t.Fatal(err)
	}
	o := countingOracle{Executor: ex, calls: make(map[string]int)}
	dist := map[int]int{0: 12, 2: 12, 3: 5, 4: 12}
	lqs, err := NewGenerator(s, d, 21).NonEmptyQueries(o, dist)
	if err != nil {
		t.Fatal(err)
	}
	hist := make(map[int]int)
	for _, lq := range lqs {
		hist[lq.Q.NumJoins()]++
		if o.calls[lq.Q.Key()] != 1 {
			t.Fatalf("%s executed %d times, want once", lq.Q, o.calls[lq.Q.Key()])
		}
		want, err := ex.Cardinality(lq.Q)
		if err != nil {
			t.Fatal(err)
		}
		if lq.Card != want || want == 0 {
			t.Fatalf("%s: label %d, executor %d", lq.Q, lq.Card, want)
		}
	}
	for j, n := range dist {
		if hist[j] != n {
			t.Errorf("join %d: %d queries, want %d", j, hist[j], n)
		}
	}
	for key, n := range o.calls {
		if n != 1 {
			t.Fatalf("%s executed %d times", key, n)
		}
	}
}

func TestScaleGeneratorDiffers(t *testing.T) {
	d := testDB(t)
	g := NewScaleGenerator(s, d, 1)
	qs, err := g.Queries(map[int]int{1: 40})
	if err != nil {
		t.Fatal(err)
	}
	// The scale generator is range-heavy: most predicates should be < or >.
	var rangeOps, eqOps int
	for _, q := range qs {
		for _, p := range q.Preds {
			if p.Op == schema.OpEQ {
				eqOps++
			} else {
				rangeOps++
			}
		}
	}
	if rangeOps <= eqOps {
		t.Errorf("scale generator should be range-heavy: %d range vs %d eq", rangeOps, eqOps)
	}
}

func TestHardPairsHaveVariedRates(t *testing.T) {
	d := testDB(t)
	g := NewGenerator(s, d, 11)
	ex, err := exec.New(d)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := g.Pairs(map[int]int{0: 40, 1: 30, 2: 20})
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := LabelPairs(ex, pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The step-2 construction must produce rate diversity: zeros/partial/full.
	var lo, mid, hi int
	for _, lp := range labeled {
		switch {
		case lp.Rate < 0.05:
			lo++
		case lp.Rate > 0.95:
			hi++
		default:
			mid++
		}
	}
	if lo == 0 || mid == 0 || hi == 0 {
		t.Errorf("containment rates not varied: lo=%d mid=%d hi=%d", lo, mid, hi)
	}
}
