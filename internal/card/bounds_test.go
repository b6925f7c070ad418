package card

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"crn/internal/contain"
	"crn/internal/datagen"
	"crn/internal/exec"
	"crn/internal/pool"
	"crn/internal/query"
	"crn/internal/schema"
	"crn/internal/workload"
)

// randomRates answers every rate with a seeded draw from [0, 1], the ends
// included (0 sends a vote into the ε guard), and counts what it answered.
type randomRates struct {
	rng   *rand.Rand
	rates int
}

func (r *randomRates) EstimateRatesIndexed(_ context.Context, _ []query.Query, idx [][2]int) ([]float64, error) {
	out := make([]float64, len(idx))
	for i := range out {
		switch r.rng.Intn(8) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = 1
		default:
			out[i] = r.rng.Float64()
		}
	}
	r.rates += len(idx)
	return out, nil
}

// boundsEnv is a datagen database, its executor and a pool of generated
// non-empty queries labeled with their true cardinalities; anchors holds
// the pool's one predicate-free query per FROM clause.
type boundsEnv struct {
	ex      *exec.Executor
	gen     *workload.Generator
	pool    []workload.LabeledQuery
	anchors []workload.LabeledQuery
}

func newBoundsEnv(t testing.TB) *boundsEnv {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.Titles = 300
	d, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exec.New(d)
	if err != nil {
		t.Fatal(err)
	}
	env := &boundsEnv{ex: ex, gen: workload.NewGenerator(s, d, 53)}
	if env.pool, err = env.gen.NonEmptyPoolQueries(ex, 120); err != nil {
		t.Fatal(err)
	}
	for _, lq := range env.pool {
		if len(lq.Q.Preds) == 0 {
			env.anchors = append(env.anchors, lq)
		}
	}
	return env
}

func poolOf(lqs []workload.LabeledQuery) *pool.Pool {
	qp := pool.New()
	for _, lq := range lqs {
		qp.Add(lq.Q, lq.Card)
	}
	return qp
}

// boundsEstimator is an estimator over qp with a seeded random rate model
// and a fallback answering seeded draws from [0, 1e7], the last of which it
// leaves in *fell.
func boundsEstimator(qp *pool.Pool, seed int64, k int, fell *float64) (*Estimator, *randomRates) {
	rates := &randomRates{rng: rand.New(rand.NewSource(seed))}
	frng := rand.New(rand.NewSource(seed + 1))
	est := New(rates, qp)
	est.MaxCandidates = k
	est.Fallback = contain.CardFunc(func(query.Query) (float64, error) {
		*fell = frng.Float64() * 1e7
		return *fell, nil
	})
	return est, rates
}

// checked is what checkBounds found for one probe: the estimate, the bounds
// the selected candidates prove, and whether the predicates fixed the
// answer (a contradictory probe or an equivalent candidate).
type checked struct {
	got, floor, ceil float64
	exact            bool
}

// checkBounds estimates q and holds the answer to what the predicates prove
// over the candidates the estimator selects: finite and ≥ 0; 0 for a
// contradictory q; exactly |Qold| when a candidate is equivalent to q;
// otherwise, whichever arm answered, within [floor, ceil] — the largest
// |Qold| of a candidate q is a superset of and the smallest of one it is a
// subset of — where the executor's truth lies too.
func checkBounds(t testing.TB, ex *exec.Executor, est *Estimator, q query.Query) checked {
	t.Helper()
	got, err := est.EstimateCard(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	truth, err := ex.Cardinality(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
		t.Fatalf("%s: estimate %v is not a finite non-negative number", q, got)
	}
	if q.Contradictory() {
		if got != 0 || truth != 0 {
			t.Fatalf("%s is contradictory: estimate %v, truth %d, want 0", q, got, truth)
		}
		return checked{got: got, exact: true}
	}
	floor, ceil := 0.0, math.Inf(1)
	for _, m := range est.Pool.TopK(q, est.MaxCandidates) {
		if m.Card <= 0 {
			continue
		}
		c := float64(m.Card)
		switch query.Relate(q, m.Q) {
		case query.Equivalent:
			if got != c || truth != m.Card {
				t.Fatalf("%s is equivalent to pooled %s (|Qold| = %d): estimate %v, truth %d", q, m.Q, m.Card, got, truth)
			}
			return checked{got: got, floor: c, ceil: c, exact: true}
		case query.Subset:
			ceil = min(ceil, c)
		case query.Superset:
			floor = max(floor, c)
		}
	}
	if tr := float64(truth); tr < floor || tr > ceil {
		t.Fatalf("%s: truth %d outside the proven [%v, %v]", q, truth, floor, ceil)
	}
	if got < floor || got > ceil {
		t.Fatalf("%s: estimate %v outside the proven [%v, %v]", q, got, floor, ceil)
	}
	return checked{got: got, floor: floor, ceil: ceil}
}

// equivalentTwin returns a query over q's FROM clause selecting exactly q's
// rows by different text: each = v becomes > v-1 AND < v+1, and each < v
// or > v gains a redundant looser twin. It reports false when every literal
// sits at an int64 edge, where no such twin exists.
func equivalentTwin(t testing.TB, q query.Query) (query.Query, bool) {
	t.Helper()
	var preds []query.Predicate
	changed := false
	for _, p := range q.Preds {
		switch {
		case p.Op == schema.OpEQ && p.Val > math.MinInt64 && p.Val < math.MaxInt64:
			preds = append(preds,
				query.Predicate{Col: p.Col, Op: schema.OpGT, Val: p.Val - 1},
				query.Predicate{Col: p.Col, Op: schema.OpLT, Val: p.Val + 1})
			changed = true
		case p.Op == schema.OpLT && p.Val < math.MaxInt64:
			preds = append(preds, p, query.Predicate{Col: p.Col, Op: schema.OpLT, Val: p.Val + 1})
			changed = true
		case p.Op == schema.OpGT && p.Val > math.MinInt64:
			preds = append(preds, p, query.Predicate{Col: p.Col, Op: schema.OpGT, Val: p.Val - 1})
			changed = true
		default:
			preds = append(preds, p)
		}
	}
	twin, err := query.New(s, q.Tables, q.Joins, preds)
	if err != nil {
		t.Fatal(err)
	}
	return twin, changed
}

// contradiction returns q with two = predicates no value meets on one
// column of its first table.
func contradiction(t testing.TB, q query.Query, v int64) query.Query {
	t.Helper()
	td, _ := s.Table(q.Tables[0])
	col := td.NonKeyColumns()[0]
	ref := schema.ColumnRef{Table: td.Name, Column: col.Name}
	out, err := query.New(s, q.Tables, q.Joins, append(append([]query.Predicate(nil), q.Preds...),
		query.Predicate{Col: ref, Op: schema.OpEQ, Val: v},
		query.Predicate{Col: ref, Op: schema.OpEQ, Val: v ^ 1}))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEstimateBounds is the estimate-level property behind the estimator's
// use of predicate relations (query.Relate), over a static datagen database
// and a rate model returning arbitrary rates: on a generated pool, an
// anchor-only pool and a clause whose entries are all disjoint from the
// probe, full scan and top-K selection alike, every estimate is finite and
// non-negative and lies, with the executor's truth, in the bounds the
// selected candidates prove; a probe equivalent to a pooled entry by other
// text is answered with that entry's cardinality, and a contradictory probe
// with 0.
func TestEstimateBounds(t *testing.T) {
	env := newBoundsEnv(t)
	probes, err := env.gen.Queries(workload.CrdTest2Dist(150))
	if err != nil {
		t.Fatal(err)
	}
	// Variants of pooled queries, and the pooled queries less their last
	// predicate: supersets of an entry, which the entry bounds from below.
	for _, lq := range env.pool {
		probes = append(probes, env.gen.Variant(lq.Q))
		if n := len(lq.Q.Preds); n > 0 {
			q, err := query.New(s, lq.Q.Tables, lq.Q.Joins, lq.Q.Preds[:n-1])
			if err != nil {
				t.Fatal(err)
			}
			probes = append(probes, q)
		}
	}
	for _, tc := range []struct {
		name string
		qp   *pool.Pool
	}{{"generated", poolOf(env.pool)}, {"anchors", poolOf(env.anchors)}} {
		for _, k := range []int{0, 4} {
			var fell float64
			est, rates := boundsEstimator(tc.qp, int64(k)+7, k, &fell)
			var contra, exact, floors, ceils int
			for i, q := range probes {
				c := checkBounds(t, env.ex, est, q)
				switch {
				case q.Contradictory():
					contra++
				case c.exact:
					exact++
				default:
					if c.floor > 0 {
						floors++
					}
					if !math.IsInf(c.ceil, 1) {
						ceils++
					}
				}
				if c := checkBounds(t, env.ex, est, contradiction(t, q, int64(i))); !c.exact || c.got != 0 {
					t.Fatalf("contradictory variant of %s answered %v", q, c.got)
				}
			}
			t.Logf("%s, k=%d: %d probes, %d contradictory, %d equivalent to a candidate, %d with a floor, %d with a ceiling, %d rates asked",
				tc.name, k, len(probes), contra, exact, floors, ceils, rates.rates)
			if rates.rates == 0 || ceils < len(probes)/4 || tc.name == "generated" && (exact == 0 || floors < len(probes)/20) {
				t.Errorf("%s, k=%d: uninformative draw", tc.name, k)
			}
		}
	}

	// Every non-empty pooled query with a literal off the int64 edges has a
	// twin by other text, answered with the entry's cardinality.
	var fell float64
	est, _ := boundsEstimator(poolOf(env.pool), 3, 0, &fell)
	twins := 0
	for _, lq := range env.pool {
		twin, ok := equivalentTwin(t, lq.Q)
		if !ok || lq.Card == 0 {
			continue
		}
		if twin.Key() == lq.Q.Key() {
			t.Fatalf("twin of %s has the same text", lq.Q)
		}
		twins++
		if c := checkBounds(t, env.ex, est, twin); !c.exact || c.got != float64(lq.Card) {
			t.Fatalf("%s, equivalent to pooled %s (|Qold| = %d): estimate %v", twin, lq.Q, lq.Card, c.got)
		}
	}
	if twins < len(env.pool)/2 {
		t.Errorf("only %d of %d pooled queries have a twin", twins, len(env.pool))
	}

	// A clause whose every entry is disjoint from the probe casts no vote:
	// the fallback answers, and no rate is asked for.
	title := func(op string, v int64) query.Query {
		q, err := query.New(s, []string{schema.Title}, nil,
			[]query.Predicate{{Col: schema.ColumnRef{Table: schema.Title, Column: "production_year"}, Op: op, Val: v}})
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	var disjoint []workload.LabeledQuery
	for v := int64(1950); v < 2000; v += 10 {
		q := title(schema.OpGT, v)
		c, err := env.ex.Cardinality(q)
		if err != nil || c == 0 {
			t.Fatalf("%s: %d rows, %v", q, c, err)
		}
		disjoint = append(disjoint, workload.LabeledQuery{Q: q, Card: c})
	}
	est, rates := boundsEstimator(poolOf(disjoint), 5, 0, &fell)
	for v := int64(1900); v <= 1950; v += 10 {
		c := checkBounds(t, env.ex, est, title(schema.OpLT, v))
		if rates.rates != 0 || c.got != fell {
			t.Fatalf("production_year < %d: estimate %v after %d rates, want the fallback's %v and none", v, c.got, rates.rates, fell)
		}
	}
}

// FuzzEstimateBounds holds checkBounds over fuzzer-chosen probes: a FROM
// clause of the generated pool (clause), up to six predicates on its
// tables (two bytes each of raw: column and operator) with literals
// alternating between v1 and v2, estimated by full scan and by top-4
// selection under a rate model seeded from the input.
func FuzzEstimateBounds(f *testing.F) {
	for _, v := range [][2]int64{
		{math.MinInt64, math.MaxInt64}, {math.MinInt64 + 1, math.MaxInt64 - 1},
		{0, -1}, {1, 0}, {1950, 1990}, {3, 3}, {math.MaxInt64, math.MinInt64},
	} {
		f.Add(uint8(0), []byte{0, 0, 1, 2}, v[0], v[1])
		f.Add(uint8(3), []byte{0, 1, 0, 1, 2, 2}, v[0], v[1])
	}
	env := newBoundsEnv(f)
	qp := poolOf(env.pool)
	f.Fuzz(func(t *testing.T, clause uint8, raw []byte, v1, v2 int64) {
		anchor := env.anchors[int(clause)%len(env.anchors)].Q
		var cols []schema.ColumnRef
		for _, table := range anchor.Tables {
			td, _ := s.Table(table)
			for _, c := range td.NonKeyColumns() {
				cols = append(cols, schema.ColumnRef{Table: table, Column: c.Name})
			}
		}
		var preds []query.Predicate
		for k := 0; k+2 <= len(raw) && k < 2*6; k += 2 {
			v := v1
			if k%4 == 2 {
				v = v2
			}
			preds = append(preds, query.Predicate{
				Col: cols[int(raw[k])%len(cols)],
				Op:  schema.Operators()[int(raw[k+1])%schema.NumOperators],
				Val: v,
			})
		}
		q, err := query.New(s, anchor.Tables, anchor.Joins, preds)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 4} {
			var fell float64
			est, _ := boundsEstimator(qp, v1^v2^int64(k), k, &fell)
			checkBounds(t, env.ex, est, q)
		}
	})
}
