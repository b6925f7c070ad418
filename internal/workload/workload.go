// Package workload implements the paper's queries generator (§3.1.2) and the
// evaluation workloads of §4.2 and §6.1.
//
// The generator works in three steps:
//
//  1. initial queries: draw a joinable table set (star around `title`), add
//     its join edges, then for each base table draw a uniform number of
//     predicates over its non-key columns with uniform operator and a value
//     drawn from the column's actual values;
//  2. variants: repeatedly perturb an initial query — change predicate
//     operators or values, or add predicates — producing "similar but
//     different" queries whose mutual containment rates vary sharply (the
//     paper's "hard" dataset);
//  3. pairs: combine queries from both steps that share a FROM clause.
//
// Three drawers run it, each over a per-join-count histogram such as
// CntTest1Dist: Pairs (all three steps), Queries (steps 1 and 2, the
// cardinality workloads of §6.1) and NonEmptyQueries (Queries keeping only
// non-empty results, labeled with their cardinalities). TrainingSet is the
// one builder of the CRN's training data: training pairs, labeled,
// shuffled and split 80/20.
//
// A second, deliberately different generator produces the `scale`-style
// workload (§6.1) used to test generalization across generators, and a pool
// generator produces the queries pool QP of §6.2 (equally distributed over
// all possible FROM clauses, with one empty-predicate query per clause so
// every probe finds a usable match, §5.2).
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"crn/internal/db"
	"crn/internal/query"
	"crn/internal/schema"
)

// Oracle is the executor subset workload construction and labeling need:
// exact cardinalities for rejection sampling and labels, exact containment
// rates for pair labels. *exec.Executor satisfies it directly; callers that
// need cancellation pass a context-checking wrapper instead.
type Oracle interface {
	Cardinality(q query.Query) (int64, error)
	ContainmentRate(q1, q2 query.Query) (float64, error)
}

// Pair is an (unlabeled) ordered query pair with identical FROM clauses.
type Pair struct {
	Q1, Q2 query.Query
}

// LabeledPair carries the true containment rate Q1 ⊂% Q2 as a fraction.
type LabeledPair struct {
	Q1, Q2 query.Query
	Rate   float64
}

// LabeledQuery carries a query's true cardinality.
type LabeledQuery struct {
	Q    query.Query
	Card int64
}

// Generator produces random queries over one database following §3.1.2.
// Generators are deterministic given their seed and not safe for concurrent
// use (clone per goroutine instead).
type Generator struct {
	s   *schema.Schema
	d   *db.Database
	rng *rand.Rand

	satellites []string

	// Scale-generator knobs (§6.1): the scale workload comes from "another
	// queries generator"; these bias its distributions away from the
	// training generator's.
	uniformRangeValues bool    // draw predicate values uniformly from [min,max] instead of data rows
	extraPredProb      float64 // probability of one additional predicate per table
	opBias             []string
}

// NewGenerator creates the paper's training/test generator.
func NewGenerator(s *schema.Schema, d *db.Database, seed int64) *Generator {
	return &Generator{
		s:          s,
		d:          d,
		rng:        rand.New(rand.NewSource(seed)),
		satellites: satelliteTables(s),
		opBias:     schema.Operators(),
	}
}

// NewScaleGenerator creates the deliberately different generator behind the
// scale workload: values drawn uniformly from column ranges, an extra
// predicate per table half the time, and range-heavy operators.
func NewScaleGenerator(s *schema.Schema, d *db.Database, seed int64) *Generator {
	g := NewGenerator(s, d, seed)
	g.uniformRangeValues = true
	g.extraPredProb = 0.5
	g.opBias = []string{schema.OpLT, schema.OpGT, schema.OpGT, schema.OpLT, schema.OpEQ}
	return g
}

// satelliteTables returns every table adjacent to the star center `title`.
func satelliteTables(s *schema.Schema) []string {
	var out []string
	for _, t := range s.Tables {
		if t.Name != schema.Title {
			out = append(out, t.Name)
		}
	}
	sort.Strings(out)
	return out
}

// InitialQuery draws a step-1 query with exactly numJoins joins
// (0 ≤ numJoins ≤ number of satellites).
func (g *Generator) InitialQuery(numJoins int) (query.Query, error) {
	if numJoins < 0 || numJoins > len(g.satellites) {
		return query.Query{}, fmt.Errorf("workload: numJoins %d out of range [0,%d]", numJoins, len(g.satellites))
	}
	var tables []string
	if numJoins == 0 {
		tables = []string{g.s.Tables[g.rng.Intn(len(g.s.Tables))].Name}
	} else {
		perm := g.rng.Perm(len(g.satellites))
		tables = []string{schema.Title}
		for _, i := range perm[:numJoins] {
			tables = append(tables, g.satellites[i])
		}
	}
	edges, ok := g.s.SpanningJoins(tables)
	if !ok {
		return query.Query{}, fmt.Errorf("workload: internal error, %v not joinable", tables)
	}
	joins := make([]query.Join, len(edges))
	for i, e := range edges {
		joins[i] = query.Join{Left: e.Left, Right: e.Right}
	}
	var preds []query.Predicate
	for _, t := range tables {
		preds = append(preds, g.tablePredicates(t)...)
	}
	return query.New(g.s, tables, joins, preds)
}

// tablePredicates draws 0..#nonKey predicates on one table (uniform count,
// uniform column/operator, value from the column's data), plus the scale
// generator's optional extra predicate.
func (g *Generator) tablePredicates(table string) []query.Predicate {
	td, _ := g.s.Table(table)
	nonKey := td.NonKeyColumns()
	if len(nonKey) == 0 {
		return nil
	}
	n := g.rng.Intn(len(nonKey) + 1)
	if g.extraPredProb > 0 && g.rng.Float64() < g.extraPredProb && n < len(nonKey) {
		n++
	}
	preds := make([]query.Predicate, 0, n)
	for i := 0; i < n; i++ {
		col := nonKey[g.rng.Intn(len(nonKey))]
		preds = append(preds, query.Predicate{
			Col: schema.ColumnRef{Table: col.Table, Column: col.Name},
			Op:  g.opBias[g.rng.Intn(len(g.opBias))],
			Val: g.drawValue(schema.ColumnRef{Table: col.Table, Column: col.Name}),
		})
	}
	return preds
}

// drawValue picks a predicate literal for the column: a value from an actual
// row (training generator) or uniform over the value range (scale
// generator).
func (g *Generator) drawValue(col schema.ColumnRef) int64 {
	stats, ok := g.d.Stats(col)
	if !ok || stats.NumRows == 0 {
		return 0
	}
	if g.uniformRangeValues {
		if stats.Max <= stats.Min {
			return stats.Min
		}
		return stats.Min + g.rng.Int63n(stats.Max-stats.Min+1)
	}
	colVals := g.d.Table(col.Table).Column(col.Column)
	return colVals[g.rng.Intn(len(colVals))]
}

// Variant derives a step-2 query from q: each predicate may have its
// operator or value mutated (aggressively — only 20% survive untouched, so
// pairs rarely relate by syntactic subsumption alone), and with 50%
// probability one predicate is added. The FROM clause (and hence
// comparability) is preserved.
func (g *Generator) Variant(q query.Query) query.Query {
	out := q.Clone()
	for i := range out.Preds {
		switch r := g.rng.Float64(); {
		case r < 0.4: // mutate operator
			out.Preds[i].Op = schema.Operators()[g.rng.Intn(3)]
		case r < 0.8: // mutate value
			out.Preds[i].Val = g.drawValue(out.Preds[i].Col)
		default: // keep
		}
	}
	if g.rng.Float64() < 0.5 {
		t := out.Tables[g.rng.Intn(len(out.Tables))]
		if extra := g.tablePredicates(t); len(extra) > 0 {
			out = out.WithPredicate(extra[0])
		}
	}
	// Re-canonicalize through the constructor.
	canon, err := query.New(g.s, out.Tables, out.Joins, out.Preds)
	if err != nil {
		// Mutations never invalidate a valid query; fall back defensively.
		return q
	}
	return canon
}

// draw is the one attempt loop behind every drawer. For each join count of
// dist, ascending, it draws step-1 queries with that many joins and hands
// each to try, which draws the attempt's step-2 variants and reports
// whether it kept an item, until dist[j] items are kept or budget attempts
// per wanted item are spent.
func (g *Generator) draw(dist map[int]int, budget int, what string, try func(initial query.Query) (bool, error)) error {
	joins := make([]int, 0, len(dist))
	for j := range dist {
		joins = append(joins, j)
	}
	sort.Ints(joins)
	for _, j := range joins {
		kept := 0
		for attempts := 0; kept < dist[j] && attempts < dist[j]*budget; attempts++ {
			initial, err := g.InitialQuery(j)
			if err != nil {
				return err
			}
			ok, err := try(initial)
			if err != nil {
				return err
			}
			if ok {
				kept++
			}
		}
		if kept < dist[j] {
			return fmt.Errorf("workload: exhausted attempts at %d/%d %s with %d joins", kept, dist[j], what, j)
		}
	}
	return nil
}

// Pairs runs all three steps to produce unique pairs according to a
// per-join-count histogram, e.g. {0: 400, 1: 400, 2: 400} for cnt_test1
// (paper Table 2): each attempt draws an initial query and three variants
// of it, and pairs two distinct members of that family (identical FROM
// clauses).
func (g *Generator) Pairs(dist map[int]int) ([]Pair, error) {
	seen := make(map[string]bool)
	var out []Pair
	err := g.draw(dist, 200, "pairs", func(initial query.Query) (bool, error) {
		family := []query.Query{initial}
		for i := 0; i < 3; i++ {
			family = append(family, g.Variant(initial))
		}
		i, j := g.rng.Intn(len(family)), g.rng.Intn(len(family))
		if i == j {
			return false, nil
		}
		p := Pair{Q1: family[i], Q2: family[j]}
		key := p.Q1.Key() + "|" + p.Q2.Key()
		if seen[key] {
			return false, nil
		}
		seen[key] = true
		out = append(out, p)
		return true, nil
	})
	return out, err
}

// Queries produces unique step-1/2 queries according to a per-join-count
// histogram, e.g. {0: 150, 1: 150, 2: 150} for crd_test1 (paper Table 5) —
// the cardinality-test construction of §6.1 ("we only run the first two
// steps of the generator").
func (g *Generator) Queries(dist map[int]int) ([]query.Query, error) {
	var out []query.Query
	err := g.drawQueries(dist, 200, "queries", func(q query.Query) (bool, error) {
		out = append(out, q)
		return true, nil
	})
	return out, err
}

// NonEmptyQueries is Queries restricted to queries whose results are
// non-empty on the database, each labeled with the cardinality its
// rejection test computed. The MSCN generator the paper's cardinality
// workloads derive from keeps only queries with non-zero cardinality; at
// our reduced database scale rejection sampling is required to match that
// convention.
func (g *Generator) NonEmptyQueries(ex Oracle, dist map[int]int) ([]LabeledQuery, error) {
	var out []LabeledQuery
	err := g.drawQueries(dist, 500, "non-empty queries", func(q query.Query) (bool, error) {
		card, err := ex.Cardinality(q)
		if err != nil || card == 0 {
			return false, err
		}
		out = append(out, LabeledQuery{Q: q, Card: card})
		return true, nil
	})
	return out, err
}

// drawQueries is draw for single queries: each attempt's initial query is
// replaced by a variant of itself half the time, and keep sees only query
// keys not drawn before.
func (g *Generator) drawQueries(dist map[int]int, budget int, what string, keep func(q query.Query) (bool, error)) error {
	seen := make(map[string]bool)
	return g.draw(dist, budget, what, func(q query.Query) (bool, error) {
		if g.rng.Intn(2) == 1 {
			q = g.Variant(q)
		}
		if seen[q.Key()] {
			return false, nil
		}
		seen[q.Key()] = true
		return keep(q)
	})
}

// PoolQueries builds the queries pool QP of §6.2: n queries equally
// distributed over every possible FROM clause of the schema, the first per
// clause being the empty-predicate query (SELECT * FROM ... WHERE TRUE,
// §5.2) so that every probe has at least one usable old query.
func (g *Generator) PoolQueries(n int) ([]query.Query, error) {
	fromSets := g.s.JoinableSets(g.s.NumTables())
	if len(fromSets) == 0 {
		return nil, fmt.Errorf("workload: schema has no joinable sets")
	}
	seen := make(map[string]bool)
	var out []query.Query
	add := func(q query.Query) {
		if !seen[q.Key()] {
			seen[q.Key()] = true
			out = append(out, q)
		}
	}
	mk := func(tables []string, empty bool) (query.Query, error) {
		edges, _ := g.s.SpanningJoins(tables)
		joins := make([]query.Join, len(edges))
		for i, e := range edges {
			joins[i] = query.Join{Left: e.Left, Right: e.Right}
		}
		var preds []query.Predicate
		if !empty {
			for _, t := range tables {
				preds = append(preds, g.tablePredicates(t)...)
			}
		}
		return query.New(g.s, tables, joins, preds)
	}
	// First pass: one empty-predicate query per FROM clause.
	for _, tables := range fromSets {
		if len(out) >= n {
			break
		}
		q, err := mk(tables, true)
		if err != nil {
			return nil, err
		}
		add(q)
	}
	// Round-robin passes with random predicates until n queries exist.
	for guard := 0; len(out) < n && guard < 1000; guard++ {
		for _, tables := range fromSets {
			if len(out) >= n {
				break
			}
			q, err := mk(tables, false)
			if err != nil {
				return nil, err
			}
			add(q)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("workload: could not build %d unique pool queries", n)
	}
	return out, nil
}

// NonEmptyPoolQueries is PoolQueries with rejection sampling on the random
// fill: pooled queries with empty results are useless to the Cnt2Crd
// technique (an empty old query anchors nothing), so the pool is built from
// executed queries with non-zero cardinalities. The one empty-predicate
// query per FROM clause is kept unconditionally (it guarantees a usable
// match for every probe, §5.2). Each kept query comes labeled with the
// cardinality its rejection test computed.
func (g *Generator) NonEmptyPoolQueries(ex Oracle, n int) ([]LabeledQuery, error) {
	candidates, err := g.PoolQueries(n)
	if err != nil {
		return nil, err
	}
	var out []LabeledQuery
	seen := make(map[string]bool)
	keep := func(q query.Query) error {
		if seen[q.Key()] {
			return nil
		}
		card, err := ex.Cardinality(q)
		if err != nil {
			return err
		}
		if card == 0 && len(q.Preds) > 0 {
			return nil
		}
		seen[q.Key()] = true
		out = append(out, LabeledQuery{Q: q, Card: card})
		return nil
	}
	for _, q := range candidates {
		if len(out) >= n {
			break
		}
		if err := keep(q); err != nil {
			return nil, err
		}
	}
	// Top up with more generated pool queries until n non-empty ones exist.
	for guard := 0; len(out) < n && guard < 200; guard++ {
		more, err := g.PoolQueries(n)
		if err != nil {
			return nil, err
		}
		for _, q := range more {
			if len(out) >= n {
				break
			}
			if err := keep(q); err != nil {
				return nil, err
			}
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("workload: could not build %d non-empty pool queries", n)
	}
	return out, nil
}

// --- Named workloads -----------------------------------------------------

// CntTest1Dist is the paper's cnt_test1 join distribution (Table 2),
// scaled by the given total (the paper uses 1200).
func CntTest1Dist(total int) map[int]int {
	per := total / 3
	return map[int]int{0: per, 1: per, 2: total - 2*per}
}

// CntTest2Dist is the paper's cnt_test2 join distribution (Table 2).
func CntTest2Dist(total int) map[int]int {
	per := total / 6
	return map[int]int{0: per, 1: per, 2: per, 3: per, 4: per, 5: total - 5*per}
}

// CrdTest1Dist is the paper's crd_test1 join distribution (Table 5).
func CrdTest1Dist(total int) map[int]int {
	per := total / 3
	return map[int]int{0: per, 1: per, 2: total - 2*per}
}

// CrdTest2Dist is the paper's crd_test2 join distribution (Table 5).
func CrdTest2Dist(total int) map[int]int {
	per := total / 6
	return map[int]int{0: per, 1: per, 2: per, 3: per, 4: per, 5: total - 5*per}
}

// ScaleDist is the paper's scale workload join distribution (Table 5:
// 115/115/107/88/75/0 of 500), scaled proportionally to the given total.
func ScaleDist(total int) map[int]int {
	ref := []int{115, 115, 107, 88, 75, 0}
	out := make(map[int]int)
	assigned := 0
	for j, r := range ref {
		n := r * total / 500
		if r > 0 && n == 0 {
			n = 1
		}
		out[j] = n
		assigned += n
	}
	// Distribute rounding remainder over the populated levels.
	for j := 0; assigned < total; j = (j + 1) % 5 {
		out[j]++
		assigned++
	}
	for j := 0; assigned > total && j < 5; j++ {
		if out[j] > 0 {
			out[j]--
			assigned--
		}
	}
	return out
}

// TrainingSet builds the CRN's training data: n step-3 pairs with zero to
// two joins — the paper's training regime ("we force the queries generator
// to create queries with up to two joins and let the model generalize",
// §3.1.2) — labeled through ex on `workers` goroutines, shuffled with
// shuffleSeed and split 80/20 into training and validation pairs.
func (g *Generator) TrainingSet(ex Oracle, n, workers int, shuffleSeed int64) (train, val []LabeledPair, err error) {
	pairs, err := g.Pairs(CntTest1Dist(n))
	if err != nil {
		return nil, nil, err
	}
	labeled, err := LabelPairs(ex, pairs, workers)
	if err != nil {
		return nil, nil, err
	}
	rand.New(rand.NewSource(shuffleSeed)).Shuffle(len(labeled), func(i, j int) {
		labeled[i], labeled[j] = labeled[j], labeled[i]
	})
	train, val = SplitPairs(labeled, 0.8)
	return train, val, nil
}

// --- Labeling ------------------------------------------------------------

// LabelPairs executes every pair to obtain true containment rates,
// parallelized over `workers` goroutines (the executor memoizes shared
// sub-queries).
func LabelPairs(ex Oracle, pairs []Pair, workers int) ([]LabeledPair, error) {
	out := make([]LabeledPair, len(pairs))
	err := parallelFor(len(pairs), workers, func(i int) error {
		rate, err := ex.ContainmentRate(pairs[i].Q1, pairs[i].Q2)
		if err != nil {
			return err
		}
		out[i] = LabeledPair{Q1: pairs[i].Q1, Q2: pairs[i].Q2, Rate: rate}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LabelQueries executes every query to obtain true cardinalities.
func LabelQueries(ex Oracle, queries []query.Query, workers int) ([]LabeledQuery, error) {
	out := make([]LabeledQuery, len(queries))
	err := parallelFor(len(queries), workers, func(i int) error {
		card, err := ex.Cardinality(queries[i])
		if err != nil {
			return err
		}
		out[i] = LabeledQuery{Q: queries[i], Card: card}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SplitPairs splits labeled pairs into train/validation sets (the paper
// uses 80/20, §3.1.2) without shuffling; callers shuffle beforehand if the
// order is meaningful.
func SplitPairs(all []LabeledPair, trainFrac float64) (train, val []LabeledPair) {
	k := int(trainFrac * float64(len(all)))
	if k < 0 {
		k = 0
	}
	if k > len(all) {
		k = len(all)
	}
	return all[:k], all[k:]
}

func parallelFor(n, workers int, fn func(i int) error) error {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				if errs[w] == nil {
					errs[w] = fn(i)
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// JoinHistogram tabulates queries per join count, reproducing the paper's
// Tables 2 and 5.
func JoinHistogram(queries []query.Query) map[int]int {
	out := make(map[int]int)
	for _, q := range queries {
		out[q.NumJoins()]++
	}
	return out
}

// PairJoinHistogram tabulates pairs per join count of their (shared) FROM
// clause.
func PairJoinHistogram(pairs []Pair) map[int]int {
	out := make(map[int]int)
	for _, p := range pairs {
		out[p.Q1.NumJoins()]++
	}
	return out
}
