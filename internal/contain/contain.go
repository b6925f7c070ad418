// Package contain defines the estimator interfaces of the reproduction and
// the Crd2Cnt transformation of §4.1: any cardinality estimation model M can
// be converted into a containment-rate estimation model M' by
//
//	Q1 ⊂% Q2  =  |M(Q1∩Q2)| / |M(Q1)|
//
// where Q1∩Q2 is the intersection query (same SELECT/FROM, conjoined WHERE
// clauses). The inverse direction — Cnt2Crd, turning a containment model
// into a cardinality model with the help of a queries pool — lives in
// package card.
//
// There are three interfaces. CardEstimator estimates one cardinality;
// BatchCardEstimator adds a batched call that Crd2Cnt uses when M offers it.
// RateEstimator is the only rate interface: one cancellable call over a
// batch of pairs that index a shared query list, so a query recurring in
// many pairs — the probe of a pool scan appears in two pairs per candidate —
// is listed, and encoded, once. Two helpers serve callers that hold queries
// rather than indices: IndexPairs lays query-valued pairs out as such a
// batch, and Rate asks for a single pair.
package contain

import (
	"context"
	"errors"
	"fmt"

	"crn/internal/query"
)

// ErrNotComparable is the sentinel wrapped when two queries cannot be
// compared for containment because their FROM clauses differ (§2 defines
// containment only over identical FROM clauses).
var ErrNotComparable = errors.New("queries are not containment-comparable")

// CardEstimator estimates result cardinalities of conjunctive queries.
// Implemented by pg.Estimator, mscn.Estimator, the exec oracle adapter and
// the pool-based Cnt2Crd estimator.
type CardEstimator interface {
	EstimateCard(q query.Query) (float64, error)
}

// BatchCardEstimator is a cardinality estimator that can amortize work over
// many queries at once (neural models batch their forward passes).
type BatchCardEstimator interface {
	CardEstimator
	EstimateCards(queries []query.Query) ([]float64, error)
}

// RateEstimator estimates containment rates Q1 ⊂% Q2 as fractions in [0,1].
// Each pair names its Q1 and Q2 by index into queries, and the rate of
// pairs[i] is returned at position i. Implementations honour ctx between
// units of work, so a cancelled request stops consuming CPU promptly.
// Implemented by the CRN adapter, Crd2Cnt-wrapped cardinality models and the
// exact oracle.
type RateEstimator interface {
	EstimateRatesIndexed(ctx context.Context, queries []query.Query, pairs [][2]int) ([]float64, error)
}

// Rate estimates the single rate q1 ⊂% q2.
func Rate(ctx context.Context, r RateEstimator, q1, q2 query.Query) (float64, error) {
	out, err := r.EstimateRatesIndexed(ctx, []query.Query{q1, q2}, [][2]int{{0, 1}})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// IndexPairs lays query-valued pairs out as an indexed batch: every distinct
// query, recognized by its canonical key, is listed once, in order of first
// appearance, and each pair becomes the indices of its two sides.
func IndexPairs(pairs [][2]query.Query) ([]query.Query, [][2]int) {
	index := make(map[string]int)
	var queries []query.Query
	idx := make([][2]int, len(pairs))
	for i, p := range pairs {
		for side, q := range p {
			key := q.Key()
			j, ok := index[key]
			if !ok {
				j = len(queries)
				index[key] = j
				queries = append(queries, q)
			}
			idx[i][side] = j
		}
	}
	return queries, idx
}

// Crd2Cnt wraps a cardinality estimator into a containment-rate estimator
// (the paper's Crd2Cnt transformation, §4.1.1). The resulting rate is
// clamped to [0,1]: a sound cardinality model already satisfies
// |Q1∩Q2| ≤ |Q1|, but learned models can violate it.
type Crd2Cnt struct {
	M CardEstimator
	// Name identifies the underlying model in experiment tables, e.g.
	// "Crd2Cnt(PostgreSQL)".
	Name string
}

// EstimateRatesIndexed implements RateEstimator. M is evaluated once per
// listed query and once per pair's intersection Q1∩Q2 — in two batched
// calls when M is a BatchCardEstimator.
func (c Crd2Cnt) EstimateRatesIndexed(ctx context.Context, queries []query.Query, pairs [][2]int) ([]float64, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	inter := make([]query.Query, len(pairs))
	for i, p := range pairs {
		qi, err := queries[p[0]].Intersect(queries[p[1]])
		if err != nil {
			return nil, err
		}
		inter[i] = qi
	}
	cards, err := c.cards(ctx, queries)
	if err != nil {
		return nil, err
	}
	interCards, err := c.cards(ctx, inter)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		c1 := cards[p[0]]
		if c1 <= 0 {
			// By definition Q1 ⊂% Q2 = 0 when |Q1| = 0 (§2).
			continue
		}
		rate := interCards[i] / c1
		if rate < 0 {
			rate = 0
		}
		if rate > 1 {
			rate = 1
		}
		out[i] = rate
	}
	return out, nil
}

// cards evaluates M on every query: in one call when M batches, otherwise
// one query at a time, checking ctx before each.
func (c Crd2Cnt) cards(ctx context.Context, queries []query.Query) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if bm, ok := c.M.(BatchCardEstimator); ok {
		return bm.EstimateCards(queries)
	}
	out := make([]float64, len(queries))
	for i, q := range queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		v, err := c.M.EstimateCard(q)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// CardFunc adapts a plain function to CardEstimator.
type CardFunc func(q query.Query) (float64, error)

// EstimateCard implements CardEstimator.
func (f CardFunc) EstimateCard(q query.Query) (float64, error) { return f(q) }

// RateFunc adapts a plain per-pair function to RateEstimator.
type RateFunc func(q1, q2 query.Query) (float64, error)

// EstimateRatesIndexed implements RateEstimator, one pair at a time.
func (f RateFunc) EstimateRatesIndexed(ctx context.Context, queries []query.Query, pairs [][2]int) ([]float64, error) {
	return eachPair(ctx, queries, pairs, f)
}

// TruthCard adapts an exact oracle (the executor) to CardEstimator; used in
// tests and to bound achievable accuracy in ablations.
type TruthCard struct {
	T interface {
		Cardinality(q query.Query) (int64, error)
	}
}

// EstimateCard implements CardEstimator.
func (t TruthCard) EstimateCard(q query.Query) (float64, error) {
	c, err := t.T.Cardinality(q)
	if err != nil {
		return 0, err
	}
	return float64(c), nil
}

// TruthRate adapts an exact oracle to RateEstimator.
type TruthRate struct {
	T interface {
		ContainmentRate(q1, q2 query.Query) (float64, error)
	}
}

// EstimateRatesIndexed implements RateEstimator, one pair at a time.
func (t TruthRate) EstimateRatesIndexed(ctx context.Context, queries []query.Query, pairs [][2]int) ([]float64, error) {
	return eachPair(ctx, queries, pairs, t.T.ContainmentRate)
}

// eachPair answers an indexed batch with a per-pair rate function, checking
// ctx before each pair.
func eachPair(ctx context.Context, queries []query.Query, pairs [][2]int, rate func(q1, q2 query.Query) (float64, error)) ([]float64, error) {
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := rate(queries[p[0]], queries[p[1]])
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

var (
	_ RateEstimator = Crd2Cnt{}
	_ RateEstimator = RateFunc(nil)
	_ RateEstimator = TruthRate{}
)

// Validate sanity-checks that two queries are containment-comparable,
// returning a descriptive error otherwise. Estimators use it to fail fast
// on malformed pairs.
func Validate(q1, q2 query.Query) error {
	if !q1.Comparable(q2) {
		return fmt.Errorf("contain: %w (FROM %q vs %q)", ErrNotComparable, q1.FROMKey(), q2.FROMKey())
	}
	return nil
}
