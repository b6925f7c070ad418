package query

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"crn/internal/schema"
)

// TestIntervalAgreesWithMatches holds Interval to Matches, the other
// statement of what a predicate admits: v lies in [lo, hi] exactly when
// Matches(v), for every operator and an unknown one, over random literals
// and values, the int64 edges and each literal's neighbours.
func TestIntervalAgreesWithMatches(t *testing.T) {
	vals := []int64{math.MinInt64, math.MinInt64 + 1, -5e18, -1, 0, 1, 5e18, math.MaxInt64 - 1, math.MaxInt64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		vals = append(vals, int64(rng.Uint64()), rng.Int63n(64)-32)
	}
	for _, op := range append(schema.Operators(), "!=") {
		for _, lit := range vals {
			p := Predicate{Col: ref("title", "kind_id"), Op: op, Val: lit}
			lo, hi := p.Interval()
			for _, v := range append([]int64{lit - 1, lit, lit + 1}, vals...) {
				if in := lo <= v && v <= hi; in != p.Matches(v) {
					t.Fatalf("%s: %d in Interval [%d, %d] = %v, Matches = %v", p, v, lo, hi, in, !in)
				}
			}
		}
	}
}

// TestEmptyIntervalConflicts pins the signature of a predicate no value
// satisfies: < MinInt64 and > MaxInt64 admit nothing (the executor counts 0
// rows), so their column's range is empty (Lo > Hi), as a contradictory
// conjunction's is, whether New or computeSignature builds it.
func TestEmptyIntervalConflicts(t *testing.T) {
	for _, p := range []Predicate{
		{Col: ref("title", "kind_id"), Op: schema.OpLT, Val: math.MinInt64},
		{Col: ref("title", "kind_id"), Op: schema.OpGT, Val: math.MaxInt64},
	} {
		q := mustQuery(t, []string{schema.Title}, nil, []Predicate{p})
		for name, sig := range map[string]Signature{"New": q.Signature(), "computeSignature": computeSignature(q)} {
			if len(sig.Ranges) != 1 || sig.Ranges[0].Lo <= sig.Ranges[0].Hi {
				t.Errorf("%s: %s ranges %+v, want one empty range", p, name, sig.Ranges)
			}
		}
	}
}

// TestSpanCountsWithoutWrapping holds span, the width rangeAffinity's
// Jaccard is built from, to the element count of [lo, hi]: bit-equal to the
// int64 difference's wherever that does not wrap, literals above 2^53
// included, and the nearest float64 to the true difference where it would.
func TestSpanCountsWithoutWrapping(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		lo, hi := int64(rng.Uint64()), int64(rng.Uint64())
		if i%2 == 0 {
			hi = lo + rng.Int63n(1<<62)
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		want := float64(hi-lo) + 1
		if hi-lo < 0 {
			d, _ := new(big.Float).SetInt(new(big.Int).Sub(big.NewInt(hi), big.NewInt(lo))).Float64()
			want = d + 1
		}
		if got := span(lo, hi); got != want {
			t.Fatalf("span(%d, %d) = %v, want %v", lo, hi, got, want)
		}
	}
}
