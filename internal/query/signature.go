package query

import (
	"encoding/binary"
	"math"
	"math/bits"

	"crn/internal/schema"
)

// Signature is a compact summary of one query's predicate structure,
// computed once when the query is constructed (New caches it alongside the
// canonical key) and scanned — instead of the query itself — when a probe
// asks for its most containment-comparable candidates (the queries pool's
// TopK). It captures, schema-free (column and join identities are hashed
// into 64-bit masks), the three things that decide whether the Cnt2Crd
// transformation extracts signal from an (old, new) pair:
//
//   - which columns each side constrains (column-set bitmask): a column the
//     old query constrains but the new one does not drives the y_rate
//     Qnew ⊂% Qold toward zero and into the ε guard;
//   - how each column is constrained (per-operator-class masks and the
//     conjunction's per-column value interval): overlapping ranges keep
//     both rates informative, disjoint ranges zero them out;
//   - which join edges each side applies (join bitmask): a differing join
//     set changes the result shape the same way extra predicates do.
//
// Hash collisions (two columns sharing a mask bit) only blur the ranking —
// selection stays a strict subset of the FROM-clause candidates, so they
// can never make an incomparable pair comparable.
type Signature struct {
	Cols  uint64             // mask of predicate columns
	Joins uint64             // mask of join edges
	Ops   [NumOpClass]uint64 // per-operator-class column masks (<, =, >)

	// Ranges holds the conjunction's value interval per predicate column,
	// sorted by column hash for merge-joining two signatures. Shared, not
	// copied, when a cached signature is returned: callers must treat it as
	// immutable.
	Ranges []ColRange
}

// NumOpClass is the number of predicate operator classes (<, =, >).
const NumOpClass = 3

// ColRange is the closed value interval [Lo, Hi] a conjunction of
// predicates pins one column to: the intersection of their
// Predicate.Interval. A side no predicate bounds stays at MinInt64 or
// MaxInt64, which interval similarity reads as "no constraint" rather than
// "huge range"; Lo > Hi marks a contradictory conjunction (e.g. =1 AND =2),
// an empty range.
type ColRange struct {
	Col    uint64 // column hash (identity for merging, bit source for masks)
	Lo, Hi int64
}

// meet reports whether r and o admit a common value; an empty side meets
// nothing.
func (r *ColRange) meet(o *ColRange) bool { return max(r.Lo, o.Lo) <= min(r.Hi, o.Hi) }

// Range shapes: which sides of a range some predicate bounds, and whether
// it is empty — the value-free part of a range that PatternKey records and
// Similarity's case analysis reads.
const (
	shapeLo    = 1
	shapeHi    = 2
	shapeBoth  = shapeLo | shapeHi
	shapeEmpty = 4
)

func (r *ColRange) shape() byte {
	var f byte
	if r.Lo != math.MinInt64 {
		f |= shapeLo
	}
	if r.Hi != math.MaxInt64 {
		f |= shapeHi
	}
	if r.Lo > r.Hi {
		f |= shapeEmpty
	}
	return f
}

// opClass maps a predicate operator to its class ordinal.
func opClass(op string) int {
	switch op {
	case schema.OpLT:
		return 0
	case schema.OpEQ:
		return 1
	default: // schema.OpGT
		return 2
	}
}

// Signature returns the query's predicate signature: precomputed for
// queries built by New, Intersect or WithPredicate (the serving hot path
// never recomputes it; the pool copies a pooled query's signature into its
// clause's contiguous signature rows once, at insertion), computed on demand
// for literal-built values. The pointer receiver keeps the read from
// copying the whole Query.
func (q *Query) Signature() Signature {
	if q.sig != nil {
		return *q.sig
	}
	return computeSignature(*q)
}

// computeSignature summarizes q from its strings. It is pure and
// deterministic: equal canonical queries yield equal signatures. New builds
// the same value from the hashes the schema precomputed.
func computeSignature(q Query) Signature {
	var sig Signature
	for _, j := range q.Joins {
		sig.addJoin(schema.Hash(schema.EdgeKey(j.Left, j.Right)))
	}
	for _, p := range q.Preds {
		sig.addPred(schema.Hash(p.Col.String()), p)
	}
	// Canonical predicate order sorts by column STRING; the merge-join in
	// Similarity walks intervals by column HASH.
	sortRanges(sig.Ranges)
	return sig
}

// addJoin records a join edge by the hash of its schema.EdgeKey.
func (sig *Signature) addJoin(edge uint64) { sig.Joins |= 1 << (edge & 63) }

// addPred records predicate p, col being the hash of its qualified column
// name: the column and operator-class masks, and p's Interval intersected
// into the range of its column (a fresh range, [MinInt64, MaxInt64], for a
// first-seen column). Predicates arrive in canonical order (sorted by
// column string), so ranges stay grouped by column; the final slice is
// re-sorted by hash before use.
func (sig *Signature) addPred(col uint64, p Predicate) {
	bit := uint64(1) << (col & 63)
	sig.Cols |= bit
	sig.Ops[opClass(p.Op)] |= bit
	var r *ColRange
	for i := range sig.Ranges {
		if sig.Ranges[i].Col == col {
			r = &sig.Ranges[i]
			break
		}
	}
	if r == nil {
		sig.Ranges = append(sig.Ranges, ColRange{Col: col, Lo: math.MinInt64, Hi: math.MaxInt64})
		r = &sig.Ranges[len(sig.Ranges)-1]
	}
	lo, hi := p.Interval()
	r.Lo, r.Hi = max(r.Lo, lo), min(r.Hi, hi)
}

// sortRanges orders a signature's intervals by column hash (insertion sort:
// queries carry a handful of predicates).
func sortRanges(ranges []ColRange) {
	for i := 1; i < len(ranges); i++ {
		for j := i; j > 0 && ranges[j-1].Col > ranges[j].Col; j-- {
			ranges[j-1], ranges[j] = ranges[j], ranges[j-1]
		}
	}
}

// Similarity scoring weights. The ranking favors old queries whose
// constraint set is dominated by the probe's: a shared column with an
// overlapping range keeps both containment rates informative; a column only
// the OLD query constrains shrinks y_rate = Qnew ⊂% Qold toward the ε guard
// (the candidate contributes nothing), so it is penalized hardest; a column
// only the NEW query constrains merely tightens x_rate and often marks a
// containing anchor (y_rate ≈ 1), so its penalty is mild. Values are
// heuristic; the accuracy gate in internal/experiments pins the ranking's
// effect on median q-error.
const (
	wSharedCol   = 2.0
	wExtraOldCol = 1.5
	wExtraNewCol = 0.25
	wOpClass     = 0.25
	wRange       = 1.0
	wSharedJoin  = 1.0
	wJoinDiff    = 1.0
)

// Similarity scores how containment-comparable an old query's signature is
// to the probe's, higher is better. Deterministic and symmetric in nothing:
// the probe is the NEW query, old is the pooled one. Both are passed by
// pointer, so scoring a candidate copies no signature.
func (probe *Signature) Similarity(old *Signature) float64 {
	score := probe.MaskSimilarity(old)
	// Merge-join the per-column intervals of columns both sides constrain.
	i, j := 0, 0
	for i < len(probe.Ranges) && j < len(old.Ranges) {
		a, b := &probe.Ranges[i], &old.Ranges[j]
		switch {
		case a.Col < b.Col:
			i++
		case a.Col > b.Col:
			j++
		default:
			score += wRange * rangeAffinity(*a, *b)
			i++
			j++
		}
	}
	return score
}

// MaskSimilarity is the mask-and-join part of Similarity — everything that
// depends only on the column, operator-class and join bitmasks, not on the
// per-column interval values. It performs exactly the floating-point
// operations Similarity performs before its range merge-join, in the same
// order, so Similarity(probe, old) continues from this value bit for bit;
// the pool's signature-class index relies on that to score a whole class of
// range-value-variant signatures with one call.
func (probe *Signature) MaskSimilarity(old *Signature) float64 {
	shared := probe.Cols & old.Cols
	score := wSharedCol*float64(popcount(shared)) -
		wExtraOldCol*float64(popcount(old.Cols&^probe.Cols)) -
		wExtraNewCol*float64(popcount(probe.Cols&^old.Cols))
	for c := 0; c < NumOpClass; c++ {
		score += wOpClass * float64(popcount(probe.Ops[c]&old.Ops[c]&shared))
	}
	score += wSharedJoin*float64(popcount(probe.Joins&old.Joins)) -
		wJoinDiff*float64(popcount(probe.Joins^old.Joins))
	return score
}

// SimilarityBound bounds Similarity over a signature CLASS: given a pattern
// signature (masks plus range shapes; the range VALUES are ignored), it
// returns an upper bound on Similarity(probe, m) over every signature m
// sharing the pattern's masks and per-column boundedness/emptiness shape,
// and reports whether the score is flat — the same, bit for bit, for every
// such m (no matched column's affinity depends on the member's bound
// values). The bound accumulates in Similarity's exact operation order with
// pointwise-greater-or-equal addends, so floating-point monotonicity makes
// it a true upper bound of every member's computed score.
func (probe *Signature) SimilarityBound(pattern *Signature) (ub float64, flat bool) {
	ub = probe.MaskSimilarity(pattern)
	flat = true
	i, j := 0, 0
	for i < len(probe.Ranges) && j < len(pattern.Ranges) {
		a, b := &probe.Ranges[i], &pattern.Ranges[j]
		switch {
		case a.Col < b.Col:
			i++
		case a.Col > b.Col:
			j++
		default:
			maxAff, constant := rangeAffinityBound(a.shape(), b.shape())
			ub += wRange * maxAff
			flat = flat && constant
			i++
			j++
		}
	}
	return ub, flat
}

// rangeAffinityBound is the per-column case analysis behind SimilarityBound:
// given the shapes of a and b, the maximum rangeAffinity(a, b') over all b'
// sharing b's column and shape, and whether the affinity is the same
// constant for every such b'. The cases mirror rangeAffinity exactly:
//
//   - either side empty: always -1;
//   - both sides half-bounded on the SAME side (lo,lo or hi,hi): never
//     provably disjoint, never measurable — always 0.5;
//   - both sides fully bounded: Jaccard in [0,1] or disjoint, max 1;
//   - any other mix (opposing half-bounds, or half against full): disjoint
//     or the flat half-bounded overlap score, max 0.5.
func rangeAffinityBound(sa, sb byte) (maxAff float64, constant bool) {
	switch {
	case (sa|sb)&shapeEmpty != 0:
		return -1, true
	case sa == 0 || sb == 0:
		// Defensive: computed signatures never carry a fully unbounded range.
		return 0, true
	case sa == sb && sa != shapeBoth:
		return 0.5, true
	case sa == shapeBoth && sb == shapeBoth:
		return 1, false
	default:
		return 0.5, false
	}
}

// rangeAffinity returns the interval similarity of two per-column ranges in
// [-1, 1]: 1 for identical bounded ranges, a Jaccard-style fraction for
// partial overlap, 0 when one side is effectively unbounded, and -1 for
// provably disjoint ranges (the pair's rates are pinned at 0, the candidate
// is dead weight) — an empty range is disjoint from everything.
func rangeAffinity(a, b ColRange) float64 {
	if !a.meet(&b) {
		return -1
	}
	// Jaccard on bounded intervals; a half-bounded pair that overlaps has no
	// measurable fraction and scores a flat weak signal. The overlap is
	// nonempty here, and rounding spans wider than 2^53 is monotone, so the
	// fraction cannot pass 1; the cap states the bound rangeAffinityBound's
	// maximum relies on in the code rather than in that argument.
	switch sa, sb := a.shape(), b.shape(); {
	case sa == 0 || sb == 0:
		return 0
	case sa != shapeBoth || sb != shapeBoth:
		return 0.5
	}
	inter := span(max(a.Lo, b.Lo), min(a.Hi, b.Hi))
	return min(inter/(span(a.Lo, a.Hi)+span(b.Lo, b.Hi)-inter), 1)
}

// span returns the element count of [lo, hi], lo ≤ hi. The difference is
// taken in uint64, where it cannot wrap: a span wider than int64 counts
// right, and every other span rounds to float64 exactly as its int64
// difference would.
func span(lo, hi int64) float64 { return float64(uint64(hi)-uint64(lo)) + 1 }

// popcount narrows bits.OnesCount64 (a compiler intrinsic — a single POPCNT
// on amd64) at the scoring loop's call sites.
func popcount(x uint64) int { return bits.OnesCount64(x) }

// PatternKey returns a value-free binary encoding of the signature: the
// three mask sets plus, per range, the column hash, which sides are bounded
// and whether it is empty — but not the bound values. Two signatures share
// a PatternKey exactly when every probe's Similarity walk hits the same case
// structure against both, differing only where rangeAffinity reads bound
// values; the pool's inverted index partitions each FROM clause's entries
// into such classes.
func (s Signature) PatternKey() string {
	buf := make([]byte, 0, 5*8+len(s.Ranges)*9)
	buf = binary.BigEndian.AppendUint64(buf, s.Cols)
	buf = binary.BigEndian.AppendUint64(buf, s.Joins)
	for _, m := range s.Ops {
		buf = binary.BigEndian.AppendUint64(buf, m)
	}
	for i := range s.Ranges {
		buf = binary.BigEndian.AppendUint64(buf, s.Ranges[i].Col)
		buf = append(buf, s.Ranges[i].shape())
	}
	return string(buf)
}
