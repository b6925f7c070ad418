// Package card implements the paper's novel cardinality-estimation
// technique (§5): given a containment-rate estimation model and a queries
// pool of previously executed queries with known cardinalities, the
// cardinality of a new query Qnew is estimated from every matching old
// query Qold via the Cnt2Crd transformation (§5.1.1)
//
//	|Qnew| = (Qold ⊂% Qnew) / (Qnew ⊂% Qold) · |Qold|
//
// collecting one estimate per old query and collapsing them with a final
// function F (Median by default) — the EstimateCardinality algorithm of
// Figure 8. The package also provides the Improved-M construction of §7:
// Improved M = Cnt2Crd(Crd2Cnt(M)), which upgrades any existing cardinality
// model without changing the model itself.
//
// The deployment of §5.2 is a DBMS answering estimation requests while it
// keeps executing queries, so the estimator is batch-first: EstimateCards
// runs one amortized rate pass over the pool pairs of every query in the
// batch, and all entry points accept a context for cancellation.
//
// The rate pass computes only the rates the predicates leave open. Over one
// FROM clause, query.Relate proves from the join lists and per-column value
// ranges alone that Qnew is disjoint from a candidate (both rates 0: it
// casts no vote), a subset of it (y_rate = 1) or a superset of it
// (x_rate = 1). A contradictory Qnew is answered 0, and a Qnew with an
// equivalent candidate that candidate's |Qold|, with no rate at all; every
// other answer is clamped between the largest |Qold| Qnew contains and the
// smallest one containing it. Improved M goes through the same loop.
package card

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"crn/internal/contain"
	"crn/internal/guard/failpoint"
	"crn/internal/pool"
	"crn/internal/query"
	"crn/internal/telemetry"
)

// DefaultEpsilon is the y_rate guard of Figure 8: matching old queries with
// Qnew ⊂% Qold ≤ ε are skipped, since the transformation divides by that
// rate ("if y_rate <= epsilon: continue" — the paper's "y equals zero"
// comment implies a tight guard; selective old queries with small but real
// overlap are still informative).
const DefaultEpsilon = 1e-3

// ErrNoPoolMatch is the sentinel returned (wrapped) when a query has no
// usable pool match — no pooled query shares its FROM clause, or every
// candidate was skipped by the ε guard — and no Fallback is configured.
// Callers match it with errors.Is.
var ErrNoPoolMatch = errors.New("card: no matching pool query")

// Estimator estimates cardinalities with the pool-based technique. It
// implements contain.CardEstimator; EstimateCardCtx and EstimateCards add
// cancellation and batching.
type Estimator struct {
	// Rates estimates containment rates between query pairs.
	Rates contain.RateEstimator
	// Pool supplies the old queries and their actual cardinalities.
	Pool *pool.Pool
	// Final collapses per-old-query estimates (nil = Median, the paper's
	// choice).
	Final pool.FinalFunc
	// Epsilon is the y_rate guard (0 = DefaultEpsilon).
	Epsilon float64
	// Fallback, if non-nil, answers queries with no usable pool match
	// (different FROM clause or all matches skipped); the paper suggests
	// falling back to a basic cardinality model (§5.2). A nil Fallback
	// makes such queries an error.
	Fallback contain.CardEstimator
	// Deprecated: not read; every rate model batches internally.
	Workers int
	// MaxCandidates bounds the per-query pool scan: when positive, only the
	// MaxCandidates most containment-comparable old queries (Pool.TopK's
	// signature ranking) enter the Figure 8 loop, making per-estimate cost
	// O(K) in pool size instead of O(pool). 0 scans every FROM-clause match
	// (the paper's algorithm, bit-identical to pre-bound behavior); any K at
	// least the matching count is likewise bit-identical, because TopK
	// degenerates to the full scan in original order.
	MaxCandidates int
	// Tel, when non-nil, receives the estimator's stage spans (candidate
	// selection, finalize) and notes every served estimate with its arm
	// (CRN vs fallback) into the live accuracy ring. Set before serving;
	// nil keeps the path free of clock reads.
	Tel *telemetry.Telemetry
	// Memo, when non-nil, answers a recurring probe whose FROM clause is
	// still at the stamp its memoized pass selected under, on the same
	// model generation, and lends a probe that recurred across a mutation
	// its candidates' kept rates (see Memo). It engages only when Rates
	// reports a generation (a Generation() uint64 method). Set before
	// serving.
	Memo *Memo
}

// span locates one query of a batch in the scratch: its usable candidates
// arena[lo:hi] with their relations and rates, the stamp of its FROM clause
// at selection, and the bounds the relations put on |Qnew|: floor, the
// largest |Qold| of a candidate it contains, and ceil, the smallest |Qold| of
// one containing it. done marks a query answered without the vote — by the
// memo, or exactly by its relations; fresh an answer this call computed and
// the memo keeps.
type span struct {
	lo, hi      int
	stamp       uint64
	floor, ceil float64
	done, fresh bool
}

// clamp bounds an estimate by the span's relations. A bound only ever moves an
// estimate toward the true cardinality, which lies between them; an unset
// bound (floor 0, ceil +Inf) leaves every value, NaN and -0 included, as
// it is.
func (sp *span) clamp(v float64) float64 {
	if v < sp.floor {
		v = sp.floor
	}
	if v > sp.ceil {
		v = sp.ceil
	}
	return v
}

// scratch is the working memory of one EstimateCards call. It is pooled at
// package level — an Estimator built as a struct literal gets it too — and
// holds, between calls, no pool entry and no query: release clears what the
// call wrote before the scratch goes back.
type scratch struct {
	spans   []span
	arena   []pool.Entry     // every query's candidates, back to back
	rels    []query.Relation // Qnew's relation to each arena candidate
	rates   [][2]float64     // each arena candidate's (x_rate, y_rate)
	kept    []keptRate       // one probe's rates the memo kept
	list    []query.Query    // probes and distinct candidates
	idx     [][2]int         // rate pairs as indices into list
	slot    []int            // each pair's rate: 2·arena index + side
	seen    map[int64]int    // entry ID -> index in list
	results []float64        // one query's per-candidate estimates
}

// maxScratchEntries bounds what a pooled scratch may retain, per slice (the
// pair lists hold two elements per candidate). A call that grew any of them
// beyond it — a 65 536-query frame gathers ~90 MB — drops its scratch instead
// of parking it in the pool; at the bound one scratch is ~2.5 MB.
const maxScratchEntries = 8192

// maxScratchMapEntries bounds the seen map separately and much lower: a map
// never shrinks and clear(map) costs its capacity, not its length, so one
// call that met a few thousand distinct pool entries would leave every later
// call on that scratch — a 3 µs single estimate included — clearing ~280 KB.
// A map a call filled beyond the bound is replaced instead of cleared; at the
// bound clearing it is ~35 KB.
const maxScratchMapEntries = 1024

var scratchPool = sync.Pool{New: func() any {
	return &scratch{seen: make(map[int64]int)}
}}

// oversize reports whether a call grew the scratch beyond what the pool may
// retain.
func (s *scratch) oversize() bool {
	return cap(s.spans) > maxScratchEntries || cap(s.arena) > maxScratchEntries ||
		cap(s.rels) > maxScratchEntries || cap(s.rates) > maxScratchEntries ||
		cap(s.kept) > maxScratchEntries || cap(s.list) > maxScratchEntries ||
		cap(s.idx) > 2*maxScratchEntries || cap(s.slot) > 2*maxScratchEntries ||
		cap(s.results) > maxScratchEntries
}

// reset empties the scratch for its next call: every element a call wrote is
// zeroed, the slices keep their capacity, the map its up to
// maxScratchMapEntries.
func (s *scratch) reset() {
	clear(s.arena)
	clear(s.list)
	// A call only inserts, so the map's length here is that call's peak, and
	// no earlier call's peak was above the bound or the map would be gone.
	if len(s.seen) > maxScratchMapEntries {
		s.seen = make(map[int64]int)
	} else {
		clear(s.seen)
	}
	s.spans, s.arena, s.rels, s.rates, s.list = s.spans[:0], s.arena[:0], s.rels[:0], s.rates[:0], s.list[:0]
	s.idx, s.slot, s.results = s.idx[:0], s.slot[:0], s.results[:0]
}

// release resets the scratch and returns it to the pool, or drops it when
// the call outgrew maxScratchEntries.
func (s *scratch) release() {
	if s.oversize() {
		return
	}
	s.reset()
	scratchPool.Put(s)
}

// New creates a pool-based estimator with the paper's defaults (Median
// final function, ε = 1e-3).
func New(rates contain.RateEstimator, qp *pool.Pool) *Estimator {
	return &Estimator{Rates: rates, Pool: qp, Final: pool.Median, Epsilon: DefaultEpsilon}
}

// EstimateCard runs the EstimateCardinality algorithm of Figure 8.
func (e *Estimator) EstimateCard(qnew query.Query) (float64, error) {
	return e.EstimateCardCtx(context.Background(), qnew)
}

// EstimateCardCtx is EstimateCard with cancellation.
func (e *Estimator) EstimateCardCtx(ctx context.Context, qnew query.Query) (float64, error) {
	out, err := e.EstimateCards(ctx, []query.Query{qnew})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// EstimateCards runs Figure 8 for a whole batch of queries with one
// amortized containment-rate pass: the pool pairs of every query are
// concatenated and estimated together, so the rate model's per-call
// overhead — and, for the CRN, the set-module encodings of recurring pool
// entries — is paid once per batch instead of once per query. Results are
// identical to per-query EstimateCard calls. The call fails as a whole on
// the first query that has no usable pool match and no Fallback. With a
// Memo, every query is looked up first: one whose memoized pass ran under the
// current generation over its FROM clause's current stamp is answered with
// no selection (its recency stamping replayed) and no loop; every other
// query is selected and runs the loop, taking the rates the memo kept for
// it (see Memo) by candidate entry ID and estimating only the rest.
//
// The pass estimates only the rates the predicates leave open (see
// query.Relate): a disjoint candidate adds no pair and no vote; one Qnew is
// a subset of takes y_rate = 1 and one it is a superset of x_rate = 1, so
// only the other rate is estimated. A contradictory probe is answered 0
// and a probe with an equivalent candidate that candidate's cardinality,
// with no rate pass. Every other answer, the fallback's included, is
// clamped into its span's [floor, ceil]: |Qnew| is at least every |Qold|
// of a subset of Qnew and at most every |Qold| of a superset.
func (e *Estimator) EstimateCards(ctx context.Context, queries []query.Query) ([]float64, error) {
	if e.Rates == nil || e.Pool == nil {
		return nil, fmt.Errorf("card: estimator needs a rate model and a queries pool")
	}
	if err := failpoint.Inject(failpoint.EstimateCards); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eps := e.Epsilon
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	final := e.Final
	if final == nil {
		final = pool.Median
	}
	memo, gen := e.memoGen()
	var st telemetry.StageTimer
	var acc *telemetry.Accuracy
	if e.Tel != nil {
		// Sampled pass timer: most passes skip the clock entirely, the
		// sampled ones record candidate-selection and finalize spans at
		// inverse-probability weight (see telemetry.SampleRate).
		st = e.Tel.Stages.Sample()
		acc = e.Tel.Accuracy
	}

	// Under request coalescing this path runs for every single-query
	// estimate, so all of its working memory is pooled scratch: the call
	// allocates its result and nothing else.
	s := scratchPool.Get().(*scratch)
	defer s.release()
	out := make([]float64, len(queries))
	spans := slices.Grow(s.spans, len(queries))[:len(queries)]

	// Answer every query the memo holds, and gather every other query's pool
	// candidates into one arena, in query order: a bounded pool's recency
	// stamps, which eviction reads, then follow the order selection would.
	// Each candidate's relation is decided here, beside it, and with it its
	// rates: a disjoint candidate's are 0, so it casts no vote; the side a
	// relation fixes is 1; a candidate whose rates the memo kept for the
	// probe takes them by ID; every side still open becomes a pair of the
	// rate pass. Each probe with a pair enters the shared query list once,
	// each pool entry once per batch (recognized by its stable ID when
	// several probes share a FROM clause); pairs are index tuples, so no
	// canonical key is rendered here. A candidate contributes (Qold, Qnew)
	// unless Qnew is its superset and (Qnew, Qold) unless its subset, in
	// that order.
	arena, rels, rates := s.arena, s.rels, s.rates
	list, idx, slot, seen := s.list, s.idx, s.slot, s.seen
	var hits, misses uint64
	for i, qnew := range queries {
		est, hit, kept := memo.recall(gen, e.Pool, e.MaxCandidates, qnew, s.kept[:0])
		s.kept = kept
		if hit {
			out[i], spans[i] = est, span{done: true}
			hits++
			continue
		}
		lo := len(arena)
		var stamp uint64
		arena, stamp = e.Pool.AppendSelection(arena, qnew, e.MaxCandidates)
		// Old queries with empty results carry no information: the
		// containment rate of an empty query is 0 by definition (§2), so
		// x_rate/y_rate·0 degenerates to 0 regardless of the rates.
		w := lo
		for r := lo; r < len(arena); r++ {
			if arena[r].Card > 0 {
				if w != r {
					arena[w] = arena[r]
				}
				w++
			}
		}
		clear(arena[w:]) // the scratch must not pin what the scan dropped
		arena = arena[:w]
		spans[i] = span{lo: lo, hi: w, stamp: stamp, ceil: math.Inf(1)}
		if w > lo {
			misses++
		}
		var exact bool
		rels, est, exact = decide(rels, qnew, arena[lo:w], &spans[i])
		if exact {
			out[i], spans[i].done, spans[i].fresh = est, true, true
			rates = append(rates, make([][2]float64, w-lo)...)
			continue
		}
		qi := -1
		for k := lo; k < w; k++ {
			var r [2]float64
			if rel := rels[k]; rel != query.Disjoint {
				r = [2]float64{1, 1}
				if j, ok := slices.BinarySearchFunc(kept, arena[k].ID, byID); ok {
					r = kept[j].rate
				} else {
					if qi < 0 {
						qi = len(list)
						list = append(list, qnew)
					}
					m := &arena[k] // an Entry is 136 bytes: no per-candidate copy
					mi, ok := seen[m.ID]
					if !ok {
						mi = len(list)
						list = append(list, m.Q)
						seen[m.ID] = mi
					}
					if rel != query.Superset {
						idx, slot = append(idx, [2]int{mi, qi}), append(slot, 2*k)
					}
					if rel != query.Subset {
						idx, slot = append(idx, [2]int{qi, mi}), append(slot, 2*k+1)
					}
				}
			}
			rates = append(rates, r)
		}
	}
	s.spans, s.arena, s.rels, s.rates = spans, arena, rels, rates
	s.list, s.idx, s.slot = list, idx, slot
	if e.Tel != nil {
		st.Mark(e.Tel.Stages.CandidateSelection)
	}
	memo.count(hits, misses)

	if len(idx) > 0 {
		got, err := e.Rates.EstimateRatesIndexed(ctx, list, idx)
		// The rate model times its own cache-lookup and forward spans (see
		// crn.Rates.Stages); Touch excludes that interval from finalize.
		st.Touch()
		if err != nil {
			return nil, err
		}
		for j, at := range slot {
			rates[at/2][at%2] = got[j]
		}
	}

	fresh := 0
	for i, qnew := range queries {
		sp := &spans[i]
		if sp.done { // the memo's or the relations' answer
			if sp.fresh {
				fresh++
			}
			acc.Note(qnew.Key(), qnew.KeyHash(), out[i], telemetry.ArmCRN)
			continue
		}
		results := s.results[:0] // reused across queries; final() must not retain it
		for k := sp.lo; k < sp.hi; k++ {
			xRate, yRate := rates[k][0], rates[k][1] // Qold ⊂% Qnew, Qnew ⊂% Qold
			if yRate <= eps {
				continue
			}
			results = append(results, xRate/yRate*float64(arena[k].Card))
		}
		s.results = results
		if len(results) == 0 {
			est, err := e.fallback(ctx, qnew)
			if err != nil {
				return nil, err
			}
			out[i] = sp.clamp(est)
			acc.Note(qnew.Key(), qnew.KeyHash(), out[i], telemetry.ArmFallback)
			continue
		}
		out[i], sp.fresh = sp.clamp(final(results)), true
		fresh++
		acc.Note(qnew.Key(), qnew.KeyHash(), out[i], telemetry.ArmCRN)
	}
	if memo != nil && fresh > 0 {
		// A replay re-stamps the selected entries only on a bounded
		// selection of a capacity-bounded pool.
		memo.store(gen, queries, s, out, e.MaxCandidates > 0 && e.Pool.Cap() > 0)
	}
	if e.Tel != nil {
		st.Mark(e.Tel.Stages.Finalize)
	}
	return out, nil
}

// decide appends to rels qnew's relation to each of its candidates cands
// and narrows sp's bounds with them. It reports an exact answer instead when
// the predicates fix |Qnew|: 0 for a contradictory probe, |Qold| for an
// equivalent candidate; the relations appended are then unread.
func decide(rels []query.Relation, qnew query.Query, cands []pool.Entry, sp *span) ([]query.Relation, float64, bool) {
	if qnew.Contradictory() {
		return append(rels, make([]query.Relation, len(cands))...), 0, true
	}
	for k := range cands {
		rel, c := query.Relate(qnew, cands[k].Q), float64(cands[k].Card)
		switch rel {
		case query.Equivalent:
			return append(rels, make([]query.Relation, len(cands)-k)...), c, true
		case query.Subset:
			sp.ceil = min(sp.ceil, c)
		case query.Superset:
			sp.floor = max(sp.floor, c)
		}
		rels = append(rels, rel)
	}
	return rels, 0, false
}

// memoGen returns the memo and the rate model's generation, read before the
// pass, when the estimator has a memo and its rate model reports one.
func (e *Estimator) memoGen() (*Memo, uint64) {
	g, ok := e.Rates.(interface{ Generation() uint64 })
	if e.Memo == nil || !ok {
		return nil, 0
	}
	return e.Memo, g.Generation()
}

// FallbackCard answers qnew from the Fallback estimator alone — the answer
// a serving layer gives when it diverts the learned path — and notes it in
// the fallback arm of the live accuracy ring. Without a Fallback it fails
// with ErrNoPoolMatch.
func (e *Estimator) FallbackCard(ctx context.Context, qnew query.Query) (float64, error) {
	est, err := e.fallback(ctx, qnew)
	if err != nil {
		return 0, err
	}
	if e.Tel != nil {
		e.Tel.Accuracy.Note(qnew.Key(), qnew.KeyHash(), est, telemetry.ArmFallback)
	}
	return est, nil
}

// fallback is FallbackCard without the note: EstimateCards notes the answer
// it serves, clamped by the query's relations.
func (e *Estimator) fallback(ctx context.Context, qnew query.Query) (float64, error) {
	if e.Fallback == nil {
		return 0, fmt.Errorf("%w for FROM %q", ErrNoPoolMatch, qnew.FROMKey())
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return e.Fallback.EstimateCard(qnew)
}

// Cnt2Crd is the transformation of §5.1 as a function: it converts a
// containment-rate model plus a queries pool into a cardinality model.
func Cnt2Crd(rates contain.RateEstimator, qp *pool.Pool) contain.CardEstimator {
	return New(rates, qp)
}

// Improved applies the three-step construction of §7 to an existing
// cardinality model M: Improved M = Cnt2Crd(Crd2Cnt(M)) over the given
// pool, improving M's estimates without changing M itself.
func Improved(m contain.CardEstimator, qp *pool.Pool) *Estimator {
	return New(contain.Crd2Cnt{M: m}, qp)
}

var _ contain.CardEstimator = (*Estimator)(nil)
