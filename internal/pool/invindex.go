// Signature-class index: sublinear bounded candidate selection.
//
// Bounded selection keeps the k candidates of a FROM clause that score best
// against the probe's signature. Scoring every entry makes its cost linear
// in the clause's size; this file prunes that walk without changing a
// single selected candidate: selection through the index is bit-identical
// to the linear scan, for every probe, every k, and every mutation history.
//
// # Structure
//
// Each fromIndex partitions its entries into signature CLASSES keyed by the
// signature's value-free pattern (column/op/join bitmasks plus each range's
// column hash, bounded sides and emptiness — query.Signature.PatternKey).
// Real workloads are template-driven: thousands of entries collapse into a
// handful of classes (the inverted-index posting lists, one per distinct
// column-mask bit pattern). A class keeps the ascending list of its member
// IDs.
//
// # Why scoring whole classes at once is exact
//
// Similarity(probe, m) reads m's masks and range SHAPE everywhere except
// rangeAffinity's value comparisons, so over one class the probe's scoring
// walk is structurally fixed. SimilarityBound therefore gives a true
// per-class upper bound (accumulated in Similarity's exact operation order
// with pointwise-≥ addends, so floating-point monotonicity applies) and
// detects FLAT classes, where no matched column's affinity depends on member
// values: every member scores bit-identically, and one Similarity call
// covers the class. A non-flat class is scored member by member.
//
// Classes are visited in descending upper-bound order; once the heap holds k
// candidates and the next class's bound is strictly below the worst kept
// score, no remaining member can be selected (it would lose the heap
// comparison anyway) and the walk stops. Within a flat class IDs ascend, so
// the first rejected member proves all later ones rejected too. Every
// skipped candidate is thus one the heap itself would have rejected — and
// the heap's kept set is order-independent (better-ness is a strict total
// order) — so the selected set, scores and output order equal the linear
// scan's exactly.
//
// # Coherence and cost
//
// The index mutates only under the pool's write lock, alongside the
// structures it mirrors: Add appends to a class list, eviction leaves a
// tombstone (membership is "still present in byID") plus a dead counter,
// and a list compacts when its tombstones outnumber its live members — O(1)
// amortized per mutation, no rebuild, and the clause stamp moves exactly as
// without the index. Selection pays for itself only where classes recur:
// each class costs a bound computation and a place in the bound sort, so
// with nearly one class per entry the index does the scan's work twice.
// Past a density threshold — more than one class per classDensityDiv
// entries, on a FROM clause of any size — TopK takes the linear scan instead
// and reports it in Stats.IndexFallbacks. Both paths select bit-identically,
// so the choice moves only time.
package pool

import (
	"cmp"
	"slices"

	"crn/internal/query"
)

// classDensityDiv is the density threshold divisor: a FROM clause with more
// than len(entries)/classDensityDiv classes (average class smaller than
// classDensityDiv members) gains too little from class-at-a-time scoring to
// pay for ranking the classes, so selection falls back to the linear scan.
const classDensityDiv = 4

// sigClass is one value-free signature pattern (see PatternKey): members
// share every mask and range shape, differing only in range bound values.
type sigClass struct {
	pat  query.Signature // representative member signature; pattern part read
	all  []int64         // every member ID, ascending, tombstones included
	dead int             // tombstones in all
}

// indexAdd registers a just-appended entry with the class index. The caller
// holds the write lock and has already inserted the entry into byID.
func (idx *fromIndex) indexAdd(sig query.Signature, id int64) {
	if idx.classes == nil {
		idx.classes = make(map[string]*sigClass)
	}
	ck := sig.PatternKey()
	c := idx.classes[ck]
	if c == nil {
		c = &sigClass{pat: sig}
		idx.classes[ck] = c
	}
	c.all = append(c.all, id)
}

// indexRemove records an entry's eviction. The caller holds the write lock
// and has already deleted the entry from byID (compaction relies on that).
func (idx *fromIndex) indexRemove(sig query.Signature) {
	if idx.classes == nil {
		return
	}
	ck := sig.PatternKey()
	c := idx.classes[ck]
	if c == nil {
		return
	}
	c.dead++
	switch live := len(c.all) - c.dead; {
	case live == 0:
		delete(idx.classes, ck)
	case c.dead > live:
		c.all = compactIDs(c.all, idx.byID)
		c.dead = 0
	}
}

// compactIDs filters an ID list down to the IDs still present in byID,
// in place, preserving ascending order.
func compactIDs(ids []int64, byID map[int64]int) []int64 {
	w := 0
	for _, id := range ids {
		if _, ok := byID[id]; ok {
			ids[w] = id
			w++
		}
	}
	return ids[:w]
}

// classRef is one class during selection, with its similarity upper bound.
type classRef struct {
	c    *sigClass
	ub   float64
	flat bool
}

// indexWorthwhile is the density guard: bounded selection on this FROM
// clause goes through the class index only if the index exists and the
// clause has at most one class per classDensityDiv entries. Callers hold at
// least the read lock.
func (idx *fromIndex) indexWorthwhile() bool {
	return idx.classes != nil && len(idx.classes)*classDensityDiv <= len(idx.entries)
}

// selectIndexedLocked runs bounded selection through the class index into
// sel's heap. Callers hold at least the read lock and have checked
// 0 < k < len(entries) and that the index exists. The heap's contents and
// the usable count are bit-identical to selectLinearLocked's, and visited
// reports how many candidates the class walk actually scored (the per-call
// pruning signal behind the scanned/pruned histograms).
func (p *Pool) selectIndexedLocked(sel *selector, idx *fromIndex, probe *query.Signature) (usable int, visited uint64) {
	classes := sel.classes[:0]
	for _, c := range idx.classes {
		ub, flat := probe.SimilarityBound(&c.pat)
		classes = append(classes, classRef{c: c, ub: ub, flat: flat})
	}
	slices.SortFunc(classes, func(a, b classRef) int { return cmp.Compare(b.ub, a.ub) })
	heap := &sel.heap
	for _, cr := range classes {
		if heap.full() && cr.ub < heap.refs[0].score {
			// Bounds are sorted descending: every remaining class is provably
			// below the worst kept score, so its members would all be
			// rejected. Strict <: a member tying the root can still win on ID.
			break
		}
		visited += offerClass(heap, idx, cr.c.all, cr.flat, probe)
	}
	clear(classes) // the pooled selector must not pin classes
	sel.classes = classes[:0]
	p.indexHits.Add(1)
	p.scannedIdx.Add(visited)
	return idx.nPos, visited
}

// offerClass offers one class's members in ascending ID order, skipping
// tombstones and empty-result entries exactly like the scan. In a flat class
// (no matched column's affinity reads member values) every member scores
// alike: one Similarity call covers the class, and the walk stops at the
// first rejected member — IDs ascend, so every later member loses the same
// comparison. A non-flat class's members are scored one by one and all
// offered. Returns the number of candidates visited (the scanned-counter
// contribution).
func offerClass(heap *topKHeap, idx *fromIndex, ids []int64, flat bool, probe *query.Signature) uint64 {
	var visited uint64
	var score float64
	for _, id := range ids {
		pos, present := idx.byID[id]
		if !present {
			continue // tombstone: evicted, not yet compacted
		}
		row := &idx.rows[pos]
		if row.card <= 0 {
			continue // empty-result entries are skipped exactly like the scan
		}
		visited++
		if visited == 1 || !flat {
			old := row.signature(idx.ranges)
			score = probe.Similarity(&old)
		}
		r := scoredRef{score: score, idx: pos, id: id}
		if flat && heap.full() && !r.better(heap.refs[0]) {
			break
		}
		heap.offer(r)
	}
	return visited
}
