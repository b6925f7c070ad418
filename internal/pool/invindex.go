// Inverted signature index: sublinear bounded candidate selection.
//
// PR 4's TopK bounded the estimator's PAIR count at K but still scored every
// FROM-clause signature per probe — the last O(pool) term on the serving hot
// path (~1.9 ms at 50k entries). This file removes it without changing a
// single selected candidate: selection through the index is bit-identical to
// the linear scan, for every probe, every k, and every mutation history.
//
// # Structure
//
// Each fromIndex partitions its entries into signature CLASSES keyed by the
// signature's value-free pattern (column/op/join bitmasks plus each range's
// column hash, bounded sides and emptiness — query.Signature.PatternKey).
// Real workloads are template-driven: thousands of entries collapse into a
// handful of classes (the inverted-index posting lists, one per distinct
// column-mask bit pattern). Within a class, members are grouped into BUCKETS
// of fully identical signatures (equal range values too — ValueKey), and the
// class also keeps a flat ascending list of all member IDs.
//
// # Why scoring whole classes at once is exact
//
// Similarity(probe, m) reads m's masks and range SHAPE everywhere except
// rangeAffinity's value comparisons, so over one class the probe's scoring
// walk is structurally fixed. Two consequences:
//
//   - SimilarityBound gives a true per-class upper bound (accumulated in
//     Similarity's exact operation order with pointwise-≥ addends, so
//     floating-point monotonicity applies) and detects FLAT classes, where
//     no matched column's affinity depends on member values: every member
//     scores bit-identically, one Similarity call covers the class.
//   - In a non-flat class, members of one bucket share their entire
//     signature, so one Similarity call covers the bucket.
//
// Classes are visited in descending upper-bound order; once the heap holds k
// candidates and the next class's bound is strictly below the worst kept
// score, no remaining member can be selected (it would lose the heap
// comparison anyway) and the walk stops. Within a uniform-score run (flat
// class, or one bucket) IDs ascend, so the first rejected member proves all
// later ones rejected too. Every skipped candidate is thus one the heap
// itself would have rejected — and the heap's kept set is order-independent
// (better-ness is a strict total order) — so the selected set, scores and
// output order equal the linear scan's exactly.
//
// # Coherence and cost
//
// The index mutates only under the pool's write lock, alongside the
// structures it mirrors: Add appends to class/bucket lists, eviction leaves
// a tombstone (membership is "still present in byID") plus a dead counter,
// and lists compact when tombstones outnumber live members — O(1) amortized
// per mutation, no rebuild, no extra Version() semantics (the PR 3 rep-cache
// interplay is untouched). Selection pays for itself only where classes
// recur: each class costs a bound computation and a place in the bound sort,
// so with nearly one class per entry the index does the scan's work twice.
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

// sigBucket groups the members of one signature class whose signatures are
// fully identical (equal range values). ids is ascending and append-only
// (entry IDs are unique and monotonic); evicted members stay as tombstones —
// an ID no longer present in the FROM index's byID map — counted by dead and
// filtered out on scan, until compaction rewrites the list.
type sigBucket struct {
	ids  []int64
	dead int
}

// sigClass is one value-free signature pattern (see PatternKey): members
// share every mask and range shape, differing only in range bound values.
type sigClass struct {
	pat     query.Signature // representative member signature; pattern part read
	all     []int64         // every member ID, ascending, tombstones included
	dead    int             // tombstones in all
	live    int             // live members
	buckets map[string]*sigBucket
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
		c = &sigClass{pat: sig, buckets: make(map[string]*sigBucket)}
		idx.classes[ck] = c
	}
	c.all = append(c.all, id)
	c.live++
	vk := sig.ValueKey()
	b := c.buckets[vk]
	if b == nil {
		b = &sigBucket{}
		c.buckets[vk] = b
	}
	b.ids = append(b.ids, id)
}

// indexRemove records an entry's eviction. The caller holds the write lock
// and has already deleted the entry from byID (compaction relies on that).
func (idx *fromIndex) indexRemove(sig query.Signature, id int64) {
	if idx.classes == nil {
		return
	}
	ck := sig.PatternKey()
	c := idx.classes[ck]
	if c == nil {
		return
	}
	c.live--
	c.dead++
	if c.live <= 0 {
		delete(idx.classes, ck)
		return
	}
	vk := sig.ValueKey()
	if b := c.buckets[vk]; b != nil {
		b.dead++
		if b.dead >= len(b.ids) {
			delete(c.buckets, vk)
		} else if b.dead > len(b.ids)-b.dead {
			b.ids = compactIDs(b.ids, idx.byID)
			b.dead = 0
		}
	}
	if c.dead > c.live {
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

// selectIndexedLocked runs bounded selection through the class index.
// Callers hold at least the read lock and have checked 0 < k < len(entries)
// and that the index exists. The returned refs and usable count are
// bit-identical to selectLinearLocked's, and visited reports how many
// candidates the class walk actually scored (the per-call pruning signal
// behind the scanned/pruned histograms).
func (p *Pool) selectIndexedLocked(idx *fromIndex, probe query.Signature, k int) (refs []scoredRef, usable int, visited uint64) {
	classes := make([]classRef, 0, len(idx.classes))
	for _, c := range idx.classes {
		ub, flat := probe.SimilarityBound(c.pat)
		classes = append(classes, classRef{c: c, ub: ub, flat: flat})
	}
	slices.SortFunc(classes, func(a, b classRef) int { return cmp.Compare(b.ub, a.ub) })
	heap := newTopKHeap(k)
	for _, cr := range classes {
		if heap.full() && cr.ub < heap.refs[0].score {
			// Bounds are sorted descending: every remaining class is provably
			// below the worst kept score, so its members would all be
			// rejected. Strict <: a member tying the root can still win on ID.
			break
		}
		if cr.flat {
			visited += offerRun(heap, idx, cr.c.all, probe)
			continue
		}
		// Bucket visit order is irrelevant: the heap's kept set is
		// order-independent.
		for _, b := range cr.c.buckets {
			visited += offerRun(heap, idx, b.ids, probe)
		}
	}
	p.indexHits.Add(1)
	p.scannedIdx.Add(visited)
	return heap.sorted(), idx.nPos, visited
}

// offerRun offers one uniform-score run of member IDs: a flat class's whole
// list (no matched column's affinity reads member values) or one bucket of a
// non-flat class (members share their full signature). One Similarity call
// covers the run, and iteration stops at the first rejected member — IDs
// ascend, so every later member loses the same comparison. Returns the
// number of candidates visited (the scanned-counter contribution).
func offerRun(heap *topKHeap, idx *fromIndex, ids []int64, probe query.Signature) uint64 {
	var visited uint64
	scored := false
	var score float64
	for _, id := range ids {
		pos, present := idx.byID[id]
		if !present {
			continue // tombstone: evicted, not yet compacted
		}
		if idx.entries[pos].Card <= 0 {
			continue // empty-result entries are skipped exactly like the scan
		}
		visited++
		if !scored {
			score = probe.Similarity(idx.entries[pos].Q.Signature())
			scored = true
		}
		r := scoredRef{score: score, idx: pos, id: id}
		if heap.full() && !r.better(heap.refs[0]) {
			break
		}
		heap.offer(r)
	}
	return visited
}
