package pool

// scoredRef is one candidate during top-K selection: its index in the FROM
// index plus its score. Ordering: better = higher score, ties broken by
// smaller entry ID (older insertion) for determinism.
type scoredRef struct {
	score float64
	idx   int
	id    int64
}

// better reports whether a should outrank b.
func (a scoredRef) better(b scoredRef) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.id < b.id
}

// topKHeap is a fixed-capacity min-heap on better-ness: the root is the
// WORST of the current best K, so a new candidate only pays heap work when
// it beats the root. Selection over n candidates costs O(n) score
// comparisons plus O(k log k) heap churn. Because better-ness is a strict
// total order (IDs are unique), the kept set depends only on the offered
// multiset, not the offer order — the indexed and linear selection paths
// produce bit-identical results.
type topKHeap struct {
	refs []scoredRef
	k    int
}

// reset empties the heap for a selection of k, keeping its storage.
func (h *topKHeap) reset(k int) {
	h.refs = h.refs[:0]
	h.k = k
}

// offer keeps r if it is among the k best candidates offered so far. It
// inlines into the scoring loops, so a candidate that scores below the root
// costs one comparison and no call.
func (h *topKHeap) offer(r scoredRef) {
	if len(h.refs) == h.k && r.score < h.refs[0].score {
		return
	}
	h.keep(r)
}

// keep inserts r, replacing the root once the heap is full if r is better.
func (h *topKHeap) keep(r scoredRef) {
	if len(h.refs) < h.k {
		h.refs = append(h.refs, r)
		h.up(len(h.refs) - 1)
		return
	}
	if !r.better(h.refs[0]) {
		return
	}
	h.refs[0] = r
	h.down(0, len(h.refs))
}

// full reports whether the heap holds k candidates; h.refs[0] is then the
// worst kept candidate, the pruning threshold of the indexed path.
func (h *topKHeap) full() bool { return len(h.refs) == h.k }

func (h *topKHeap) up(i int) {
	refs := h.refs
	r := refs[i]
	for i > 0 {
		p := (i - 1) / 2
		// Invariant: a parent is WORSE than its children, so the root is the
		// worst kept candidate. Move parents down while they are better than
		// r, then put r in the hole.
		if !refs[p].better(r) {
			break
		}
		refs[i] = refs[p]
		i = p
	}
	refs[i] = r
}

// down restores the heap property of refs[:n] downward from position i:
// children worse than the element there move up, and the element goes into
// the hole they leave.
func (h *topKHeap) down(i, n int) {
	refs := h.refs[:n]
	r := refs[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && refs[c].better(refs[c+1]) {
			c++ // the worse child
		}
		if !r.better(refs[c]) {
			break
		}
		refs[i] = refs[c]
		i = c
	}
	refs[i] = r
}

// sorted returns the selected candidates best-first (score descending, ID
// ascending on ties) — the deterministic output order of TopK. It sorts in
// place by popping the heap: each pop moves the worst remaining candidate
// behind the shrinking heap, so the best ends up first. Better-ness is a
// strict total order, so this is the one order any sort would produce.
func (h *topKHeap) sorted() []scoredRef {
	refs := h.refs
	for end := len(refs) - 1; end > 0; end-- {
		refs[0], refs[end] = refs[end], refs[0]
		h.down(0, end)
	}
	return refs
}
