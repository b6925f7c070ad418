package pool

import "slices"

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

func newTopKHeap(k int) *topKHeap {
	return &topKHeap{refs: make([]scoredRef, 0, k), k: k}
}

func (h *topKHeap) offer(r scoredRef) {
	if len(h.refs) < h.k {
		h.refs = append(h.refs, r)
		h.up(len(h.refs) - 1)
		return
	}
	if !r.better(h.refs[0]) {
		return
	}
	h.refs[0] = r
	h.down(0)
}

// full reports whether the heap holds k candidates; h.refs[0] is then the
// worst kept candidate, the pruning threshold of the indexed path.
func (h *topKHeap) full() bool { return len(h.refs) == h.k }

func (h *topKHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		// Invariant: a parent is WORSE than (or equal to) its children, so
		// the root is the worst kept candidate. Sift up while the parent is
		// better than the new element.
		if !h.refs[p].better(h.refs[i]) {
			return
		}
		h.refs[p], h.refs[i] = h.refs[i], h.refs[p]
		i = p
	}
}

func (h *topKHeap) down(i int) {
	n := len(h.refs)
	for {
		worst := i
		if l := 2*i + 1; l < n && h.refs[worst].better(h.refs[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && h.refs[worst].better(h.refs[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.refs[i], h.refs[worst] = h.refs[worst], h.refs[i]
		i = worst
	}
}

// sorted returns the selected candidates best-first (score descending, ID
// ascending on ties) — the deterministic output order of TopK.
func (h *topKHeap) sorted() []scoredRef {
	refs := h.refs
	slices.SortFunc(refs, func(a, b scoredRef) int {
		switch {
		case a.better(b):
			return -1
		case b.better(a):
			return 1
		}
		return 0
	})
	return refs
}
