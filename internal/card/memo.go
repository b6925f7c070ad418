package card

import (
	"sync"
	"sync/atomic"

	"crn/internal/pool"
	"crn/internal/query"
)

// Memo holds the output of the Figure 8 loop per probe, checked against what
// produced it: the probe's canonical key, the generation of the rate model
// and the stamp of the probe's FROM clause at selection (see
// pool.AppendSelection). A recurring probe whose entry matches the current
// generation and whose clause is still at the stamp is answered from the
// memo before selection, skipping selection, the rate pass and the final
// function; the recency stamping its selection would have done is replayed
// (pool.ReplaySelection), so a bounded pool evicts what it would have
// without the memo.
//
// No pool mutation needs to reach the memo. Selection over a clause reads
// only that clause's entries, and every insert, eviction or cardinality
// change there gives the clause a newer stamp, so the entry misses, while a
// mutation on another clause leaves it valid. A new generation misses by its
// tag. The learned path's answers are kept — the rate arm's, clamped by the
// predicate facts, and the exact ones the facts give alone — and only from
// passes that succeeded as a whole; the facts read nothing but the probe and
// its clause's entries, so the same witness covers them. A fallback answer
// is not kept. The memo holds at most its capacity of probes and is
// cleared when full. Its methods are safe for concurrent use and on a nil
// *Memo.
type Memo struct {
	mu           sync.RWMutex
	cap          int
	entries      map[string]memoEntry
	hits, misses atomic.Uint64
}

// memoEntry is one probe's answer with what it was computed from. ids lists
// the selected entries only where a replay must re-stamp them: a bounded
// selection on a capacity-bounded pool.
type memoEntry struct {
	gen   uint64
	stamp uint64
	est   float64
	ids   []int64
}

// NewMemo creates a memo of at most capacity probes (at least one).
func NewMemo(capacity int) *Memo {
	return &Memo{cap: max(capacity, 1), entries: make(map[string]memoEntry)}
}

// Flush discards every entry.
func (m *Memo) Flush() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.entries = make(map[string]memoEntry)
	m.mu.Unlock()
}

// Stats returns the lookups by result and the number of probes held.
func (m *Memo) Stats() (hits, misses uint64, entries int) {
	if m == nil {
		return 0, 0, 0
	}
	m.mu.RLock()
	entries = len(m.entries)
	m.mu.RUnlock()
	return m.hits.Load(), m.misses.Load(), entries
}

// recall returns q's memoized estimate when its entry was computed under
// generation gen over its clause's current stamp on p, replaying the
// recency stamping of the entry's selection (k is the selection's bound).
// The caller counts the lookup (see count): a miss only once selection found
// the probe a usable candidate, since a probe without one is the fallback's.
func (m *Memo) recall(gen uint64, p *pool.Pool, k int, q query.Query) (float64, bool) {
	if m == nil {
		return 0, false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	// The read lock spans the replay: store reuses an entry's ids in place.
	e, ok := m.entries[q.Key()]
	if !ok || e.gen != gen || !p.ReplaySelection(q, k, e.stamp, e.ids) {
		return 0, false
	}
	return e.est, true
}

// count adds one call's lookups by result.
func (m *Memo) count(hits, misses uint64) {
	if m == nil {
		return
	}
	m.hits.Add(hits)
	m.misses.Add(misses)
}

// store keeps every answer the loop computed on the learned path, tagged with
// the generation read before the pass and the clause stamp read under its
// selection: either tag can be older than what the value was computed from,
// never newer. withIDs keeps the selected entry IDs for the replay.
func (m *Memo) store(gen uint64, queries []query.Query, spans []span, arena []pool.Entry, out []float64, withIDs bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, q := range queries {
		sp := spans[i]
		if !sp.fresh {
			continue
		}
		old, ok := m.entries[q.Key()]
		if !ok && len(m.entries) >= m.cap {
			m.entries = make(map[string]memoEntry)
		}
		var ids []int64
		if withIDs {
			ids = old.ids[:0] // readers hold the read lock: reuse is safe
			for _, c := range arena[sp.lo:sp.hi] {
				ids = append(ids, c.ID)
			}
		}
		m.entries[q.Key()] = memoEntry{gen: gen, stamp: sp.stamp, est: out[i], ids: ids}
	}
}
