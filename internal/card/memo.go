package card

import (
	"sync"
	"sync/atomic"

	"crn/internal/pool"
	"crn/internal/query"
)

// Memo holds the output of the Figure 8 loop per probe, checked against the
// exact inputs that produced it: the probe's canonical key, its usable
// candidates in selection order as (entry ID, cardinality) pairs, and the
// generation of the rate model. A recurring probe whose candidates match is
// answered from the memo after selection, skipping the rate pass and the
// final function; selection itself, with its recency stamping, still runs.
//
// No pool mutation needs to reach the memo. Entry IDs are never reused
// within a pool and an entry's query never changes, so an insert, eviction,
// re-rank or cardinality update on the probe's FROM clause changes the
// candidate list and misses by construction, while a mutation on another
// clause leaves the entry valid. A new generation misses by its tag. Only
// answers of the rate arm are kept, and only from passes that succeeded as a
// whole. The memo holds at most its capacity of probes and is cleared when
// full. Its methods are safe for concurrent use and on a nil *Memo.
type Memo struct {
	mu           sync.RWMutex
	cap          int
	entries      map[string]memoEntry
	hits, misses atomic.Uint64
}

// memoEntry is one probe's answer with the inputs it was computed from.
type memoEntry struct {
	gen   uint64
	cands [][2]int64 // entry ID, cardinality
	est   float64
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

// matches reports whether the entry was computed under generation gen from
// exactly the candidates cands, in that order.
func (e *memoEntry) matches(gen uint64, cands []pool.Entry) bool {
	if e.gen != gen || len(e.cands) != len(cands) {
		return false
	}
	for i := range cands {
		if e.cands[i] != [2]int64{cands[i].ID, cands[i].Card} {
			return false
		}
	}
	return true
}

// lookup answers into out every probe whose entry matches its selected
// candidates and marks its span as answered. A probe without candidates is
// the fallback's, so it is not looked up.
func (m *Memo) lookup(gen uint64, queries []query.Query, spans []span, arena []pool.Entry, out []float64) {
	var hits, misses uint64
	m.mu.RLock()
	for i, q := range queries {
		sp := &spans[i]
		if sp.lo == sp.hi {
			continue
		}
		if e, ok := m.entries[q.Key()]; ok && e.matches(gen, arena[sp.lo:sp.hi]) {
			out[i], sp.pair = e.est, -1
			hits++
		} else {
			misses++
		}
	}
	m.mu.RUnlock()
	m.hits.Add(hits)
	m.misses.Add(misses)
}

// store keeps every answer the loop computed from the rate arm, tagged with
// the generation read before the pass: a tag can be older than the model
// that computed the value, never newer.
func (m *Memo) store(gen uint64, queries []query.Query, spans []span, arena []pool.Entry, out []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, q := range queries {
		if sp := spans[i]; sp.fresh {
			old, ok := m.entries[q.Key()]
			if !ok && len(m.entries) >= m.cap {
				m.entries = make(map[string]memoEntry)
			}
			cands := old.cands[:0] // readers hold the read lock: reuse is safe
			for _, c := range arena[sp.lo:sp.hi] {
				cands = append(cands, [2]int64{c.ID, c.Card})
			}
			m.entries[q.Key()] = memoEntry{gen: gen, cands: cands, est: out[i]}
		}
	}
}
