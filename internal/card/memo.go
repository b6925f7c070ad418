package card

import (
	"cmp"
	"slices"
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
// predicate relations, and the exact ones the relations give alone — and
// only from passes that succeeded as a whole; the relations read nothing but
// the probe and its clause's entries, so the same witness covers them. A
// fallback answer is not kept.
//
// A probe that recurs across a stamp keeps its candidates' rates too. A
// containment rate depends only on its two queries and the rate model, and a
// pool entry ID names one query for the life of the pool, so from a probe's
// second store on (the store of a key that already has an entry) its entry
// also holds each voting candidate's ID with the (x_rate, y_rate) its vote
// used. A stamp miss under the entry's generation then reuses them by ID:
// after a cardinality update or an eviction on the clause the pass runs no
// rate model at all, and after an insert only the new entry's pairs. A
// never-repeating probe stream keeps no rates.
//
// The memo holds at most its capacity of probes and ratesPerProbe kept
// candidates per unit of it. When a store finds either bound full, the memo
// sweeps: it drops every probe no recall has found since the previous sweep
// (a found probe was answered, or handed its kept rates) and unmarks the
// rest, so a never-repeating probe stream flows through the memo while the
// probes that recur stay answered. A sweep that frees less than an eighth
// of the capacity clears the memo instead, entries and rates together,
// which keeps a sweep's cost amortized over the stores that follow it.
// Marking costs a recall one atomic load, and one store on its probe's
// first find after a sweep. Its methods are safe for concurrent use and on
// a nil *Memo.
type Memo struct {
	mu           sync.RWMutex
	cap          int
	entries      map[string]*memoEntry
	rates        int // kept candidates across entries
	hits, misses atomic.Uint64
}

// ratesPerProbe bounds the kept candidates per unit of memo capacity: room
// for a few dozen candidates per probe, the shape a pool scan produces.
const ratesPerProbe = 48

// memoEntry is one probe's answer with what it was computed from. ids lists
// the selected entries only where a replay must re-stamp them: a bounded
// selection on a capacity-bounded pool. rates holds the voting candidates'
// rates, by ascending ID, once the probe has recurred. found marks an entry
// a recall has found since the last sweep; recall sets it under the read
// lock.
type memoEntry struct {
	gen   uint64
	stamp uint64
	est   float64
	ids   []int64
	rates []keptRate
	found atomic.Bool
}

// keptRate is one candidate's rates as its vote used them: x_rate =
// Qold ⊂% Qnew and y_rate = Qnew ⊂% Qold, the side a relation fixes
// included.
type keptRate struct {
	id   int64
	rate [2]float64
}

func byID(c keptRate, id int64) int { return cmp.Compare(c.id, id) }

// NewMemo creates a memo of at most capacity probes (at least one).
func NewMemo(capacity int) *Memo {
	return &Memo{cap: max(capacity, 1), entries: make(map[string]*memoEntry)}
}

// Flush discards every entry.
func (m *Memo) Flush() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.clear()
	m.mu.Unlock()
}

// clear discards every entry and kept rate. Callers hold mu for writing.
func (m *Memo) clear() {
	m.entries = make(map[string]*memoEntry)
	m.rates = 0
}

// sweep drops every entry no recall has found since the previous sweep,
// except keep's (the one being stored), and unmarks the others; when that
// frees less than an eighth of the capacity it clears the memo instead.
// Callers hold mu for writing.
func (m *Memo) sweep(keep string) {
	before := len(m.entries)
	for key, e := range m.entries {
		switch {
		case key == keep:
		case e.found.Load():
			e.found.Store(false)
		default:
			delete(m.entries, key)
			m.rates -= len(e.rates)
		}
	}
	if before-len(m.entries) < max(m.cap/8, 1) {
		m.clear()
	}
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
// When the entry is of generation gen but its stamp is stale, the rates it
// kept are appended to kept instead, by ascending ID, for the pass to reuse.
// The caller counts the lookup (see count): a miss only once selection found
// the probe a usable candidate, since a probe without one is the fallback's.
func (m *Memo) recall(gen uint64, p *pool.Pool, k int, q query.Query, kept []keptRate) (float64, bool, []keptRate) {
	if m == nil {
		return 0, false, kept
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	// The read lock spans the replay and the copy: store reuses an entry's
	// ids and rates in place.
	e, ok := m.entries[q.Key()]
	if !ok || e.gen != gen {
		return 0, false, kept
	}
	if !e.found.Load() {
		e.found.Store(true)
	}
	if p.ReplaySelection(q, k, e.stamp, e.ids) {
		return e.est, true, kept
	}
	return 0, false, append(kept, e.rates...)
}

// count adds one call's lookups by result.
func (m *Memo) count(hits, misses uint64) {
	if m == nil {
		return
	}
	m.hits.Add(hits)
	m.misses.Add(misses)
}

// store keeps every answer the call computed on the learned path, tagged
// with the generation read before the pass and the clause stamp read under
// its selection: either tag can be older than what the value was computed
// from, never newer. withIDs keeps the selected entry IDs for the replay.
// A probe that already has an entry also keeps its voting candidates' rates.
func (m *Memo) store(gen uint64, queries []query.Query, s *scratch, out []float64, withIDs bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, q := range queries {
		sp := &s.spans[i]
		if !sp.fresh {
			continue
		}
		key := q.Key()
		e, ok := m.entries[key]
		if !ok {
			if len(m.entries) >= m.cap {
				m.sweep(key)
			}
			e = new(memoEntry)
		}
		// Readers hold the read lock: rewriting e in place is safe.
		m.rates -= len(e.rates)
		e.gen, e.stamp, e.est = gen, sp.stamp, out[i]
		e.ids, e.rates = e.ids[:0], e.rates[:0]
		if withIDs {
			for _, c := range s.arena[sp.lo:sp.hi] {
				e.ids = append(e.ids, c.ID)
			}
		}
		if ok && !sp.done {
			for k := sp.lo; k < sp.hi; k++ {
				if s.rels[k] != query.Disjoint {
					e.rates = append(e.rates, keptRate{s.arena[k].ID, s.rates[k]})
				}
			}
			slices.SortFunc(e.rates, func(a, b keptRate) int { return byID(a, b.id) })
		}
		if limit := ratesPerProbe * m.cap; m.rates+len(e.rates) > limit {
			if m.sweep(key); m.rates+len(e.rates) > limit {
				m.clear()
				e.rates = e.rates[:0]
			}
		}
		m.rates += len(e.rates)
		m.entries[key] = e
	}
}
