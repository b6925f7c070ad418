package pool

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"slices"
	"sync/atomic"

	"crn/internal/query"
	"crn/internal/schema"
	"crn/internal/sqlparse"
)

// The queries pool is envisioned as DBMS meta information that outlives a
// session (§5.2); Save/Load persist it as (SQL, cardinality, last-match
// recency) records so a pool built by one process can serve estimators in
// another. A restored pool answers exactly as the saved one did: top-K
// selection and eviction both break ties on entry ID, so Save writes entries
// in ascending ID order and Load re-inserts them in that order (fresh IDs,
// same relative order), then restores the recency order from the saved
// stamps. Without the stamps a restarted bounded pool would evict in
// insertion order until traffic re-warmed the ticks, throwing away exactly
// the entries the previous process's estimates were using.

// persistEntry is the wire form of one pooled query.
type persistEntry struct {
	SQL  string
	Card int64
	// LastHit is the entry's last-match tick at save time. Only the relative
	// order matters: a restore hands out fresh ticks in (LastHit, position)
	// order.
	LastHit int64
}

// persistPool is the versioned wire envelope. The pre-envelope format was
// a bare entry slice without recency stamps, which Load still accepts;
// envelopes written before entries were saved in ID order are in recency
// order, and a restore of either loads them in their serialized order.
type persistPool struct {
	Entries []persistEntry
}

// Save serializes the pool to w in ascending entry-ID order, with each
// entry's last-match recency stamp.
func (p *Pool) Save(w io.Writer) error {
	type idEntry struct {
		id int64
		persistEntry
	}
	p.mu.RLock()
	all := make([]idEntry, 0, p.entries)
	for _, idx := range p.byFrom {
		for i, e := range idx.entries {
			all = append(all, idEntry{e.ID, persistEntry{
				SQL:     e.Q.SQL(),
				Card:    e.Card,
				LastHit: atomic.LoadInt64(&idx.lastHit[i]),
			}})
		}
	}
	p.mu.RUnlock()
	// IDs are unique, so map iteration order cannot leak into the payload.
	slices.SortFunc(all, func(a, b idEntry) int { return cmp.Compare(a.id, b.id) })
	entries := make([]persistEntry, len(all))
	for i, e := range all {
		entries[i] = e.persistEntry
	}
	if err := gob.NewEncoder(w).Encode(persistPool{Entries: entries}); err != nil {
		return fmt.Errorf("pool: save: %w", err)
	}
	return nil
}

// decodeSnapshot reads a Save payload (or a pre-envelope one, whose
// entries decode with zero LastHit) and parses every query against the
// schema.
func decodeSnapshot(s *schema.Schema, r io.Reader) ([]persistEntry, []query.Query, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("pool: load: %w", err)
	}
	var file persistPool
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&file); err != nil {
		if legacyErr := gob.NewDecoder(bytes.NewReader(raw)).Decode(&file.Entries); legacyErr != nil {
			return nil, nil, fmt.Errorf("pool: load: %w", err)
		}
	}
	qs := make([]query.Query, len(file.Entries))
	for i, e := range file.Entries {
		if qs[i], err = sqlparse.Parse(s, e.SQL); err != nil {
			return nil, nil, fmt.Errorf("pool: load entry %q: %w", e.SQL, err)
		}
	}
	return file.Entries, qs, nil
}

// Load reconstructs a pool serialized by Save, re-validating every query
// against the schema. Options configure the restored pool (WithCap bounds
// it); a snapshot larger than the cap keeps its most recently matched
// entries, so a bounded restored pool evicts in the same
// least-recently-matched order the saved pool would have.
func Load(s *schema.Schema, r io.Reader, opts ...Option) (*Pool, error) {
	entries, qs, err := decodeSnapshot(s, r)
	if err != nil {
		return nil, err
	}
	p := New(opts...)
	p.restore(entries, qs)
	return p, nil
}

// LoadInto replays a snapshot serialized by Save into an existing pool (the
// recovery path: the caller owns the pool handle shared with estimators, so
// restoring must refill that pool rather than swap in a new one). Entries
// are restored exactly as in Load; entries already pooled keep their
// current cardinality unless the snapshot disagrees, in which case the
// snapshot wins (it is the newer truth on the boot path, where the pool
// holds only seed entries), and take the snapshot's recency. Returns how
// many snapshot entries were applied (added or corrected). A payload that
// does not decode or parse leaves the pool untouched.
func LoadInto(p *Pool, s *schema.Schema, r io.Reader) (int, error) {
	entries, qs, err := decodeSnapshot(s, r)
	if err != nil {
		return 0, err
	}
	return p.restore(entries, qs), nil
}

// restore applies a decoded snapshot under one write lock: it inserts (or
// corrects) every entry in saved order without evicting, gives the
// snapshot's entries fresh ticks in (saved LastHit, saved position) order,
// rebuilds the eviction heap from the ticks, and only then evicts down to
// the cap. Returns how many entries were added or corrected.
func (p *Pool) restore(entries []persistEntry, qs []query.Query) int {
	type stamp struct {
		lastHit int64
		from    string
		id      int64
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	applied := 0
	order := make([]stamp, 0, len(qs))
	for i, q := range qs {
		card := entries[i].Card
		if card < 0 {
			continue
		}
		key := q.Key()
		id, ok := p.byKey[key]
		if !ok {
			id = p.insertLocked(q, key, card)
			applied++
		} else if p.updateCardLocked(q, key, card) {
			applied++
		}
		order = append(order, stamp{entries[i].LastHit, q.FROMKey(), id})
	}
	slices.SortStableFunc(order, func(a, b stamp) int { return cmp.Compare(a.lastHit, b.lastHit) })
	for _, o := range order {
		idx := p.byFrom[o.from]
		atomic.StoreInt64(&idx.lastHit[idx.byID[o.id]], p.tick.Add(1))
	}
	if p.cap > 0 {
		p.evictQ = p.evictQ[:0]
		for from, idx := range p.byFrom {
			for i, e := range idx.entries {
				p.evictQ = append(p.evictQ, evictRec{from: from, id: e.ID, tick: atomic.LoadInt64(&idx.lastHit[i])})
			}
		}
		for i := len(p.evictQ)/2 - 1; i >= 0; i-- {
			p.heapSink(i)
		}
		for p.entries > p.cap {
			p.evictLRULocked()
		}
	}
	return applied
}
