package pool

import "sync/atomic"

// Eviction bookkeeping for capacity-bounded pools.
//
// Candidate selection stamps last-match ticks under the read lock (atomics,
// no heap access possible there), so the eviction min-heap is maintained
// lazily: every entry has exactly one heap record pushed at Add, and a
// record's tick may go stale when selection re-stamps its entry. The victim
// search pops the heap top and, when its tick is stale, refreshes the record
// in place with the entry's current tick and re-sinks it. Under the write
// lock the last-hit stamps are frozen (stores need the read lock), so each
// record refreshes at most once per eviction and the loop terminates; each
// refresh consumes one past touch, so eviction is O(log n) amortized in the
// touches since the last eviction — replacing the pre-PR-5 full-pool scan
// that made every Add on a saturated pool O(pool).

// evictRec is one heap record: the entry it tracks (by FROM key and stable
// ID, surviving position changes from swap-removal) and the last-match tick
// observed when the record was pushed or last refreshed.
type evictRec struct {
	from string
	id   int64
	tick int64
}

// older orders heap records by (tick, id): the oldest stamp wins, ties
// broken toward the earliest insertion — the same deterministic victim the
// pre-heap linear scan selected.
func (a evictRec) older(b evictRec) bool {
	if a.tick != b.tick {
		return a.tick < b.tick
	}
	return a.id < b.id
}

// heapPush inserts a record. Callers hold the write lock.
func (p *Pool) heapPush(r evictRec) {
	p.evictQ = append(p.evictQ, r)
	i := len(p.evictQ) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !p.evictQ[i].older(p.evictQ[parent]) {
			break
		}
		p.evictQ[i], p.evictQ[parent] = p.evictQ[parent], p.evictQ[i]
		i = parent
	}
}

// heapSink restores the heap property downward from position i.
func (p *Pool) heapSink(i int) {
	n := len(p.evictQ)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && p.evictQ[l].older(p.evictQ[min]) {
			min = l
		}
		if r < n && p.evictQ[r].older(p.evictQ[min]) {
			min = r
		}
		if min == i {
			return
		}
		p.evictQ[i], p.evictQ[min] = p.evictQ[min], p.evictQ[i]
		i = min
	}
}

// heapPop removes the top record. Callers hold the write lock.
func (p *Pool) heapPop() {
	n := len(p.evictQ) - 1
	p.evictQ[0] = p.evictQ[n]
	p.evictQ = p.evictQ[:n]
	if n > 0 {
		p.heapSink(0)
	}
}

// evictLRULocked removes the entry with the oldest last-match tick, lazily
// repairing heap records whose entries were re-stamped since they were
// pushed. Every live entry of a bounded pool has exactly one record (the
// randomized eviction tests check it after every mutation), so an empty
// heap is an empty pool and there is nothing to evict. Callers hold the
// write lock.
func (p *Pool) evictLRULocked() {
	for len(p.evictQ) > 0 {
		rec := p.evictQ[0]
		idx := p.byFrom[rec.from]
		if idx == nil {
			p.heapPop() // index vanished underneath a stale record
			continue
		}
		pos, ok := idx.byID[rec.id]
		if !ok {
			p.heapPop() // entry vanished underneath a stale record
			continue
		}
		cur := atomic.LoadInt64(&idx.lastHit[pos])
		if cur != rec.tick {
			// Selection re-stamped the entry after the record was pushed:
			// refresh in place and re-sink. The stamps are frozen under the
			// write lock, so this happens at most once per record per call.
			p.evictQ[0].tick = cur
			p.heapSink(0)
			continue
		}
		p.heapPop()
		p.removeEntryLocked(rec.from, idx, pos)
		return
	}
}

// removeEntryLocked deletes the entry at pos from its FROM index by
// swap-removal (order within a FROM index carries no meaning: candidate
// selection ranks by signature or returns the whole set), fixes the moved
// entry's position record, bumps the version and notifies listeners with
// the evicted key. Callers hold the write lock.
func (p *Pool) removeEntryLocked(from string, idx *fromIndex, pos int) {
	e := idx.entries[pos]
	key := e.Q.Key()
	delete(p.byKey, key)
	delete(idx.byID, e.ID)
	if e.Card > 0 {
		idx.nPos--
	}
	// After the byID delete: indexRemove's compaction decides liveness by
	// byID membership.
	idx.indexRemove(e.Q.Signature())
	last := len(idx.entries) - 1
	if pos != last {
		idx.entries[pos] = idx.entries[last]
		atomic.StoreInt64(&idx.lastHit[pos], atomic.LoadInt64(&idx.lastHit[last]))
		idx.byID[idx.entries[pos].ID] = pos
	}
	idx.entries = idx.entries[:last]
	idx.lastHit = idx.lastHit[:last]
	idx.removeRow(pos)
	if len(idx.entries) == 0 {
		delete(p.byFrom, from)
	}
	p.entries--
	p.evictions.Add(1)
	// An emptied clause is gone from byFrom; one that comes back is a new
	// index whose first insert stamps it with a newer version.
	idx.stamp = p.notifyLocked(key)
}
