package crn

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// RepCache is the serving cache of the §5.2 deployment: it memoizes, per
// query (by canonical key), everything the pair head needs that does not
// depend on the partner query — the set-module representations (the
// EncodeSets outputs) AND the per-representation partial products of the
// factorized head (see PairPredictor). The queries pool is stable between
// executions, so without a cache those values are recomputed endlessly:
// every estimate pays O(pool·dim) re-encoding and re-multiplying for
// entries that have not changed. With the cache, a pool entry is computed
// once per pool version and a single-query estimate computes only its own
// probe side. Rates themselves are not cached here: the estimate memo keeps
// a recurring probe's rates by pool entry (see card.Memo).
//
// The cache has one tier of values, the resident tier: one residentStore of
// append-only rows and a key→row index. One RWMutex guards the store, the
// sighting set and their replacement. A rate pass resolves its keys under
// the read lock and takes a residentView (the block table, the row count
// and the store), then reads its rows in place without the lock: rows are
// only ever appended, and a flush or compaction replaces the store instead
// of rewriting a row, so a row ID names one query for the life of its
// store. Promotions, evictions, compactions and flushes take the write
// lock, and a pass's promotions are dropped once its store is no longer the
// current one.
//
// Admission follows a sighting rule. The first computation of a
// non-resident key stores only a hash of the key in a bounded sighting set
// (at most sightingsPerRow hashes per unit of capacity, emptied when full).
// The next computation of a sighted key has recurred and promotes it into
// the resident tier, so a stream of never-repeating probes costs hashes,
// not rows. Rates.Warm promotes without the rule.
//
// Correctness model: a cached entry depends only on the query's canonical
// text, the feature encoder's statistics and the frozen model weights.
// Invalidation is therefore conservative and explicit:
//
//   - Validate(poolVersion) clears the cache whenever the observed pool
//     version advances past the last version the cache has absorbed — the
//     facade calls it before every estimate, so a pool mutation the cache
//     did not witness flushes stale state by construction. This is
//     deliberately stricter than the dependency set above requires (pool
//     growth does not change any cached entry): it trades hit rate under
//     record-heavy workloads for invalidation that stays correct even if
//     cached values ever grow a pool dependency.
//   - PoolMutated(version, evictedKey) — the pool.MutationListener hook —
//     absorbs mutations surgically for a cache subscribed to its pool (the
//     facade subscribes every estimator cache): an eviction drops exactly
//     the evicted entry's cached row, an insert drops nothing, and the
//     absorbed version keeps the next Validate on its no-flush fast path.
//     Under sustained record/feedback traffic the cached working set
//     therefore stays warm instead of re-encoding after every mutation.
//   - Invalidate() clears unconditionally, for model or encoder swaps.
//
// A flush replaces the store and empties the sighting set together.
// Capacity bounds the resident rows (promotion stops at it) and the
// sighting set; the serving working set is orders of magnitude below any
// sensible capacity. All methods are safe for concurrent use, and cached
// values are bit-identical to recomputation because every kernel's per-row
// result is independent of batch composition (see package nn).
type RepCache struct {
	mu        sync.RWMutex
	store     *residentStore
	sightings map[uint64]struct{} // hashes of keys computed once

	// version and started keep Validate's caught-up path off the lock;
	// both are written under mu.
	version atomic.Uint64
	started atomic.Bool // version observed at least once
	cap     int

	hits, misses, promoted atomic.Uint64
}

const (
	// sightingsPerRow bounds the sighting set per unit of cache capacity:
	// it remembers up to three times the capacity's worth of keys seen once.
	sightingsPerRow = 3
	// residentBlock is the row count of one storage block.
	residentBlock = 128
)

// sightSeed keys the sighting set's hash of canonical query keys.
var sightSeed = maphash.MakeSeed()

// residentRows is append-only row storage: fixed-size blocks, each row
// packing one query's values (rep1 | rep2 | pp1 | pp2, of lengths h, h, 2h,
// 2h). A copy taken under the lock reads its first n rows without it: a
// writer only fills rows past n and only appends blocks past the copy's
// block table.
type residentRows struct {
	blocks [][]float64 // residentBlock rows of 6h floats each
	n, h   int         // rows (dead included); hidden width
}

// data returns row i's packed storage.
func (r *residentRows) data(i int) []float64 {
	w := 6 * r.h
	off := i % residentBlock * w
	return r.blocks[i/residentBlock][off : off+w : off+w]
}

// residentStore is the resident tier between two replacements: the rows,
// the key→row index and the count of dead rows (evicted keys whose rows
// stay in place). When dead rows pass a quarter of the store, the next
// promotion compacts the live ones into a successor store — the only event
// short of a flush that renumbers rows. Guarded by RepCache.mu.
type residentStore struct {
	residentRows
	index map[string]int
	dead  int
}

// residentView is what a rate pass holds of the resident tier: the rows
// that existed when it resolved its keys, read in place without the lock,
// and the store they belong to, against which the pass's promotions are
// checked. The zero view has no rows.
type residentView struct {
	residentRows
	store *residentStore
}

func newResidentStore(h int) *residentStore {
	return &residentStore{residentRows: residentRows{h: h}, index: map[string]int{}}
}

// grow appends a row for key and returns its storage to fill. Appending a
// block writes past the block table's length in every view taken earlier.
func (s *residentStore) grow(key string) []float64 {
	if s.n == len(s.blocks)*residentBlock {
		s.blocks = append(s.blocks, make([]float64, residentBlock*6*s.h))
	}
	s.index[key] = s.n
	s.n++
	return s.data(s.n - 1)
}

// DefaultRepCacheSize is the default entry bound of a serving cache.
const DefaultRepCacheSize = 8192

// NewRepCache creates a cache bounded to capacity resident entries
// (capacity <= 0 uses DefaultRepCacheSize).
func NewRepCache(capacity int) *RepCache {
	if capacity <= 0 {
		capacity = DefaultRepCacheSize
	}
	return &RepCache{cap: capacity, store: newResidentStore(0), sightings: map[uint64]struct{}{}}
}

// sight reports whether key was computed before since the last flush,
// recording the sighting if it was not. Callers hold mu for writing.
func (c *RepCache) sight(key string) bool {
	h := maphash.String(sightSeed, key)
	if _, ok := c.sightings[h]; ok {
		return true
	}
	if len(c.sightings) >= sightingsPerRow*c.cap {
		clear(c.sightings)
	}
	c.sightings[h] = struct{}{}
	return false
}

// Validate flushes the cache if the observed pool version advances past
// the last version absorbed (by a previous Validate or, for subscribed
// caches, by PoolMutated). The first observation adopts the version without
// flushing. The comparison is monotone — pool versions only grow — so an
// estimate that loaded the pool version just before a concurrent, already
// absorbed mutation cannot trigger a spurious flush. The caught-up case —
// every estimate in steady-state serving — is a pair of atomic loads and
// takes no lock, so concurrent estimates do not contend here.
func (c *RepCache) Validate(version uint64) {
	if c == nil {
		return
	}
	if c.started.Load() && version <= c.version.Load() {
		return
	}
	c.mu.Lock()
	switch {
	case !c.started.Load():
		c.started.Store(true)
		c.version.Store(version)
	case version > c.version.Load():
		c.flush()
		c.version.Store(version)
	}
	c.mu.Unlock()
}

// PoolMutated implements pool.MutationListener: it absorbs one pool
// mutation surgically instead of waiting for Validate's wholesale flush.
// An eviction drops the evicted query's resident row (an insert requires
// nothing — cached entries depend only on their own query text and the
// frozen weights), then the seen version is raised so the next Validate
// recognizes the mutation as handled. Called under the pool's write lock,
// so it must not call back into the pool.
//
// The evicted key leaves the index; its row stays in storage, dead, until a
// compaction. Its sighting stays, so its next computation promotes it
// again.
func (c *RepCache) PoolMutated(version uint64, evictedKey string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if _, ok := c.store.index[evictedKey]; ok {
		delete(c.store.index, evictedKey)
		c.store.dead++
	}
	c.started.Store(true)
	if version > c.version.Load() {
		c.version.Store(version)
	}
	c.mu.Unlock()
}

// Invalidate unconditionally discards every cached entry and sighting.
func (c *RepCache) Invalidate() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.flush()
	c.mu.Unlock()
}

// flush replaces the store and empties the sighting set. Callers hold mu
// for writing. A pass still holding a view of the old store keeps reading
// its rows, but its promotions no longer land: stale values cannot survive
// a flush.
func (c *RepCache) flush() {
	c.store = newResidentStore(0)
	clear(c.sightings)
}

// RepCacheStats is a point-in-time snapshot of cache effectiveness.
type RepCacheStats struct {
	Hits     uint64 `json:"hits"`     // queries resolved to a resident row
	Misses   uint64 `json:"misses"`   // queries computed
	Resident int    `json:"resident"` // entries in the zero-copy resident tier
	Promoted uint64 `json:"promoted"` // lifetime promotions into the resident tier
	Capacity int    `json:"capacity"`
	// Estimate memo (card.Memo, filled in by the facade): whole-probe
	// lookups by result (a hit skips selection; a miss counts only for a
	// probe with a usable candidate), and probes memoized.
	EstimateHits    uint64 `json:"estimate_hits"`
	EstimateMisses  uint64 `json:"estimate_misses"`
	EstimateEntries int    `json:"estimate_entries"`
}

// Stats returns hit/miss counters and resident occupancy. Safe on a nil
// cache (estimators without representation caching report zeros).
func (c *RepCache) Stats() RepCacheStats {
	if c == nil {
		return RepCacheStats{}
	}
	st := RepCacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Promoted: c.promoted.Load(),
		Capacity: c.cap,
	}
	c.mu.RLock()
	st.Resident = c.store.n - c.store.dead
	c.mu.RUnlock()
	return st
}

// count records one request's resident hits and computed misses.
func (c *RepCache) count(hits, misses int) {
	c.hits.Add(uint64(hits))
	c.misses.Add(uint64(misses))
}

// resolve writes each key's resident row to rowOf (-1 for a key not
// resident) and returns the view those rows are read through.
func (c *RepCache) resolve(keys []string, rowOf []int) residentView {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, key := range keys {
		r, ok := c.store.index[key]
		if !ok {
			r = -1
		}
		rowOf[i] = r
	}
	return residentView{c.store.residentRows, c.store}
}

// promotion is one entry to move into the resident tier; the row slices
// may live in request-local workspace storage (promote copies them).
type promotion struct {
	key                  string
	rep1, rep2, pp1, pp2 []float64
}

// promote appends a pass's computed entries to the store the pass resolved
// against, v.store: with warm set all of them, otherwise those the sighting
// set has seen before (the others are sighted now). A pass whose store was
// replaced since it resolved writes nothing, not even a sighting: its
// values may predate a model swap. Keys already resident — promoted
// concurrently by another pass — and keys duplicated within the batch are
// skipped, as is everything beyond the capacity bound. The first row
// appended compacts the store first when dead rows are more than a quarter
// of it.
func (c *RepCache) promote(v residentView, promos []promotion, warm bool) {
	if len(promos) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.store
	h := len(promos[0].rep1)
	if s != v.store || s.n > 0 && s.h != h {
		// Replaced, or a layout change under a stale store (model swap
		// without Invalidate): refuse to mix row widths.
		return
	}
	s.h = h
	first := s.n
	for _, p := range promos {
		if !warm && !c.sight(p.key) {
			continue
		}
		if _, ok := s.index[p.key]; ok || s.n-s.dead >= c.cap {
			continue
		}
		if s.n == first && s.dead > s.n/4 {
			s = s.compact()
			c.store, first = s, s.n
		}
		row := s.grow(p.key)
		copy(row, p.rep1)
		copy(row[h:], p.rep2)
		copy(row[2*h:], p.pp1)
		copy(row[4*h:], p.pp2)
	}
	c.promoted.Add(uint64(s.n - first))
}

// compact returns the successor of s holding only the live rows, renumbered
// densely. s itself is left as it is for the passes still reading it.
func (s *residentStore) compact() *residentStore {
	next := newResidentStore(s.h)
	for key, r := range s.index {
		copy(next.grow(key), s.data(r))
	}
	return next
}
