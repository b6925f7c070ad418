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
// probe side.
//
// The cache has one tier of values, the resident tier: append-only row
// storage, a key→row index and the pair-rate memo, published as immutable
// residentSnap views. The serving hot path reads it with one atomic load
// and references rows in place: no lock, no copy, O(1) per query. A row ID
// stays valid for as long as its storage lives, which is what lets rates be
// memoized by (row1, row2) — see residentSnap, rateMemo.
//
// Admission follows a sighting rule. The first computation of a
// non-resident key stores only a hash of the key, in a bounded sighting
// filter (a rateMemo table of sightingsPerRow slots per unit of capacity,
// 16 bytes a slot: 512 KiB at DefaultRepCacheSize, emptied when three
// quarters full). The next computation of a sighted key has recurred and
// promotes it into the resident tier, so a stream of never-repeating probes
// costs filter slots, not rows. Rates.Warm promotes without the rule.
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
// A flush empties the resident tier and the sighting filter together.
// Capacity bounds the resident tier (promotion stops at it) and its memo
// (memoPerRow slots per unit of it); the serving working set is orders of
// magnitude below any sensible capacity. All methods are safe for
// concurrent use, and cached values are bit-identical to recomputation
// because every kernel's per-row result is independent of batch
// composition (see package nn) and a memoized rate is the float64 the head
// produced for that very pair.
type RepCache struct {
	resident  atomic.Pointer[residentSnap]
	sightings atomic.Pointer[rateMemo]

	// flushMu serializes version transitions and full flushes; the
	// unchanged-version fast path never takes it.
	flushMu sync.Mutex
	// promoteMu serializes resident-tier writers: appends, tombstones,
	// compactions and the flush's reset.
	promoteMu sync.Mutex

	version atomic.Uint64
	started atomic.Bool // version observed at least once
	cap     int
	// gen counts flushes. Requests capture it before reading the cache and
	// hand it back with their promotions; a mismatch means a flush (pool
	// mutation, model swap) happened mid-request, and values computed
	// against the pre-flush state must not re-enter the cache.
	gen atomic.Uint64

	hits, misses, promoted atomic.Uint64
	memoHits, memoMisses   atomic.Uint64
}

// sightingsPerRow sizes the sighting filter per unit of cache capacity. The
// filter empties at three quarters full, so it remembers up to three times
// the capacity's worth of keys seen once.
const sightingsPerRow = 4

// sightSeed keys the sighting filter's hash of canonical query keys.
var sightSeed = maphash.MakeSeed()

// residentSnap is one immutable view of the resident tier. Rows live in
// fixed-size blocks, each row packing one query's values (rep1 | rep2 | pp1 |
// pp2, of lengths h, h, 2h, 2h), and are only ever appended: a writer fills
// row n behind the published count, then publishes a view with n+1, so a
// reader — who never looks past the n of the view it loaded — needs no lock,
// and a row ID stays valid in every later view of the same storage. The
// key→row index is an immutable base map plus a small delta that shadows it
// (a negative row is a tombstone); a writer copies only the delta, and folds
// it into a new base once it outgrows a fixed fraction of it. Eviction
// tombstones the key and leaves the row dead in place; when dead rows pass a
// quarter of the storage, the next promotion compacts the live ones into
// fresh storage — the only event short of a flush that renumbers rows, and
// the memo is remapped with them.
type residentSnap struct {
	blocks      [][]float64 // residentBlock rows of 6h floats each
	n, h        int         // published rows (dead included); hidden width
	base, delta map[string]int
	overrides   int // delta keys that shadow a base key
	dead        int // rows no key reaches any more
	memo        *rateMemo
}

const (
	// residentBlock is the row count of one storage block.
	residentBlock = 128
	// The delta is folded into the base when it exceeds residentDeltaMin
	// plus 1/residentDeltaShare of the base: at the capacities served
	// (thousands of rows) this balances the per-publication delta copy
	// against the per-fold base copy.
	residentDeltaMin   = 32
	residentDeltaShare = 32
)

// rows returns the number of published rows (live and dead alike): the
// offset request-local extras are addressed past.
func (s *residentSnap) rows() int {
	if s == nil {
		return 0
	}
	return s.n
}

// row resolves a key to its resident row ID.
func (s *residentSnap) row(key string) (int, bool) {
	if s == nil {
		return 0, false
	}
	r, ok := s.base[key]
	if !ok || s.overrides > 0 {
		if d, shadowed := s.delta[key]; shadowed {
			return d, d >= 0
		}
	}
	return r, ok
}

// data returns row i's packed storage.
func (s *residentSnap) data(i int) []float64 {
	w := 6 * s.h
	off := i % residentBlock * w
	return s.blocks[i/residentBlock][off : off+w : off+w]
}

// DefaultRepCacheSize is the default entry bound of a serving cache.
const DefaultRepCacheSize = 8192

// NewRepCache creates a cache bounded to capacity resident entries
// (capacity <= 0 uses DefaultRepCacheSize).
func NewRepCache(capacity int) *RepCache {
	if capacity <= 0 {
		capacity = DefaultRepCacheSize
	}
	c := &RepCache{cap: capacity}
	c.sightings.Store(newRateMemo(capacity * sightingsPerRow))
	return c
}

// sighted reports whether key was computed before since the last flush,
// recording the sighting if it was not.
func (c *RepCache) sighted(key string) bool {
	return c.sightings.Load().sight(maphash.String(sightSeed, key) | 1)
}

// Validate flushes the cache if the observed pool version advances past
// the last version absorbed (by a previous Validate or, for subscribed
// caches, by PoolMutated). The first observation adopts the version without
// flushing. The comparison is monotone — pool versions only grow — so an
// estimate that loaded the pool version just before a concurrent, already
// absorbed mutation cannot trigger a spurious flush. The caught-up case —
// every estimate in steady-state serving — is a lock-free pair of atomic
// loads, so concurrent estimates do not contend here.
func (c *RepCache) Validate(version uint64) {
	if c == nil {
		return
	}
	if c.started.Load() && version <= c.version.Load() {
		return
	}
	c.flushMu.Lock()
	switch {
	case !c.started.Load():
		c.started.Store(true)
		c.version.Store(version)
	case version > c.version.Load():
		c.flush()
		c.version.Store(version)
	}
	c.flushMu.Unlock()
}

// PoolMutated implements pool.MutationListener: it absorbs one pool
// mutation surgically instead of waiting for Validate's wholesale flush.
// An eviction drops the evicted query's resident row (an insert requires
// nothing — cached entries depend only on their own query text and the
// frozen weights), then the seen version is raised so the next Validate
// recognizes the mutation as handled. Called under the pool's write lock,
// so it must not call back into the pool.
func (c *RepCache) PoolMutated(version uint64, evictedKey string) {
	if c == nil {
		return
	}
	if evictedKey != "" {
		c.remove(evictedKey)
	}
	c.flushMu.Lock()
	c.started.Store(true)
	if version > c.version.Load() {
		c.version.Store(version)
	}
	c.flushMu.Unlock()
}

// remove drops one key from the resident tier: a view whose delta
// tombstones the key (the row stays in storage, dead, until a compaction;
// its memo entries die with it because no lookup yields its ID again).
// Unknown keys are a no-op. The key's sighting stays, so its next
// computation promotes it again.
func (c *RepCache) remove(key string) {
	c.promoteMu.Lock()
	defer c.promoteMu.Unlock()
	old := c.resident.Load()
	if _, ok := old.row(key); !ok {
		return
	}
	next := *old
	next.cloneDelta(1)
	next.dead++
	if _, inBase := next.base[key]; !inBase {
		delete(next.delta, key)
	} else {
		if _, shadowed := next.delta[key]; !shadowed {
			next.overrides++
		}
		next.delta[key] = -1
	}
	c.resident.Store(&next)
}

// cloneDelta gives a view under construction its own delta with room for
// extra more keys, folding it into a new base first once it outgrows a
// fixed fraction of the base: a writer copies O(delta) per publication and
// O(base) once per base/residentDeltaShare publications.
func (s *residentSnap) cloneDelta(extra int) {
	old := s.delta
	if len(old) > residentDeltaMin+len(s.base)/residentDeltaShare {
		base := make(map[string]int, len(s.base)+len(old)+extra)
		for k, r := range s.base {
			base[k] = r
		}
		for k, r := range old {
			if base[k] = r; r < 0 {
				delete(base, k)
			}
		}
		s.base, old, s.overrides = base, nil, 0
	}
	s.delta = make(map[string]int, len(old)+extra)
	for k, r := range old {
		s.delta[k] = r
	}
}

// Invalidate unconditionally discards every cached entry and sighting.
func (c *RepCache) Invalidate() {
	if c == nil {
		return
	}
	c.flushMu.Lock()
	c.flush()
	c.flushMu.Unlock()
}

// flush clears the resident tier and the sighting filter. Callers hold
// flushMu. The generation bump happens under promoteMu, so a promotion that
// captured the old generation observes the bump and drops itself: stale
// values cannot survive a flush. A sighting holds no value, so a request
// straddling the flush may record one in the new filter harmlessly.
func (c *RepCache) flush() {
	c.promoteMu.Lock()
	c.gen.Add(1)
	c.resident.Store(nil)
	c.sightings.Store(newRateMemo(c.cap * sightingsPerRow))
	c.promoteMu.Unlock()
}

// RepCacheStats is a point-in-time snapshot of cache effectiveness.
type RepCacheStats struct {
	Hits     uint64 `json:"hits"`     // queries resolved to a resident row
	Misses   uint64 `json:"misses"`   // queries computed
	Resident int    `json:"resident"` // entries in the zero-copy resident tier
	Promoted uint64 `json:"promoted"` // lifetime promotions into the resident tier
	Capacity int    `json:"capacity"`
	// Pair-rate memo: lookups (attempted only for pairs of two resident
	// rows) by result, and pairs currently memoized.
	MemoHits    uint64 `json:"memo_hits"`
	MemoMisses  uint64 `json:"memo_misses"`
	MemoEntries int    `json:"memo_entries"`
	// Estimate memo (card.Memo, filled in by the facade): whole-probe
	// lookups after selection by result, and probes memoized.
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

		MemoHits:   c.memoHits.Load(),
		MemoMisses: c.memoMisses.Load(),
	}
	if snap := c.resident.Load(); snap != nil {
		st.Resident = snap.n - snap.dead
		st.MemoEntries = int(snap.memo.entries.Load())
	}
	return st
}

// count records one request's resident hits and computed misses (the
// lookups themselves are the caller's reads of the view it loaded).
func (c *RepCache) count(hits, misses int) {
	c.hits.Add(uint64(hits))
	c.misses.Add(uint64(misses))
}

// promotion is one entry to move into the resident tier; the row slices
// may live in request-local workspace storage (promote copies them).
type promotion struct {
	key                  string
	rep1, rep2, pp1, pp2 []float64
}

// promote appends the given entries to the resident tier and publishes the
// view that includes them. gen is the generation the caller captured before
// reading the cache: promotions gathered before a flush are discarded, so
// stale rows cannot resurrect into a freshly flushed tier. Keys already
// resident — promoted concurrently by another request — and keys duplicated
// within the batch are skipped, as is everything beyond the capacity bound.
// The cost is O(entries + delta), never O(resident rows), except when it
// first compacts.
func (c *RepCache) promote(gen uint64, promos []promotion) {
	if len(promos) == 0 {
		return
	}
	c.promoteMu.Lock()
	defer c.promoteMu.Unlock()
	if c.gen.Load() != gen {
		return
	}
	h := len(promos[0].rep1)
	old := c.resident.Load()
	compacted := false
	switch {
	case old == nil:
		old = &residentSnap{h: h, memo: newRateMemo(c.cap * memoPerRow)}
	case old.h != h:
		// Layout changed underneath a stale view (model swap without
		// Invalidate): refuse to mix row widths.
		return
	case old.dead > old.n/4:
		old, compacted = old.compact(), true
	}
	next := *old
	next.cloneDelta(len(promos))
	first := next.n
	for _, p := range promos {
		if _, ok := next.row(p.key); ok {
			continue
		}
		if next.n-next.dead >= c.cap {
			break
		}
		if next.n == len(next.blocks)*residentBlock {
			// Appending writes past the block table's published length, so
			// a backing array shared with earlier views never changes under
			// their readers.
			next.blocks = append(next.blocks, make([]float64, residentBlock*6*h))
		}
		row := next.data(next.n)
		copy(row, p.rep1)
		copy(row[h:], p.rep2)
		copy(row[2*h:], p.pp1)
		copy(row[4*h:], p.pp2)
		// A tombstone this replaces is already counted in overrides.
		next.delta[p.key] = next.n
		next.n++
	}
	if next.n > first || compacted {
		c.resident.Store(&next)
	}
	c.promoted.Add(uint64(next.n - first))
}

// compact returns an unpublished view of fresh storage holding only the
// live rows, renumbered densely under a single base map, with the memo's
// surviving pairs carried over under their new IDs.
func (s *residentSnap) compact() *residentSnap {
	live := s.n - s.dead
	next := &residentSnap{h: s.h, base: make(map[string]int, live)}
	newRow := make([]int, s.n)
	for i := range newRow {
		newRow[i] = -1
	}
	add := func(key string, r int) {
		if next.n%residentBlock == 0 {
			next.blocks = append(next.blocks, make([]float64, residentBlock*6*s.h))
		}
		copy(next.data(next.n), s.data(r))
		next.base[key], newRow[r] = next.n, next.n
		next.n++
	}
	for key, r := range s.delta {
		if r >= 0 {
			add(key, r)
		}
	}
	for key, r := range s.base {
		if _, shadowed := s.delta[key]; !shadowed {
			add(key, r)
		}
	}
	next.memo = s.memo.remap(newRow)
	return next
}
