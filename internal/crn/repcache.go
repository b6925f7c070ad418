package crn

import (
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
// The cache is organized in two tiers:
//
//   - A resident tier for the recurring working set (in steady state: the
//     pool entries, plus repeated probes): append-only row storage, a
//     key→row index and the pair-rate memo, published as immutable
//     residentSnap views. The serving hot path reads it with one atomic
//     load and references rows in place: no lock, no copy, O(1) per query.
//     A row ID stays valid for as long as its storage lives, which is what
//     lets rates be memoized by (row1, row2) — see residentSnap, rateMemo.
//   - A sharded tier for queries seen once. It is a lock-striped map
//     (repShards power-of-two shards, selected by a hash of the canonical
//     key), so concurrent misses and first-sightings never contend on a
//     single mutex. Hits copy the entry out; an entry hit in the sharded
//     tier has recurred, so it is promoted to the resident tier and the
//     next request reads it lock- and copy-free.
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
//     the evicted entry's cached rows, an insert drops nothing, and the
//     absorbed version keeps the next Validate on its no-flush fast path.
//     Under sustained record/feedback traffic the cached working set
//     therefore stays warm instead of re-encoding after every mutation.
//   - Invalidate() clears unconditionally, for model or encoder swaps.
//
// Capacity is bounded per tier: the resident tier stops promoting at the
// configured capacity (and its memo at memoPerRow slots per unit of it), and
// each shard evicts an arbitrary eighth of its entries when its share of
// the capacity fills (the serving working set is orders of magnitude below
// any sensible capacity, so eviction is a safety valve, not a tuning knob).
// All methods are safe for concurrent use, and cached values are
// bit-identical to recomputation because every kernel's per-row result is
// independent of batch composition (see package nn) and a memoized rate is
// the float64 the head produced for that very pair.
type RepCache struct {
	shards   [repShards]repShard
	resident atomic.Pointer[residentSnap]

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
	// hand it back with their insert/promote writebacks; a mismatch means a
	// flush (pool mutation, model swap) happened mid-request, and values
	// computed against the pre-flush state must not re-enter the cache.
	gen atomic.Uint64
	// size counts sharded-tier entries across all shards, so admission
	// control enforces the global capacity without locking every shard.
	size atomic.Int64

	hits, misses, promoted atomic.Uint64
	memoHits, memoMisses   atomic.Uint64
}

// repShards is the lock-stripe count of the sharded tier. Power of two so
// shard selection is a mask; 16 stripes keep the probability of two
// concurrent requests contending on one mutex low at any realistic core
// count without bloating the struct.
const repShards = 16

type repShard struct {
	mu      sync.RWMutex
	entries map[string]repEntry
}

// repEntry packs one query's cached values in a single slice:
// rep1 | rep2 | pp1 | pp2 (lengths h, h, 2h, 2h).
type repEntry struct {
	data []float64
}

// residentSnap is one immutable view of the resident tier. Rows live in
// fixed-size blocks, each row packed like a repEntry (rep1 | rep2 | pp1 |
// pp2), and are only ever appended: a writer fills row n behind the
// published count, then publishes a view with n+1, so a reader — who never
// looks past the n of the view it loaded — needs no lock, and a row ID stays
// valid in every later view of the same storage. The key→row index is an
// immutable base map plus a small delta that shadows it (a negative row is
// a tombstone); a writer copies only the delta, and folds it into a new
// base once it outgrows a fixed fraction of it. Eviction tombstones the key
// and leaves the row dead in place; when dead rows pass a quarter of the
// storage, the next promotion compacts the live ones into fresh storage —
// the only event short of a flush that renumbers rows, and the memo is
// remapped with them.
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

// NewRepCache creates a cache bounded to capacity entries per tier
// (capacity <= 0 uses DefaultRepCacheSize).
func NewRepCache(capacity int) *RepCache {
	if capacity <= 0 {
		capacity = DefaultRepCacheSize
	}
	c := &RepCache{cap: capacity}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]repEntry)
	}
	return c
}

// fnv1a hashes a key for shard selection.
func fnv1a(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// shard selects the lock stripe for a key (FNV-1a over the canonical key,
// masked to the power-of-two stripe count).
func (c *RepCache) shard(key string) *repShard {
	return &c.shards[fnv1a(key)&(repShards-1)]
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
// An eviction drops the evicted query's cached rows from both tiers (an
// insert requires nothing — cached entries depend only on their own query
// text and the frozen weights), then the seen version is raised so the
// next Validate recognizes the mutation as handled. Called under the
// pool's write lock, so it must not call back into the pool.
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

// remove drops one key from both tiers: a sharded-tier delete, and a
// resident view whose delta tombstones the key (the row stays in storage,
// dead, until a compaction; its memo entries die with it because no lookup
// yields its ID again). Unknown keys are a no-op.
func (c *RepCache) remove(key string) {
	s := c.shard(key)
	s.mu.Lock()
	if _, ok := s.entries[key]; ok {
		delete(s.entries, key)
		c.size.Add(-1)
	}
	s.mu.Unlock()

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

// Invalidate unconditionally discards every cached entry in both tiers.
func (c *RepCache) Invalidate() {
	if c == nil {
		return
	}
	c.flushMu.Lock()
	c.flush()
	c.flushMu.Unlock()
}

// flush clears both tiers. Callers hold flushMu. The generation bump
// happens first, under promoteMu, and each shard is cleared under its own
// lock: a writeback that captured the old generation either observes the
// bump and drops itself, or completes before the corresponding clear and
// is wiped by it — stale values cannot survive a flush either way.
func (c *RepCache) flush() {
	c.promoteMu.Lock()
	c.gen.Add(1)
	c.resident.Store(nil)
	c.promoteMu.Unlock()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		c.size.Add(-int64(len(s.entries)))
		s.entries = make(map[string]repEntry)
		s.mu.Unlock()
	}
}

// RepCacheStats is a point-in-time snapshot of cache effectiveness.
type RepCacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Size     int    `json:"size"`     // entries across both tiers
	Resident int    `json:"resident"` // entries in the zero-copy resident tier
	Promoted uint64 `json:"promoted"` // lifetime promotions into the resident tier
	Capacity int    `json:"capacity"`
	Shards   int    `json:"shards"`
	// Pair-rate memo: lookups (attempted only for pairs of two resident
	// rows) by result, and pairs currently memoized.
	MemoHits    uint64 `json:"memo_hits"`
	MemoMisses  uint64 `json:"memo_misses"`
	MemoEntries int    `json:"memo_entries"`
}

// Stats returns hit/miss counters and tier occupancy. Safe on a nil cache
// (estimators without representation caching report zeros).
func (c *RepCache) Stats() RepCacheStats {
	if c == nil {
		return RepCacheStats{}
	}
	st := RepCacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Promoted: c.promoted.Load(),
		Capacity: c.cap,
		Shards:   repShards,

		MemoHits:   c.memoHits.Load(),
		MemoMisses: c.memoMisses.Load(),
	}
	if snap := c.resident.Load(); snap != nil {
		st.Resident = snap.n - snap.dead
		st.MemoEntries = int(snap.memo.entries.Load())
	}
	st.Size = st.Resident
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		st.Size += len(s.entries)
		s.mu.RUnlock()
	}
	return st
}

// lookup copies the sharded-tier entry for key into the four destination
// rows and reports whether it hit. The caller resolves the resident tier
// first (via resident.Load); a sharded hit means the entry recurred and is
// a promotion candidate. Destination lengths must match the entry layout
// (h, h, 2h, 2h for the model's hidden width).
func (c *RepCache) lookup(key string, rep1, rep2, pp1, pp2 []float64) bool {
	s := c.shard(key)
	s.mu.RLock()
	e, ok := s.entries[key]
	if ok && len(e.data) == len(rep1)+len(rep2)+len(pp1)+len(pp2) {
		off := 0
		off += copy(rep1, e.data[off:])
		off += copy(rep2, e.data[off:])
		off += copy(pp1, e.data[off:])
		copy(pp2, e.data[off:])
	} else {
		ok = false
	}
	s.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return ok
}

// hitResident records n resident-tier hits (the lookups themselves are the
// caller's reads of the view it loaded).
func (c *RepCache) hitResident(n int) { c.hits.Add(uint64(n)) }

// insert stores a first-seen entry in the sharded tier, cloning all four
// slices into one packed buffer. gen is the generation the caller captured
// before computing the entry: if a flush intervened, the entry reflects
// pre-flush state and is dropped. When the tier is at capacity, roughly an
// eighth of the entries is evicted first (walking shards from the target
// one), so sustained unique-probe traffic cannot grow the tier unboundedly.
func (c *RepCache) insert(gen uint64, key string, rep1, rep2, pp1, pp2 []float64) {
	buf := make([]float64, 0, len(rep1)+len(rep2)+len(pp1)+len(pp2))
	buf = append(buf, rep1...)
	buf = append(buf, rep2...)
	buf = append(buf, pp1...)
	buf = append(buf, pp2...)
	s := c.shard(key)
	s.mu.Lock()
	if c.gen.Load() != gen {
		// Flushed since the caller read the cache; see flush for why this
		// check under the shard lock cannot race with the shard clear.
		s.mu.Unlock()
		return
	}
	_, exists := s.entries[key]
	s.entries[key] = repEntry{data: buf}
	if !exists && int(c.size.Add(1)) > c.cap {
		s.mu.Unlock()
		c.evict(key)
		return
	}
	s.mu.Unlock()
}

// evict removes about an eighth of the capacity from the sharded tier
// (always at least enough to return under the bound), sparing keep — the
// entry whose insertion triggered the eviction.
func (c *RepCache) evict(keep string) {
	target := int64(c.cap) - int64(c.cap)/8
	if target < 0 {
		target = 0
	}
	start := int(fnv1a(keep) & (repShards - 1))
	for i := 0; i < repShards && c.size.Load() > target; i++ {
		s := &c.shards[(start+i)%repShards]
		s.mu.Lock()
		for k := range s.entries {
			if k == keep {
				continue
			}
			delete(s.entries, k)
			if c.size.Add(-1) <= target {
				break
			}
		}
		s.mu.Unlock()
	}
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
// Promoted keys are removed from the sharded tier. The cost is O(entries +
// delta), never O(resident rows), except when it first compacts.
func (c *RepCache) promote(gen uint64, promos []promotion) {
	if len(promos) == 0 {
		return
	}
	c.promoteMu.Lock()
	if c.gen.Load() != gen {
		c.promoteMu.Unlock()
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
		c.promoteMu.Unlock()
		return
	case old.dead > old.n/4:
		old, compacted = old.compact(), true
	}
	next := *old
	next.cloneDelta(len(promos))
	fresh := promos[:0]
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
		fresh = append(fresh, p)
	}
	if len(fresh) > 0 || compacted {
		c.resident.Store(&next)
	}
	c.promoted.Add(uint64(len(fresh)))
	c.promoteMu.Unlock()

	for _, p := range fresh {
		s := c.shard(p.key)
		s.mu.Lock()
		if _, ok := s.entries[p.key]; ok {
			delete(s.entries, p.key)
			c.size.Add(-1)
		}
		s.mu.Unlock()
	}
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
