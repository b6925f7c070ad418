// Package pool implements the queries pool of §5.2: a DBMS-side store of
// previously executed queries together with their actual result
// cardinalities (not their results). The pool is hashed by canonical FROM
// clause, because only queries with identical FROM clauses are containment-
// comparable; lookup therefore returns exactly the candidate "old" queries
// the Cnt2Crd technique can use for a new query.
//
// A production pool grows with the workload, so the package also bounds the
// estimator's per-probe cost: every entry's query carries its predicate
// signature (query.Signature, precomputed by query.New), and TopK ranks a
// FROM clause's candidates by signature similarity to return only the K
// most containment-comparable old queries. WithCap additionally bounds the
// pool itself, evicting the least-recently-matched entry once full.
//
// The package also provides the final functions F of §5.3.1 (Median, Mean,
// TrimmedMean) that collapse the per-old-query estimates into one value —
// the paper found Median best and uses it everywhere.
package pool

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"crn/internal/metrics"
	"crn/internal/query"
	"crn/internal/telemetry"
)

// Entry is one pooled query with its actual cardinality. ID is a stable
// pool-unique identifier assigned at insertion; batch estimators use it to
// recognize the same entry across many probes without re-deriving canonical
// keys.
type Entry struct {
	Q    query.Query
	Card int64
	ID   int64
}

// fromIndex is the per-FROM-clause candidate index: the entries themselves
// plus, position-aligned, their signature rows (what bounded selection
// scores, see rows.go) and their last-match ticks (what eviction consults),
// and a position lookup by stable entry ID (what the eviction heap and the
// class walk resolve IDs through). The rows' ranges live in one per-clause
// arena, ranges, of which deadRanges belong to evicted entries. All of it
// mutates only under the pool's write lock; lastHit's elements are touched
// with atomics because candidate selection updates them under the read
// lock.
type fromIndex struct {
	entries    []Entry
	rows       []sigRow
	ranges     []query.ColRange
	deadRanges int
	lastHit    []int64
	byID       map[int64]int

	// stamp is the pool version of the clause's last mutation (insert,
	// eviction, cardinality change), set under the write lock. Selection over
	// the clause is a function of its entries alone, so while the stamp holds
	// every selection returns what the last one did (see ReplaySelection).
	stamp uint64

	// classes is the inverted signature-class index over the clause's
	// entries (see invindex.go); nil when indexed selection is disabled.
	// nPos counts entries with Card > 0 — the linear scan's "usable"
	// candidate count, maintained on every mutation so the indexed path
	// reproduces truncation accounting without touching every entry.
	classes map[string]*sigClass
	nPos    int
}

// Pool is a FROM-clause-indexed collection of executed queries. It is safe
// for concurrent use; in the envisioned deployment the DBMS appends every
// executed query while estimators read concurrently (§5.2).
type Pool struct {
	mu      sync.RWMutex
	byFrom  map[string]*fromIndex
	byKey   map[string]int64 // canonical key -> stable entry ID
	entries int
	nextID  int64
	version atomic.Uint64 // bumped under mu, read without it (see notifyLocked)
	cap     int           // 0: unbounded
	indexOn bool          // maintain + consult the inverted signature-class index

	// tick is the logical clock of candidate selection: every Matching/TopK
	// call stamps the entries it returns, and eviction removes the entry
	// with the oldest stamp.
	tick atomic.Int64

	// evictQ is the lazy min-heap over last-match ticks backing O(log n)
	// LRU eviction (see evict.go); maintained only on bounded pools.
	evictQ []evictRec

	// listeners observe mutations synchronously under the write lock; see
	// Subscribe.
	listeners []MutationListener

	evictions      atomic.Uint64
	topKCalls      atomic.Uint64
	scannedIdx     atomic.Uint64 // candidates visited by indexed selections
	scannedFall    atomic.Uint64 // candidates scored by linear-scan selections
	indexHits      atomic.Uint64 // bounded selections served by the index
	indexFallbacks atomic.Uint64 // bounded selections the density guard sent to the scan
	truncated      atomic.Uint64 // TopK calls that actually dropped candidates

	// scannedHist / prunedHist, when non-nil, record the per-call candidate
	// scan work of bounded selection: candidates actually scored, and usable
	// candidates the index's bound pruning never touched. Set once via
	// SetTelemetry before the pool serves reads; nil-safe.
	scannedHist *telemetry.Histogram
	prunedHist  *telemetry.Histogram
}

// Option configures a new pool.
type Option func(*Pool)

// WithCap bounds the pool to n entries: once full, every Add evicts the
// least-recently-matched entry (the one estimates have gone longest without
// selecting) before inserting. Eviction bumps Version, so version-keyed
// caches (the serving representation cache) invalidate correctly. n <= 0
// leaves the pool unbounded.
func WithCap(n int) Option {
	return func(p *Pool) {
		if n > 0 {
			p.cap = n
		}
	}
}

// WithIndexedSelection toggles the inverted signature-class index behind
// TopK (see invindex.go). On by default: indexed selection returns results
// bit-identical to the linear scan at a fraction of its cost on pools with
// recurring predicate structure. Off restores the PR 4 full linear scan —
// useful as an A/B reference and as a memory dial (the index costs a few
// machine words per entry).
func WithIndexedSelection(on bool) Option {
	return func(p *Pool) { p.indexOn = on }
}

// New creates an empty pool.
func New(opts ...Option) *Pool {
	p := &Pool{byFrom: make(map[string]*fromIndex), byKey: make(map[string]int64), indexOn: true}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Cap returns the configured capacity bound (0: unbounded).
func (p *Pool) Cap() int { return p.cap }

// SetTelemetry attaches per-call selection histograms (candidates scanned
// and candidates pruned by bounded selection). Call before the pool serves
// reads: the fields are read without synchronization on the hot path.
func (p *Pool) SetTelemetry(scanned, pruned *telemetry.Histogram) {
	p.scannedHist = scanned
	p.prunedHist = pruned
}

// Add inserts a query with its actual cardinality. Duplicate queries (same
// canonical form) are ignored, mirroring the paper's unique-queries pools.
// On a capacity-bounded pool at its bound, the least-recently-matched entry
// is evicted first. It reports whether the entry was inserted.
func (p *Pool) Add(q query.Query, card int64) bool {
	if card < 0 {
		return false
	}
	key := q.Key()
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.byKey[key]; ok {
		return false
	}
	if p.cap > 0 && p.entries >= p.cap {
		p.evictLRULocked()
	}
	p.insertLocked(q, key, card)
	return true
}

// insertLocked appends a query not yet pooled, stamps it as most recently
// matched and returns its ID. It never evicts: Add makes room first, and a
// snapshot restore evicts down to the cap only once every entry carries its
// restored stamp. Callers hold the write lock.
func (p *Pool) insertLocked(q query.Query, key string, card int64) int64 {
	from := q.FROMKey()
	idx := p.byFrom[from]
	if idx == nil {
		idx = &fromIndex{byID: make(map[int64]int)}
		p.byFrom[from] = idx
	}
	id := p.nextID
	p.byKey[key] = id
	idx.byID[id] = len(idx.entries)
	idx.entries = append(idx.entries, Entry{Q: q, Card: card, ID: id})
	sig := q.Signature()
	idx.appendRow(&sig, card, id)
	if card > 0 {
		idx.nPos++
	}
	if p.indexOn {
		idx.indexAdd(sig, id)
	}
	// A fresh entry starts as most-recently matched: it must survive long
	// enough for estimates to have a chance to select it.
	now := p.tick.Add(1)
	idx.lastHit = append(idx.lastHit, now)
	if p.cap > 0 {
		p.heapPush(evictRec{from: from, id: id, tick: now})
	}
	p.nextID++
	p.entries++
	idx.stamp = p.notifyLocked("")
	return id
}

// MutationListener observes pool mutations. Listeners are invoked
// synchronously under the pool's write lock, once per version bump, with
// the post-mutation version; evictedKey carries the canonical key of the
// removed query for evictions and is empty for inserts. Implementations
// must be fast and must not call back into the pool.
//
// The serving representation cache subscribes to turn the conservative
// flush-on-any-mutation invalidation into surgical per-entry invalidation:
// an eviction drops exactly the evicted entry's cached rows and an insert
// drops nothing, so the cached working set stays warm under sustained
// record/feedback traffic.
type MutationListener interface {
	PoolMutated(version uint64, evictedKey string)
}

// Subscribe registers a mutation listener. Subscribing the same listener
// twice is a no-op.
func (p *Pool) Subscribe(l MutationListener) {
	if l == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, have := range p.listeners {
		if have == l {
			return
		}
	}
	p.listeners = append(p.listeners, l)
}

// Unsubscribe removes a previously subscribed listener.
func (p *Pool) Unsubscribe(l MutationListener) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, have := range p.listeners {
		if have == l {
			p.listeners = append(p.listeners[:i], p.listeners[i+1:]...)
			return
		}
	}
}

// notifyLocked bumps the version for one mutation, fans it out to the
// listeners and returns it (the mutated clause's new stamp). Callers hold the
// write lock. The bump is published after the listeners ran, so a Version
// read without the lock never runs ahead of what a subscribed cache has
// absorbed.
func (p *Pool) notifyLocked(evictedKey string) uint64 {
	v := p.version.Load() + 1
	for _, l := range p.listeners {
		l.PoolMutated(v, evictedKey)
	}
	p.version.Store(v)
	return v
}

// Version returns a counter that increases with every successful mutation
// (inserts and evictions alike). Caches keyed on pool contents (the
// serving-side representation cache) compare versions to detect that the
// pool changed underneath them.
func (p *Pool) Version() uint64 { return p.version.Load() }

// Matching returns the pooled entries whose FROM clause equals the query's
// FROM clause — the candidates for the Cnt2Crd technique. The returned
// slice is a copy and safe to retain.
func (p *Pool) Matching(q query.Query) []Entry {
	return p.AppendMatching(nil, q)
}

// AppendMatching appends the entries matching q's FROM clause to dst and
// returns the extended slice — the allocation-amortizing form of Matching
// for batch estimators that reuse one arena across many probes.
func (p *Pool) AppendMatching(dst []Entry, q query.Query) []Entry {
	dst, _ = p.AppendSelection(dst, q, 0)
	return dst
}

// TopK returns the k most containment-comparable pooled candidates for q,
// ranked by signature similarity (see query.Signature). The returned slice is a
// copy and safe to retain.
func (p *Pool) TopK(q query.Query, k int) []Entry {
	return p.AppendTopK(nil, q, k)
}

// AppendTopK appends the top-k candidates for q to dst and returns the
// extended slice. k <= 0, or k at least the full candidate count, returns
// exactly what AppendMatching would (same entries, same order), so bounded
// and unbounded estimates coincide whenever the bound does not bind.
// Otherwise candidates with empty results are skipped (they carry no
// information — the estimator drops them anyway) and the k best-scoring
// survivors are appended best-first, ties broken by insertion ID.
func (p *Pool) AppendTopK(dst []Entry, q query.Query, k int) []Entry {
	dst, _ = p.AppendSelection(dst, q, k)
	return dst
}

// AppendSelection is AppendTopK (AppendMatching for k <= 0) that also
// returns the stamp of q's FROM clause, read under the selection's lock (0
// when no entry shares the clause). While ReplaySelection accepts that stamp,
// the same call would append the same entries in the same order.
func (p *Pool) AppendSelection(dst []Entry, q query.Query, k int) ([]Entry, uint64) {
	probe := q.Signature() // outside the lock: a copy of what query.New computed
	p.mu.RLock()
	defer p.mu.RUnlock()
	idx := p.byFrom[q.FROMKey()]
	if idx == nil {
		return dst, 0
	}
	if k <= 0 || k >= len(idx.entries) {
		p.touchAllLocked(idx)
		return append(dst, idx.entries...), idx.stamp
	}
	p.topKCalls.Add(1)
	sel := selectorPool.Get().(*selector)
	defer selectorPool.Put(sel)
	sel.heap.reset(k)
	var usable int
	var scanned uint64
	indexed := p.indexOn && idx.indexWorthwhile()
	if indexed {
		usable, scanned = p.selectIndexedLocked(sel, idx, &probe)
	} else {
		if p.indexOn {
			p.indexFallbacks.Add(1)
		}
		usable = p.selectLinearLocked(&sel.heap, idx, &probe)
		scanned = uint64(len(idx.entries))
	}
	refs := sel.heap.sorted()
	if p.scannedHist != nil {
		p.scannedHist.Observe(float64(scanned))
		pruned := 0.0
		if indexed && uint64(usable) > scanned {
			pruned = float64(uint64(usable) - scanned)
		}
		p.prunedHist.Observe(pruned)
	}
	if len(refs) < usable {
		p.truncated.Add(1)
	}
	if p.cap > 0 {
		now := p.tick.Add(1)
		for _, r := range refs {
			atomic.StoreInt64(&idx.lastHit[r.idx], now)
		}
	}
	for _, r := range refs {
		dst = append(dst, idx.entries[r.idx])
	}
	return dst, idx.stamp
}

// ReplaySelection reports whether q's FROM clause is still at stamp, as
// returned by an AppendSelection(dst, q, k) that selected the entries ids,
// and, when it is, stamps recency exactly as that call would now: every
// entry of the clause when k <= 0 or k is at least its size, else the
// entries ids, under one fresh tick — on a bounded pool only, like the
// selection. It moves no selection counter or histogram: no selection ran.
// ids is read only on the bounded path of a bounded pool.
func (p *Pool) ReplaySelection(q query.Query, k int, stamp uint64, ids []int64) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	idx := p.byFrom[q.FROMKey()]
	if idx == nil || idx.stamp != stamp {
		return false
	}
	if k <= 0 || k >= len(idx.entries) {
		p.touchAllLocked(idx)
	} else if p.cap > 0 {
		now := p.tick.Add(1)
		for _, id := range ids {
			atomic.StoreInt64(&idx.lastHit[idx.byID[id]], now)
		}
	}
	return true
}

// selector is one bounded selection's working memory, pooled so that a
// selection allocates nothing beyond what it appends to its caller's slice.
type selector struct {
	heap    topKHeap
	classes []classRef
}

var selectorPool = sync.Pool{New: func() any { return new(selector) }}

// selectLinearLocked is the PR 4 selection path: score every candidate of
// the FROM clause against the probe, from the clause's signature rows, into
// heap. Callers hold at least the read lock and have checked
// 0 < k < len(entries). It returns the usable (Card > 0) candidate count,
// the reference for truncation accounting.
func (p *Pool) selectLinearLocked(heap *topKHeap, idx *fromIndex, probe *query.Signature) int {
	p.scannedFall.Add(uint64(len(idx.rows)))
	usable := 0
	for i := range idx.rows {
		r := &idx.rows[i]
		if r.card <= 0 {
			// Empty-result entries carry no information; the estimator drops
			// them anyway, so skipping them here is not a truncation.
			continue
		}
		usable++
		old := r.signature(idx.ranges)
		heap.offer(scoredRef{score: probe.Similarity(&old), idx: i, id: r.id})
	}
	return usable
}

// touchAllLocked stamps every entry of an index as just-matched. Callers
// hold at least the read lock; the stores are atomic because concurrent
// readers may stamp the same slots. On an unbounded pool the stamps are
// dead weight (nothing ever evicts), so the default serving configuration
// skips them and the read path stays write-free.
func (p *Pool) touchAllLocked(idx *fromIndex) {
	if p.cap <= 0 {
		return
	}
	now := p.tick.Add(1)
	for i := range idx.lastHit {
		atomic.StoreInt64(&idx.lastHit[i], now)
	}
}

// UpdateCard replaces a pooled query's actual cardinality — execution
// feedback for an already pooled query whose truth moved because the data
// underneath changed (the §9 database-updates case). It reports whether
// an entry was updated (false: not pooled, or the cardinality is
// unchanged). An update bumps Version and notifies listeners like any
// other mutation; cached query representations do not depend on the
// cardinality, so subscribed caches absorb it without dropping anything.
func (p *Pool) UpdateCard(q query.Query, card int64) bool {
	if card < 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.updateCardLocked(q, q.Key(), card)
}

// updateCardLocked is UpdateCard under the caller's write lock.
func (p *Pool) updateCardLocked(q query.Query, key string, card int64) bool {
	id, ok := p.byKey[key]
	if !ok {
		return false
	}
	idx := p.byFrom[q.FROMKey()]
	if idx == nil {
		return false
	}
	pos, ok := idx.byID[id]
	if !ok || idx.entries[pos].Card == card {
		return false
	}
	if old := idx.entries[pos].Card; (old > 0) != (card > 0) {
		if card > 0 {
			idx.nPos++
		} else {
			idx.nPos--
		}
	}
	idx.entries[pos].Card = card
	idx.rows[pos].card = card
	idx.stamp = p.notifyLocked("")
	return true
}

// Contains reports whether the exact query is pooled.
func (p *Pool) Contains(q query.Query) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, ok := p.byKey[q.Key()]
	return ok
}

// Len returns the number of pooled queries.
func (p *Pool) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.entries
}

// FROMKeys returns the distinct FROM clauses present in the pool.
func (p *Pool) FROMKeys() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.byFrom))
	for k := range p.byFrom {
		out = append(out, k)
	}
	return out
}

// Entries returns a copy of all pooled entries (diagnostics, sweeps).
func (p *Pool) Entries() []Entry {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]Entry, 0, p.entries)
	for _, idx := range p.byFrom {
		out = append(out, idx.entries...)
	}
	return out
}

// HotEntries returns up to n entries ordered by their recency stamp, most
// recent first (ties broken by insertion ID, newest first). On a
// capacity-bounded pool selection re-stamps what it returns, so the order is
// last-match recency — the working set candidate selection is actually
// using; on an unbounded pool nothing re-stamps, and the order is newest
// inserted first. Cache warming uses it so a bounded warm covers the hot
// entries instead of an arbitrary subset. n <= 0 or n >= Len returns every
// entry (still in that order).
func (p *Pool) HotEntries(n int) []Entry {
	type stamped struct {
		e    Entry
		tick int64
	}
	p.mu.RLock()
	all := make([]stamped, 0, p.entries)
	for _, idx := range p.byFrom {
		for i := range idx.entries {
			all = append(all, stamped{e: idx.entries[i], tick: atomic.LoadInt64(&idx.lastHit[i])})
		}
	}
	p.mu.RUnlock()
	slices.SortFunc(all, func(a, b stamped) int {
		if c := cmp.Compare(b.tick, a.tick); c != 0 {
			return c
		}
		return cmp.Compare(b.e.ID, a.e.ID)
	})
	if n > 0 && n < len(all) {
		all = all[:n]
	}
	out := make([]Entry, len(all))
	for i, s := range all {
		out[i] = s.e
	}
	return out
}

// Stats is a point-in-time snapshot of the pool and its candidate index.
type Stats struct {
	Entries  int `json:"entries"`
	FROMKeys int `json:"from_keys"`
	Capacity int `json:"capacity"` // 0: unbounded
	// Evictions counts entries removed by the capacity bound.
	Evictions uint64 `json:"evictions"`
	// TopKCalls counts bounded candidate selections (full-scan fallbacks,
	// where the bound did not bind, are excluded).
	TopKCalls uint64 `json:"topk_calls"`
	// ScannedCandidates is the total number of candidates visited across all
	// TopKCalls — the selection-side cost of bounded selection; the sum of
	// ScannedIndexed and ScannedFallback.
	ScannedCandidates uint64 `json:"scanned_candidates"`
	// ScannedIndexed counts candidates visited by index-served selections —
	// sublinear in the FROM clause's entry count when classes recur.
	ScannedIndexed uint64 `json:"scanned_indexed"`
	// ScannedFallback counts candidates scored by linear-scan selections
	// (index disabled, or the density guard rejected the clause).
	ScannedFallback uint64 `json:"scanned_fallback"`
	// IndexHits counts bounded selections served by the signature-class
	// index; IndexFallbacks counts those the density guard sent to the
	// linear scan. Hits + fallbacks = TopKCalls on an index-enabled pool;
	// both stay zero with WithIndexedSelection(false).
	IndexHits      uint64 `json:"index_hits"`
	IndexFallbacks uint64 `json:"index_fallbacks"`
	// TruncatedCalls counts TopK selections that dropped at least one
	// candidate (the bound actually bound).
	TruncatedCalls uint64 `json:"truncated_calls"`
}

// Stats returns the pool's index and eviction counters.
func (p *Pool) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	si, sf := p.scannedIdx.Load(), p.scannedFall.Load()
	return Stats{
		Entries:           p.entries,
		FROMKeys:          len(p.byFrom),
		Capacity:          p.cap,
		Evictions:         p.evictions.Load(),
		TopKCalls:         p.topKCalls.Load(),
		ScannedCandidates: si + sf,
		ScannedIndexed:    si,
		ScannedFallback:   sf,
		IndexHits:         p.indexHits.Load(),
		IndexFallbacks:    p.indexFallbacks.Load(),
		TruncatedCalls:    p.truncated.Load(),
	}
}

// Subset returns a new pool holding at most n entries, taken round-robin
// across FROM clauses so that every clause stays covered — the construction
// used for the pool-size sweep (Table 14, "equally distributed over all the
// possible FROM clauses").
func (p *Pool) Subset(n int) *Pool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := New()
	if n <= 0 {
		return out
	}
	keys := make([]string, 0, len(p.byFrom))
	for k := range p.byFrom {
		keys = append(keys, k)
	}
	// Deterministic order.
	sort.Strings(keys)
	idx := 0
	for out.entries < n {
		progress := false
		for _, k := range keys {
			es := p.byFrom[k].entries
			if idx < len(es) {
				out.Add(es[idx].Q, es[idx].Card)
				progress = true
				if out.entries >= n {
					break
				}
			}
		}
		if !progress {
			break
		}
		idx++
	}
	return out
}

// FinalFunc collapses the per-old-query cardinality estimates into the
// final estimate (the function F of §5.3). The caller may reuse the
// slice's backing storage across invocations, so implementations must not
// retain it past the call (copy first if sorting in place or keeping it).
type FinalFunc func([]float64) float64

// Median is the paper's chosen final function (§5.3.1, §6.3).
func Median(results []float64) float64 { return metrics.Median(results) }

// Mean is the arithmetic-mean final function.
func Mean(results []float64) float64 { return metrics.Mean(results) }

// TrimmedMean removes 12.5% of each tail ("the 25% outliers", §5.3.1)
// before averaging.
func TrimmedMean(results []float64) float64 { return metrics.TrimmedMean(results, 0.125) }
