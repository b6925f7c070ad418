package online

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"crn/internal/pool"
	"crn/internal/query"
)

// Record is one piece of execution feedback: a query the DBMS actually ran
// together with its observed true cardinality. LSN is the record's position
// in the durable feedback journal (0 when the deployment runs without one).
type Record struct {
	Q          query.Query
	Card       int64
	ObservedAt time.Time
	LSN        uint64
}

// JournalFunc persists one validated feedback record before it is staged
// and returns the log sequence number it was assigned. An error degrades
// the collector to in-memory staging (see Offer) rather than rejecting the
// record: feedback is signal the workload paid real executions for, and
// losing it to a full disk would be strictly worse than holding it in
// memory until the disk recovers.
type JournalFunc func(sql string, card int64, observedAt time.Time) (uint64, error)

// Collector validates, deduplicates and stages execution feedback in a
// bounded buffer until the trainer drains it. It sits on the serving write
// path (every /feedback request), so Offer is a short critical section —
// no parsing, no executor calls, no training work.
//
// Deduplication is two-level: against the queries pool (a pooled query's
// truth is already known; re-learning it adds nothing) and against the
// staged buffer itself (the same query reported twice between drains
// counts once). Overflow rejects the newcomer rather than displacing
// staged records: staged feedback is strictly older and therefore closer
// to being trained on.
type Collector struct {
	pool *pool.Pool
	cap  int

	mu      sync.Mutex
	staged  []Record
	keys    map[string]bool
	journal JournalFunc // nil: in-memory only

	// degraded marks durability degraded: a journal append failed, and
	// until ReJournal succeeds new feedback is staged in memory only
	// (LSN 0). The flag is the serving layer's durability_degraded signal.
	degraded atomic.Bool

	accepted     atomic.Uint64
	duplicates   atomic.Uint64
	corrected    atomic.Uint64
	invalid      atomic.Uint64
	overflow     atomic.Uint64
	drained      atomic.Uint64
	journalErrs  atomic.Uint64
	appliedLSN   atomic.Uint64
	degradedRecs atomic.Uint64
	reupgrades   atomic.Uint64
}

// NewCollector creates a collector staging at most capacity records
// (capacity <= 0 selects the Config default of 1024). The pool, when
// non-nil, is consulted for deduplication.
func NewCollector(p *pool.Pool, capacity int) *Collector {
	if capacity <= 0 {
		capacity = Config{}.withDefaults().BufferCap
	}
	return &Collector{pool: p, cap: capacity, keys: make(map[string]bool)}
}

// SetJournal installs the durable journal hook: every record Offer accepts
// is appended through it before it is staged (write-ahead ordering); a
// failed append degrades the collector instead (see Offer). Install before
// feedback starts flowing; nil disables journaling.
func (c *Collector) SetJournal(j JournalFunc) {
	c.mu.Lock()
	c.journal = j
	c.mu.Unlock()
}

// SetAppliedLSN seeds the applied-LSN watermark at recovery time with the
// checkpoint's value; Drain advances it from there.
func (c *Collector) SetAppliedLSN(lsn uint64) { c.appliedLSN.Store(lsn) }

// AppliedLSN returns the highest journal LSN among records already handed
// to the trainer (drained). Staged records always carry higher LSNs —
// appends assign LSNs in order and Drain is oldest-first — so a checkpoint
// at this watermark misses no drained record, and every staged one is
// recovered by replay.
func (c *Collector) AppliedLSN() uint64 { return c.appliedLSN.Load() }

// Offer stages one feedback record. It reports whether the record was
// accepted; a negative cardinality is an error (feedback must carry an
// observed truth), a duplicate or an overflow is a silent false, counted
// in Stats. Feedback for an already pooled query whose truth is unchanged
// is a duplicate — the pool already carries everything it teaches. When
// its truth MOVED (the data changed underneath the DBMS, the §9 update
// case), the pool entry is corrected in place so Cnt2Crd stops anchoring
// estimates to a stale cardinality, AND the record is staged: a moved
// truth is fresh training signal, and without staging it a
// corrections-dominated drift could never feed the retrainer.
func (c *Collector) Offer(q query.Query, card int64, observedAt time.Time) (bool, error) {
	return c.admit(Record{Q: q, Card: card, ObservedAt: observedAt}, true)
}

// Restage re-stages one journaled record during recovery replay. It is
// Offer without the journal — the record is already durable, and
// re-appending it would double-log every replayed record on every boot —
// and the record keeps its journaled LSN. The pool-correction path is
// intentionally shared: a replayed correction record re-corrects the
// checkpointed pool entry, converging on the pre-crash state.
func (c *Collector) Restage(q query.Query, card int64, observedAt time.Time, lsn uint64) (bool, error) {
	return c.admit(Record{Q: q, Card: card, ObservedAt: observedAt, LSN: lsn}, false)
}

// admit is the one staging body behind Offer and Restage: validation, pool
// correction, dedup against the buffer and the overflow bound, then — when
// journal is set — the write-ahead append, then staging.
func (c *Collector) admit(r Record, journal bool) (bool, error) {
	if r.Card < 0 {
		c.invalid.Add(1)
		return false, fmt.Errorf("online: feedback cardinality must be non-negative, got %d", r.Card)
	}
	key := r.Q.Key()
	if c.pool != nil && c.pool.Contains(r.Q) {
		if !c.pool.UpdateCard(r.Q, r.Card) {
			c.duplicates.Add(1)
			return false, nil
		}
		c.corrected.Add(1)
		// Fall through: stage the corrected record for retraining.
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.keys[key] {
		c.duplicates.Add(1)
		return false, nil
	}
	if len(c.staged) >= c.cap {
		c.overflow.Add(1)
		return false, nil
	}
	switch {
	case !journal || c.journal == nil:
		// Replayed (already durable) or in-memory: nothing to journal.
	case c.degraded.Load():
		// Durability already degraded: don't hammer the broken disk on the
		// feedback hot path — ReJournal's backoff loop owns the re-probe.
		c.degradedRecs.Add(1)
	default:
		// Write-ahead: the record reaches the journal before the buffer, so
		// a crash between here and the next checkpoint replays it. Journal
		// failure DEGRADES instead of rejecting: the record is staged with
		// LSN 0 (in memory only, lost if we crash before ReJournal catches
		// up — a bounded, flagged narrowing of the durability contract) and
		// the degraded flag routes future feedback past the disk until a
		// re-probe succeeds.
		if lsn, err := c.journal(r.Q.SQL(), r.Card, r.ObservedAt); err == nil {
			r.LSN = lsn
		} else {
			c.journalErrs.Add(1)
			c.degraded.Store(true)
			c.degradedRecs.Add(1)
		}
	}
	c.keys[key] = true
	c.staged = append(c.staged, r)
	c.accepted.Add(1)
	return true, nil
}

// Degraded reports whether durability is degraded: journaling failed and
// feedback since then is staged in memory only.
func (c *Collector) Degraded() bool { return c.degraded.Load() }

// ReJournal attempts to restore durability after a degradation: every
// staged record accepted without a journal entry (LSN 0) is appended now,
// oldest first, through the same journal hook. The journal calls double as
// disk probes — the first failure aborts and keeps the collector degraded
// for the next backoff round. Once every staged record is journaled (or
// none needed it), the degraded flag clears and new feedback journals
// inline again. It returns how many records were re-journaled.
//
// Records drained to the trainer while degraded are gone from the staging
// buffer and cannot be re-journaled: a crash loses them. That bounded,
// flagged loss window is the degraded-mode contract.
func (c *Collector) ReJournal() (journaled int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal == nil || !c.degraded.Load() {
		return 0, nil
	}
	for i := range c.staged {
		if c.staged[i].LSN != 0 {
			continue
		}
		r := &c.staged[i]
		lsn, jerr := c.journal(r.Q.SQL(), r.Card, r.ObservedAt)
		if jerr != nil {
			c.journalErrs.Add(1)
			return journaled, fmt.Errorf("online: re-journal feedback: %w", jerr)
		}
		r.LSN = lsn
		journaled++
	}
	c.degraded.Store(false)
	c.reupgrades.Add(1)
	return journaled, nil
}

// Drain removes and returns every staged record, oldest first.
func (c *Collector) Drain() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.staged
	c.staged = nil
	for _, r := range out {
		delete(c.keys, r.Q.Key())
		if r.LSN > c.appliedLSN.Load() {
			c.appliedLSN.Store(r.LSN)
		}
	}
	c.drained.Add(uint64(len(out)))
	return out
}

// Staged returns the number of records waiting for the trainer.
func (c *Collector) Staged() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.staged)
}

// CollectorStats is a point-in-time snapshot of feedback ingestion.
type CollectorStats struct {
	Staged   int    `json:"staged"`
	Capacity int    `json:"capacity"`
	Accepted uint64 `json:"accepted"`
	// Duplicates counts feedback whose truth the pool or buffer already
	// carried; Corrected counts pooled entries whose cardinality the
	// feedback moved (data changed underneath the DBMS).
	Duplicates uint64 `json:"duplicates"`
	Corrected  uint64 `json:"corrected"`
	Invalid    uint64 `json:"invalid"`
	Overflow   uint64 `json:"overflow"`
	Drained    uint64 `json:"drained"`
	// JournalErrors counts failed journal appends (zero in memory-only
	// deployments). Degraded reports whether durability is degraded right
	// now; DegradedAccepted counts feedback accepted in memory only while
	// degraded, and Reupgrades counts successful returns to full
	// durability.
	JournalErrors    uint64 `json:"journal_errors"`
	Degraded         bool   `json:"durability_degraded"`
	DegradedAccepted uint64 `json:"degraded_accepted"`
	Reupgrades       uint64 `json:"reupgrades"`
}

// Stats returns the ingestion counters.
func (c *Collector) Stats() CollectorStats {
	return CollectorStats{
		Staged:           c.Staged(),
		Capacity:         c.cap,
		Accepted:         c.accepted.Load(),
		Duplicates:       c.duplicates.Load(),
		Corrected:        c.corrected.Load(),
		Invalid:          c.invalid.Load(),
		Overflow:         c.overflow.Load(),
		Drained:          c.drained.Load(),
		JournalErrors:    c.journalErrs.Load(),
		Degraded:         c.degraded.Load(),
		DegradedAccepted: c.degradedRecs.Load(),
		Reupgrades:       c.reupgrades.Load(),
	}
}
