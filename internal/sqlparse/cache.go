package sqlparse

import (
	"hash/maphash"
	"slices"
	"strings"
	"sync/atomic"

	"crn/internal/query"
	"crn/internal/schema"
)

// Statement-cache geometry. Constants, not options: one entry retains its
// request text (at most maxStatementLen bytes) plus the canonical query
// parsed from it, which is bounded by that text — about 1 KB for the generated
// 0–2-join workload, about 6 KB for the worst text that fits (a conjunction
// of ~60 distinct minimal predicates). At capacity that is ~8 MB resident for
// ordinary traffic and under 50 MB for an adversarial stream.
const (
	cacheWays = 4
	cacheSets = 2048

	// cacheCapacity is the number of statements a Cache can hold.
	cacheCapacity = cacheWays * cacheSets

	// maxStatementLen is the longest request text a Cache admits.
	// Longer texts are parsed and answered but not retained, so padding a
	// body with whitespace cannot turn it into resident memory.
	maxStatementLen = 1024
)

// Cache is a statement cache in front of Parse for one schema: the exact
// bytes of a request text map to the canonical query Parse returned for them.
// A planner session asks about the same sub-plans again and again, so on
// serving traffic most texts were parsed before.
//
// The table is set-associative with a fixed capacity and is never
// invalidated — a schema is immutable, so a text always parses to the same
// query. Lookups are lock-free (one hash, at most four string compares);
// a miss parses exactly as Parse does and, in a full set, overwrites the way
// picked by the text's own hash — stateless and pseudo-random, so hot texts
// that outnumber the ways of their set do not evict each other in lockstep.
// Only successful parses are admitted, so every error is produced by the
// parser, and differently spelled texts of one query are separate entries.
// Safe for concurrent use. Every hit adds to one shared counter; how that
// scales past 2 CPUs has not been measured.
type Cache struct {
	schema *schema.Schema
	seed   maphash.Seed
	sets   [cacheSets]cacheSet

	hits     atomic.Uint64
	misses   atomic.Uint64
	oversize atomic.Uint64
	entries  atomic.Int64
}

type cacheSet struct {
	ways [cacheWays]atomic.Pointer[cacheEntry]
}

// cacheEntry is immutable once published.
type cacheEntry struct {
	hash uint64
	text string // an owned copy: request texts alias per-request buffers
	q    query.Query
}

// CacheStats is a point-in-time snapshot of a statement cache.
type CacheStats struct {
	// Hits and Misses count lookups; a miss ran the parser.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Entries is the number of statements held, at most Capacity.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// RejectedOversize counts well-formed texts above the admission length
	// limit (1024 bytes): answered, not admitted.
	RejectedOversize uint64 `json:"rejected_oversize"`
}

// NewCache creates an empty statement cache for the schema.
func NewCache(s *schema.Schema) *Cache {
	return &Cache{schema: s, seed: maphash.MakeSeed()}
}

// Parse is Parse(schema, sql) answered from the cache when these exact bytes
// were parsed before. The returned query may be shared with other callers
// and must not be modified in place; appending to its slices is safe (they
// have no spare capacity).
func (c *Cache) Parse(sql string) (query.Query, error) {
	h := maphash.String(c.seed, sql)
	set := &c.sets[h%cacheSets]
	for i := range set.ways {
		if e := set.ways[i].Load(); e != nil && e.hash == h && e.text == sql {
			c.hits.Add(1)
			return e.q, nil
		}
	}
	c.misses.Add(1)
	q, err := Parse(c.schema, sql)
	if err != nil {
		return q, err
	}
	if len(sql) > maxStatementLen {
		c.oversize.Add(1)
		return q, nil
	}
	q.Tables, q.Joins, q.Preds = slices.Clip(q.Tables), slices.Clip(q.Joins), slices.Clip(q.Preds)
	e := &cacheEntry{hash: h, text: strings.Clone(sql), q: q}
	for i := range set.ways {
		if set.ways[i].Load() == nil && set.ways[i].CompareAndSwap(nil, e) {
			c.entries.Add(1)
			return q, nil
		}
	}
	set.ways[(h>>32)%cacheWays].Store(e) // the set index used the low bits
	return q, nil
}

// Stats returns the cache's counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		Entries:          int(c.entries.Load()),
		Capacity:         cacheCapacity,
		RejectedOversize: c.oversize.Load(),
	}
}
