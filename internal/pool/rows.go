package pool

import "crn/internal/query"

// Signature rows: what bounded selection reads per candidate.
//
// Every fromIndex keeps one sigRow per entry, position for position with
// entries and lastHit: the entry's signature masks, the span of its
// per-column ranges in the clause's range arena, its cardinality and its ID
// — 64 bytes, one cache line. The linear scan and the class walk score a
// candidate from its row and the arena, two blocks of contiguous per-clause
// memory, instead of following Entry → Query → signature → ranges, three
// dependent loads into memory scattered over the heap. A row's view
// (sigRow.signature) is an ordinary query.Signature whose Ranges alias the
// arena, so selection scores with the one Similarity there is.
//
// The rows mutate with the entries, under the pool's write lock: an insert
// appends a row and its ranges, an eviction swap-removes the row like its
// entry and leaves its ranges dead in the arena, and a cardinality update
// rewrites the row's card. The arena is rebuilt from the entries' own
// signatures once its dead ranges outnumber its live ones, so it stays
// within twice the live ranges at O(1) amortized cost per eviction.

// sigRow is one entry's signature and identity as selection reads them.
type sigRow struct {
	cols, joins uint64
	ops         [query.NumOpClass]uint64
	lo, hi      uint32 // the entry's ranges: the arena's [lo, hi)
	card        int64
	id          int64
}

// signature returns the row's signature, its Ranges aliasing ranges (the
// clause's arena): valid, like the arena, until the clause next mutates.
func (r *sigRow) signature(ranges []query.ColRange) query.Signature {
	return query.Signature{Cols: r.cols, Joins: r.joins, Ops: r.ops, Ranges: ranges[r.lo:r.hi:r.hi]}
}

// appendRow appends the row of the entry just appended to entries. The
// caller holds the write lock.
func (idx *fromIndex) appendRow(sig *query.Signature, card, id int64) {
	lo := len(idx.ranges)
	idx.ranges = append(idx.ranges, sig.Ranges...)
	idx.rows = append(idx.rows, sigRow{
		cols: sig.Cols, joins: sig.Joins, ops: sig.Ops,
		lo: uint32(lo), hi: uint32(len(idx.ranges)),
		card: card, id: id,
	})
}

// removeRow swap-removes the row at pos, as removeEntryLocked does the
// entry (which must already be swap-removed from entries), and compacts the
// arena once its dead ranges outnumber its live ones. The caller holds the
// write lock.
func (idx *fromIndex) removeRow(pos int) {
	idx.deadRanges += int(idx.rows[pos].hi - idx.rows[pos].lo)
	last := len(idx.rows) - 1
	idx.rows[pos] = idx.rows[last]
	idx.rows = idx.rows[:last]
	if idx.deadRanges > len(idx.ranges)-idx.deadRanges {
		idx.compactRanges()
	}
}

// compactRanges rewrites the arena in place to the live rows' ranges, in
// row order, copying each from its entry's own signature: the arena is
// never read, so no range can be overwritten before it is copied.
func (idx *fromIndex) compactRanges() {
	idx.ranges = idx.ranges[:0]
	for i := range idx.rows {
		sig := idx.entries[i].Q.Signature()
		idx.rows[i].lo = uint32(len(idx.ranges))
		idx.ranges = append(idx.ranges, sig.Ranges...)
		idx.rows[i].hi = uint32(len(idx.ranges))
	}
	idx.deadRanges = 0
}
