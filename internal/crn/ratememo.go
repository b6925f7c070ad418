package crn

import (
	"math"
	"sync"
	"sync/atomic"
)

// rateMemo memoizes pair-head outputs by resident row pair. A containment
// rate depends only on the two queries and the frozen weights, and a
// resident row ID names one query for as long as its storage lives (see
// residentSnap), so (row1, row2) → PredictInto's float64 is exact: a hit
// returns the very bits the head produced. One memo belongs to one
// resident storage — every snapshot of that storage points at it, a flush
// drops both together, a compaction builds the successor with remap — so a
// request always pairs row IDs with the memo they were issued for, and a
// stale request can only write into a memo nobody will read again.
//
// The table is open-addressed (linear probing) and insert-only: a slot's key
// is written once, after its value, so the lock-free reader that sees the key
// sees the value. Writers serialize on mu; growth republishes a rehashed
// table and leaves the old one to the readers still holding it. The same
// table, keyed by a hash of the canonical query key, is RepCache's sighting
// filter (see sight).
type rateMemo struct {
	tab      atomic.Pointer[memoTable]
	entries  atomic.Int64
	mu       sync.Mutex
	maxSlots int
}

type memoTable struct {
	slots []memoSlot // power-of-two length
	shift uint       // 64 - log2(len(slots))
}

// memoSlot holds one pair: key 0 is empty, val the rate's float64 bits.
type memoSlot struct{ key, val atomic.Uint64 }

const (
	// memoPerRow bounds the memo at this many slots per unit of cache
	// capacity (16 bytes a slot, at most three quarters used): room for a
	// few dozen partners per resident row, the shape a pool scan produces.
	memoPerRow = 64
	// memoMinSlots is the size a table starts at; sizes double from here.
	memoMinSlots = 1024
)

// newRateMemo creates an empty memo whose table stops doubling once it has
// maxSlots slots.
func newRateMemo(maxSlots int) *rateMemo {
	m := &rateMemo{maxSlots: maxSlots}
	m.tab.Store(newMemoTable(memoMinSlots))
	return m
}

func newMemoTable(slots int) *memoTable {
	t := &memoTable{slots: make([]memoSlot, slots), shift: 64}
	for n := slots; n > 1; n >>= 1 {
		t.shift--
	}
	return t
}

// pairKey packs two resident row IDs into a non-zero table key.
func pairKey(r1, r2 int) uint64 { return 1<<63 | uint64(r1)<<32 | uint64(r2) }

// slot walks key's linear-probe sequence to the slot holding it, or to the
// empty slot that ends the sequence (a table is never full). Lock-free.
func (t *memoTable) slot(key uint64) (s *memoSlot, found bool) {
	mask := len(t.slots) - 1
	for p := int(key * 0x9E3779B97F4A7C15 >> t.shift); ; p = (p + 1) & mask {
		switch s = &t.slots[p]; s.key.Load() {
		case key:
			return s, true
		case 0:
			return s, false
		}
	}
}

// get returns the memoized rate of a pair.
func (t *memoTable) get(key uint64) (float64, bool) {
	s, found := t.slot(key)
	if !found {
		return 0, false
	}
	return math.Float64frombits(s.val.Load()), true
}

// put records vals[i] as the rate of pairs[i] for every pair whose two
// sides (translated through rowOf) are resident rows, i.e. below resident.
func (m *rateMemo) put(pairs [][2]int, rowOf []int, resident int, vals []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, p := range pairs {
		if r1, r2 := rowOf[p[0]], rowOf[p[1]]; r1 < resident && r2 < resident {
			m.set(pairKey(r1, r2), math.Float64bits(vals[i]))
		}
	}
}

// fill publishes a pair in an empty slot: the value first, so that whoever
// sees the key sees it.
func (s *memoSlot) fill(key, bits uint64) {
	s.val.Store(bits)
	s.key.Store(key)
}

// set stores one pair unless its key is present, and reports whether it
// was; callers hold mu. A table about to pass three quarters full is
// replaced first.
func (m *rateMemo) set(key, bits uint64) (found bool) {
	t := m.tab.Load()
	if int(m.entries.Load()) >= len(t.slots)/4*3 {
		t = m.successor(t)
		m.tab.Store(t)
	}
	s, found := t.slot(key)
	if !found {
		s.fill(key, bits)
		m.entries.Add(1)
	}
	return found
}

// sight reports whether key is in the table, inserting it if not: the
// RepCache sighting filter's one operation. A key already present costs a
// lock-free probe.
func (m *rateMemo) sight(key uint64) bool {
	if _, found := m.tab.Load().slot(key); found {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.set(key, 0)
}

// successor returns the table that replaces a filled-up t: twice the size
// with every entry rehashed — or, at the bound, an empty one, so a drifting
// working set keeps being served instead of finding the memo permanently
// full.
func (m *rateMemo) successor(t *memoTable) *memoTable {
	if len(t.slots) >= m.maxSlots {
		m.entries.Store(0)
		return newMemoTable(memoMinSlots)
	}
	next := newMemoTable(2 * len(t.slots))
	for i := range t.slots {
		if k := t.slots[i].key.Load(); k != 0 {
			s, _ := next.slot(k)
			s.fill(k, t.slots[i].val.Load())
		}
	}
	return next
}

// remap builds the memo of a compacted storage: every pair whose two rows
// survive (newRow[r] >= 0) is carried over under the new IDs.
func (m *rateMemo) remap(newRow []int) *rateMemo {
	next := newRateMemo(m.maxSlots)
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.tab.Load()
	for i := range old.slots {
		if k := old.slots[i].key.Load(); k != 0 {
			r1, r2 := newRow[k<<1>>33], newRow[uint32(k)]
			if r1 >= 0 && r2 >= 0 {
				next.set(pairKey(r1, r2), old.slots[i].val.Load())
			}
		}
	}
	return next
}
