package pool

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"crn/internal/query"
	"crn/internal/sqlparse"
)

// randIndexShape draws a conjunctive query shape over the star schema with
// deliberately overlapping predicate structure — a small column set and
// occasional joins — with its constants left as %d verbs.
func randIndexShape(r *rand.Rand) string {
	cols := []string{"title.kind_id", "title.production_year", "title.season_nr", "title.episode_nr"}
	ops := []string{"<", "=", ">"}
	var preds []string
	for n := 1 + r.Intn(3); n > 0; n-- {
		preds = append(preds, cols[r.Intn(len(cols))]+" "+ops[r.Intn(len(ops))]+" %d")
	}
	if r.Intn(4) == 0 {
		preds = append(preds, "title.id = cast_info.movie_id")
		if r.Intn(2) == 0 {
			preds = append(preds, "cast_info.role_id = %d")
		}
		return "SELECT * FROM cast_info, title WHERE " + strings.Join(preds, " AND ")
	}
	return "SELECT * FROM title WHERE " + strings.Join(preds, " AND ")
}

// fillShape instantiates a shape with constants from a tight range, so one
// shape recurs with equal values (class members with identical signatures),
// distinct values and conflicting ranges — the full case surface of the
// inverted index.
func fillShape(r *rand.Rand, shape string) string {
	args := make([]any, strings.Count(shape, "%d"))
	for i := range args {
		args[i] = r.Intn(40)
	}
	return fmt.Sprintf(shape, args...)
}

// randIndexSQL draws a query of a fresh random shape. A pool of these has
// nearly one signature class per entry, which the density guard sends to
// the linear scan, so they serve as probes.
func randIndexSQL(r *rand.Rand) string { return fillShape(r, randIndexShape(r)) }

// indexShapes draws the shapes of a templated workload: a pool drawn from a
// dozen shapes (templatedSQL) holds far fewer classes than entries, so its
// bounded selections go through the index.
func indexShapes(r *rand.Rand) []string {
	shapes := make([]string, 12)
	for i := range shapes {
		shapes[i] = randIndexShape(r)
	}
	return shapes
}

// templatedSQL draws a query of one of the given shapes.
func templatedSQL(r *rand.Rand, shapes []string) string {
	return fillShape(r, shapes[r.Intn(len(shapes))])
}

// mustTopKEqual asserts two TopK results are fully identical: same entries,
// same order, same cardinalities.
func mustTopKEqual(t *testing.T, ctx string, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Card != want[i].Card {
			t.Fatalf("%s: entry %d = (ID %d, card %d), want (ID %d, card %d)",
				ctx, i, got[i].ID, got[i].Card, want[i].ID, want[i].Card)
		}
	}
}

// TestIndexedTopKMatchesLinearScan pins the tentpole equivalence: for
// templated pools and random probes, selection through the signature-class index
// returns exactly — same set, same order, bit for bit — what the linear
// scan returns, across every k regime (unbound, non-binding, binding,
// k = 1).
func TestIndexedTopKMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	idxPool := New()
	linPool := New(WithIndexedSelection(false))
	shapes := indexShapes(r)
	for n := 0; n < 400; n++ {
		q := sqlparse.MustParse(s, templatedSQL(r, shapes))
		card := int64(r.Intn(50)) // includes 0: dead entries both paths skip
		idxPool.Add(q, card)
		linPool.Add(q, card)
	}
	ks := []int{1, 2, 3, 8, 50, idxPool.Len() - 1, idxPool.Len(), 0}
	for probeN := 0; probeN < 60; probeN++ {
		probe := sqlparse.MustParse(s, randIndexSQL(r))
		for _, k := range ks {
			mustTopKEqual(t, fmt.Sprintf("probe %d k=%d (%s)", probeN, k, probe.SQL()),
				idxPool.TopK(probe, k), linPool.TopK(probe, k))
		}
	}
	ist, lst := idxPool.Stats(), linPool.Stats()
	if ist.TopKCalls != lst.TopKCalls || ist.TruncatedCalls != lst.TruncatedCalls {
		t.Errorf("call accounting diverged: indexed %+v vs linear %+v", ist, lst)
	}
	if ist.IndexHits == 0 || ist.ScannedIndexed == 0 {
		t.Errorf("indexed pool never used the index: %+v", ist)

	}
	if ist.ScannedIndexed >= lst.ScannedFallback {
		t.Errorf("index scanned %d candidates, linear scanned %d — no pruning happened",
			ist.ScannedIndexed, lst.ScannedFallback)
	}
}

// TestIndexCoherenceUnderMutation drives an indexed bounded pool and a
// linear twin through one identical randomized interleaving of Add (with
// LRU eviction pressure), UpdateCard (including to/from zero) and TopK, and
// requires bit-identical selection throughout, and after every operation
// both pools' signature rows equal their entries (checkRows). Both pools
// see the same operation sequence, so their tick clocks, IDs and eviction
// victims coincide; any divergence is index incoherence.
func TestIndexCoherenceUnderMutation(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	idxPool := New(WithCap(120))
	linPool := New(WithCap(120), WithIndexedSelection(false))
	var added []query.Query
	shapes := indexShapes(r)
	for step := 0; step < 4000; step++ {
		switch r.Intn(5) {
		case 0, 1: // add (evicts once full)
			q := sqlparse.MustParse(s, templatedSQL(r, shapes))
			card := int64(r.Intn(40))
			if idxPool.Add(q, card) != linPool.Add(q, card) {
				t.Fatalf("step %d: add outcome diverged for %s", step, q.SQL())
			}
			added = append(added, q)
		case 2: // update a previously added query's truth (may be evicted: no-op)
			if len(added) == 0 {
				continue
			}
			q := added[r.Intn(len(added))]
			card := int64(r.Intn(40)) // 0 flips liveness
			if idxPool.UpdateCard(q, card) != linPool.UpdateCard(q, card) {
				t.Fatalf("step %d: update outcome diverged for %s", step, q.SQL())
			}
		default: // select
			probe := sqlparse.MustParse(s, randIndexSQL(r))
			k := 1 + r.Intn(12)
			mustTopKEqual(t, fmt.Sprintf("step %d k=%d (%s)", step, k, probe.SQL()),
				idxPool.TopK(probe, k), linPool.TopK(probe, k))
		}
		checkEvictionHeap(t, idxPool)
		checkEvictionHeap(t, linPool)
		checkRows(t, idxPool)
		checkRows(t, linPool)
	}
	if idxPool.Len() != linPool.Len() {
		t.Fatalf("pool sizes diverged: %d vs %d", idxPool.Len(), linPool.Len())
	}
	ist := idxPool.Stats()
	if ist.Evictions == 0 {
		t.Fatal("interleaving never evicted — the coherence test lost its point")
	}
	if ist.IndexHits == 0 {
		t.Fatalf("interleaving never exercised the index: %+v", ist)
	}
	if ist.TruncatedCalls != linPool.Stats().TruncatedCalls {
		t.Errorf("truncation accounting diverged: indexed %+v vs linear %+v", ist, linPool.Stats())
	}
}

// TestIndexedTopKAfterSaveLoad round-trips a mutated indexed pool through
// Save/Load (the index is rebuilt by Load's re-Adds) and checks selection
// still matches a linear-scan load of the same bytes.
func TestIndexedTopKAfterSaveLoad(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	p := New(WithCap(150))
	shapes := indexShapes(r)
	for n := 0; n < 300; n++ {
		p.Add(sqlparse.MustParse(s, templatedSQL(r, shapes)), int64(r.Intn(40)))
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	idxPool, err := Load(s, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("load indexed: %v", err)
	}
	linPool, err := Load(s, bytes.NewReader(buf.Bytes()), WithIndexedSelection(false))
	if err != nil {
		t.Fatalf("load linear: %v", err)
	}
	for probeN := 0; probeN < 40; probeN++ {
		probe := sqlparse.MustParse(s, randIndexSQL(r))
		k := 1 + r.Intn(10)
		mustTopKEqual(t, fmt.Sprintf("probe %d k=%d", probeN, k),
			idxPool.TopK(probe, k), linPool.TopK(probe, k))
	}
	if st := idxPool.Stats(); st.IndexHits == 0 {
		t.Errorf("reloaded pool never used the index: %+v", st)
	}
}

// TestIndexDensityFallback pins the density guard on a serving-sized
// clause: ~135 entries in ~120 signature classes gain nothing from
// class-at-a-time scoring, so bounded selection takes the linear scan, says
// so in the stats, and selects exactly what the index would have.
func TestIndexDensityFallback(t *testing.T) {
	p := New()
	cols := []string{"title.kind_id", "title.production_year", "title.season_nr", "title.episode_nr"}
	ops := []string{"<", "=", ">"}
	// Mixed-radix enumeration of per-column shapes: each column absent,
	// constrained by one operator class, or by two predicates (both-bounded
	// and conflicting shapes) — every code a distinct pattern. shift moves
	// every constant without changing the pattern.
	shape := func(code, shift int) string {
		var preds []string
		for i, c := 0, code; i < len(cols) && c > 0; i, c = i+1, c/7 {
			switch d := c % 7; {
			case d == 0: // column absent
			case d <= 3:
				preds = append(preds, fmt.Sprintf("%s %s %d", cols[i], ops[d-1], 10+i+shift))
			default:
				preds = append(preds, fmt.Sprintf("%s %s %d", cols[i], ops[(d-4)%3], 5+i+shift),
					fmt.Sprintf("%s %s %d", cols[i], ops[(d-3)%3], 25+i+shift))
			}
		}
		if len(preds) == 0 {
			return ""
		}
		return "SELECT * FROM title WHERE " + strings.Join(preds, " AND ")
	}
	var codes []int
	for code := 1; len(codes) < 120; code++ {
		if q := shape(code, 0); q != "" && p.Add(sqlparse.MustParse(s, q), 10) {
			codes = append(codes, code)
		}
	}
	for _, code := range codes[:15] { // a second member in 15 of the classes
		if !p.Add(sqlparse.MustParse(s, shape(code, 1)), 10) {
			t.Fatalf("shifted shape %d collided with an entry", code)
		}
	}
	idx := p.byFrom[sqlparse.MustParse(s, "SELECT * FROM title").FROMKey()]
	if len(idx.entries) != 135 || idx.indexWorthwhile() {
		t.Fatalf("%d entries in %d classes: want 135 entries past the density guard", len(idx.entries), len(idx.classes))
	}

	probes := []query.Query{
		sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 11"),
		sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 10 AND title.season_nr < 30"),
		sqlparse.MustParse(s, "SELECT * FROM title WHERE title.episode_nr > 6 AND title.episode_nr < 20"),
	}
	ks := []int{1, 4, 16, 60}
	var scanned [][]Entry
	for _, probe := range probes {
		for _, k := range ks {
			scanned = append(scanned, p.TopK(probe, k))
		}
	}
	st := p.Stats()
	if calls := uint64(len(scanned)); st.IndexFallbacks != calls || st.IndexHits != 0 {
		t.Errorf("density guard did not send all %d selections to the scan: %+v", calls, st)
	}
	if st.ScannedFallback == 0 || st.ScannedIndexed != 0 {
		t.Errorf("fallback selection misattributed its scan: %+v", st)
	}
	for i, probe := range probes {
		for j, k := range ks {
			p.mu.RLock()
			var sel selector
			sel.heap.reset(k)
			sig := probe.Signature()
			p.selectIndexedLocked(&sel, idx, &sig)
			refs := sel.heap.sorted()
			indexed := make([]Entry, len(refs))
			for n, r := range refs {
				indexed[n] = idx.entries[r.idx]
			}
			p.mu.RUnlock()
			mustTopKEqual(t, fmt.Sprintf("probe %d k=%d", i, k), scanned[i*len(ks)+j], indexed)
		}
	}
}

// TestConcurrentIndexedTopKEvictionUpdate races indexed selection against
// eviction-heavy writes and cardinality updates on one bounded pool. Run
// with -race (CI does); assertions only check shape invariants, the
// detector checks index maintenance synchronization.
func TestConcurrentIndexedTopKEvictionUpdate(t *testing.T) {
	const capacity = 200
	p := New(WithCap(capacity))
	queries := make([]query.Query, 600)
	r := rand.New(rand.NewSource(3))
	shapes := indexShapes(r)
	for i := range queries {
		queries[i] = sqlparse.MustParse(s, templatedSQL(r, shapes))
	}
	probes := make([]query.Query, 16)
	for i := range probes {
		probes[i] = sqlparse.MustParse(s, randIndexSQL(r))
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := w; i < len(queries); i += 4 {
				p.Add(queries[i], int64(i%37))
			}
		}(w)
	}
	for u := 0; u < 2; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			<-start
			for i := u; i < len(queries); i += 2 {
				p.UpdateCard(queries[i], int64((i+1)%23))
			}
		}(u)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 300; i++ {
				k := 1 + (i+g)%16
				if got := p.TopK(probes[(i+g)%len(probes)], k); len(got) > k {
					t.Errorf("TopK(%d) returned %d entries", k, len(got))
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if p.Len() > capacity {
		t.Errorf("pool size %d exceeds capacity %d", p.Len(), capacity)
	}
	checkRows(t, p)
	// The pool must still be coherent after the storm: selection equals a
	// linear rebuild of the surviving entries.
	lin := New(WithIndexedSelection(false))
	entries := p.Entries()
	// Rebuild in ascending ID order so tie-breaks match.
	for id := int64(0); int(id) < len(queries)+1; id++ {
		for _, e := range entries {
			if e.ID == id {
				lin.Add(e.Q, e.Card)
			}
		}
	}
	for i, probe := range probes {
		got, want := p.TopK(probe, 8), lin.TopK(probe, 8)
		if len(got) != len(want) {
			t.Fatalf("post-storm probe %d: %d entries vs %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j].Card != want[j].Card || got[j].Q.SQL() != want[j].Q.SQL() {
				t.Fatalf("post-storm probe %d entry %d: (%s, %d) vs (%s, %d)",
					i, j, got[j].Q.SQL(), got[j].Card, want[j].Q.SQL(), want[j].Card)
			}
		}
	}
	if st := p.Stats(); st.IndexHits == 0 {
		t.Errorf("storm never used the index: %+v", st)
	}
}

// FuzzSignatureIndex interprets the fuzz input as an operation stream
// driven against an indexed bounded pool and a linear twin: inserts,
// cardinality updates and bounded selections, with a Save/Load round-trip
// at the end. The index must never panic, never select an entry the linear
// scan would not, keep every signature row equal to its entry after every
// operation, and survive persistence. Literals are mostly small, so
// ranges overlap and collide, but byte values from 0xd0 up pick an int64
// edge or ±5e18, whose predicates admit nothing or whose spans overflow
// int64.
func FuzzSignatureIndex(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x17, 0x80, 0x02, 0x99})
	f.Add([]byte("add-update-select"))
	f.Add(bytes.Repeat([]byte{0x07, 0xe1}, 40))
	// season ranges wider than int64 beside narrow ones, then narrow probes.
	f.Add([]byte{0, 10, 216, 0, 10, 96, 0, 10, 36, 0, 10, 72, 0, 22, 9, 0, 10, 228, 2, 10, 96, 2, 10, 36, 2, 22, 213})
	// < MinInt64 and > MaxInt64 (empty), = at both edges, and probes on them.
	f.Add([]byte{0, 0, 0xd2, 0, 9, 0xd7, 0, 6, 0xd2, 0, 6, 0xd7, 0, 0, 0xd7, 0, 9, 0xd2, 2, 0, 5, 2, 6, 0xd2, 2, 9, 0xd7})
	cols := []string{"title.kind_id", "title.production_year", "title.season_nr", "title.episode_nr"}
	ops := []string{"<", "=", ">"}
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -5e18, 5e18, math.MaxInt64 - 1, math.MaxInt64}
	literal := func(b byte) int64 {
		if b >= 0xd0 {
			return edges[int(b)%len(edges)]
		}
		return int64(b) % 32
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		idxPool := New(WithCap(48))
		linPool := New(WithCap(48), WithIndexedSelection(false))
		var added []query.Query
		buildQuery := func(b1, b2 byte) query.Query {
			var preds []string
			for i := 0; i < 1+int(b1%3); i++ {
				sel := int(b1)>>uint(2*i) + int(b2)*i
				preds = append(preds, fmt.Sprintf("%s %s %d",
					cols[sel%len(cols)], ops[(sel/4)%len(ops)], literal(b2+byte(i)*0x35)))
			}
			return sqlparse.MustParse(s, "SELECT * FROM title WHERE "+strings.Join(preds, " AND "))
		}
		for i := 0; i+2 < len(data); i += 3 {
			op, b1, b2 := data[i], data[i+1], data[i+2]
			switch op % 3 {
			case 0:
				q := buildQuery(b1, b2)
				card := int64(b2 % 17)
				if idxPool.Add(q, card) != linPool.Add(q, card) {
					t.Fatalf("add diverged for %s", q.SQL())
				}
				added = append(added, q)
			case 1:
				if len(added) == 0 {
					continue
				}
				q := added[int(b1)%len(added)]
				card := int64(b2 % 11)
				if idxPool.UpdateCard(q, card) != linPool.UpdateCard(q, card) {
					t.Fatalf("update diverged for %s", q.SQL())
				}
			case 2:
				probe := buildQuery(b1, b2)
				k := 1 + int(b1%9)
				got, want := idxPool.TopK(probe, k), linPool.TopK(probe, k)
				if len(got) != len(want) {
					t.Fatalf("TopK(%d) size diverged: %d vs %d (%s)", k, len(got), len(want), probe.SQL())
				}
				for j := range got {
					if got[j].ID != want[j].ID || got[j].Card != want[j].Card {
						t.Fatalf("TopK(%d)[%d] diverged: (ID %d, %d) vs (ID %d, %d) for %s",
							k, j, got[j].ID, got[j].Card, want[j].ID, want[j].Card, probe.SQL())
					}
				}
			}
			checkEvictionHeap(t, idxPool)
			checkEvictionHeap(t, linPool)
			checkRows(t, idxPool)
			checkRows(t, linPool)
		}
		// Persistence round-trip: the rebuilt index must agree with a linear
		// load of the same bytes.
		var buf bytes.Buffer
		if err := idxPool.Save(&buf); err != nil {
			t.Fatalf("save: %v", err)
		}
		reIdx, err := Load(s, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		reLin, err := Load(s, bytes.NewReader(buf.Bytes()), WithIndexedSelection(false))
		if err != nil {
			t.Fatalf("load linear: %v", err)
		}
		if reIdx.Len() != idxPool.Len() {
			t.Fatalf("round-trip lost entries: %d vs %d", reIdx.Len(), idxPool.Len())
		}
		checkRows(t, reIdx)
		for _, q := range added {
			got, want := reIdx.TopK(q, 5), reLin.TopK(q, 5)
			if len(got) != len(want) {
				t.Fatalf("post-load TopK size diverged: %d vs %d", len(got), len(want))
			}
			for j := range got {
				if got[j].ID != want[j].ID {
					t.Fatalf("post-load TopK[%d] diverged: ID %d vs %d", j, got[j].ID, want[j].ID)
				}
			}
		}
	})
}
