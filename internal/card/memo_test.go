package card

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"crn/internal/pool"
	"crn/internal/query"
	"crn/internal/sqlparse"
)

// keyedRates is a rate model of generation gen whose rate for a pair is a
// hash of the pair's two canonical keys and gen, in [0.05, 1): every pair,
// and every generation, has its own rate, so a rate reused for the wrong
// candidate or across generations changes an answer's bits. It records each
// pair it was asked for as "Q1 ⊂% Q2".
type keyedRates struct {
	gen   uint64
	pairs []string
}

func (r *keyedRates) EstimateRatesIndexed(_ context.Context, qs []query.Query, idx [][2]int) ([]float64, error) {
	out := make([]float64, len(idx))
	for i, p := range idx {
		pair := qs[p[0]].Key() + " ⊂% " + qs[p[1]].Key()
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s", r.gen, pair)
		out[i] = 0.05 + 0.95*float64(h.Sum64()>>11)/(1<<53)
		r.pairs = append(r.pairs, pair)
	}
	return out, nil
}

func (r *keyedRates) Generation() uint64 { return r.gen }

// reuseEnv is one pool read by two estimators over the same rate function:
// est with a memo, ref without one. Both take the mean of the votes, so
// every vote reaches the answer's bits.
type reuseEnv struct {
	t          *testing.T
	qp         *pool.Pool
	est, ref   *Estimator
	memoRates  *keyedRates
	plainRates *keyedRates
}

func newReuseEnv(t *testing.T, poolCap, memoCap int) *reuseEnv {
	env := &reuseEnv{t: t, qp: pool.New(pool.WithCap(poolCap)), memoRates: &keyedRates{gen: 1}, plainRates: &keyedRates{gen: 1}}
	env.est, env.ref = New(env.memoRates, env.qp), New(env.plainRates, env.qp)
	env.est.Final, env.ref.Final = pool.Mean, pool.Mean
	env.est.Memo = NewMemo(memoCap)
	return env
}

// swap moves both rate models to their next generation.
func (env *reuseEnv) swap() { env.memoRates.gen++; env.plainRates.gen++ }

// estimate answers qs with the memo and without it, fails unless the answers
// carry the same bits, and returns the pairs each rate model was sent.
func (env *reuseEnv) estimate(qs ...query.Query) (sent, all []string) {
	env.t.Helper()
	env.memoRates.pairs, env.plainRates.pairs = nil, nil
	want, err := env.ref.EstimateCards(context.Background(), qs)
	if err != nil {
		env.t.Fatal(err)
	}
	got, err := env.est.EstimateCards(context.Background(), qs)
	if err != nil {
		env.t.Fatal(err)
	}
	for i := range qs {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			env.t.Fatalf("%s: memo %v, reference %v", qs[i].Key(), got[i], want[i])
		}
	}
	return env.memoRates.pairs, env.plainRates.pairs
}

// add pools sql with card, failing unless it was inserted.
func (env *reuseEnv) add(sql string, card int64) query.Query {
	env.t.Helper()
	q := sqlparse.MustParse(s, sql)
	if !env.qp.Add(q, card) {
		env.t.Fatalf("Add(%s) inserted nothing", sql)
	}
	return q
}

// keptRates returns the memo's count of kept rates and the sum of its
// entries' kept rates, read under the lock.
func keptRates(m *Memo) (counted, held int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, e := range m.entries {
		held += len(e.rates)
	}
	return m.rates, held
}

// TestMemoReusesRatesByID pins what a probe's kept rates save, pair for
// pair: its first two passes compute every open pair (the second keeps
// them), and after that, on a stamp miss, a cardinality update costs no
// pair, an eviction none, an insert exactly the new candidate's open pairs,
// and a generation swap every pair again — while every answer carries the
// bits of an estimator without the memo.
func TestMemoReusesRatesByID(t *testing.T) {
	env := newReuseEnv(t, 10, 64)
	// Relative to the probe: title contains it (y_rate = 1), as does the
	// year > 1940 AND kind < 5 entry; year > 1970 AND kind < 2 is contained
	// in it (x_rate = 1); year < 1900 is disjoint (no pair); the rest
	// overlap it (both rates open). The cardinalities keep every answer
	// inside the bounds the relations prove.
	env.add("SELECT * FROM title", 1_000_000)
	env.add("SELECT * FROM title WHERE title.production_year > 1960", 300)
	env.add("SELECT * FROM title WHERE title.kind_id < 3", 400)
	env.add("SELECT * FROM title WHERE title.production_year < 1900", 200)
	env.add("SELECT * FROM title WHERE title.production_year > 1940 AND title.kind_id < 5", 900_000)
	env.add("SELECT * FROM title WHERE title.production_year > 1970 AND title.kind_id < 2", 1)
	updated := env.add("SELECT * FROM title WHERE title.kind_id > 1", 500)
	env.add("SELECT * FROM title WHERE title.production_year < 2000", 600)
	env.add("SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id", 5000)
	env.add("SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND cast_info.role_id < 6", 4000)
	probe := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1950 AND title.kind_id < 4")
	other := sqlparse.MustParse(s, "SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND cast_info.role_id < 3")
	card := int64(500)
	update := func() {
		t.Helper()
		card++
		if !env.qp.UpdateCard(updated, card) {
			t.Fatal("UpdateCard changed nothing")
		}
	}
	expect := func(label string, sent []string, want []string) {
		t.Helper()
		if !reflect.DeepEqual(sent, want) {
			t.Fatalf("%s: sent pairs\n%q\nwant\n%q", label, sent, want)
		}
	}

	sent, all := env.estimate(probe)
	if len(all) != 4*2+2+1 {
		t.Fatalf("fixture: the probe has %d open pairs, want 11: %q", len(all), all)
	}
	expect("first pass", sent, all)
	update()
	sent, all = env.estimate(probe)
	expect("second pass, rates kept", sent, all)

	update()
	sent, _ = env.estimate(probe)
	expect("after UpdateCard", sent, nil)

	// Touch the cast_info clause, so the next eviction takes a title entry:
	// the swap-removal moves the clause's last entry into its place.
	env.estimate(other)
	titles := func() int { // Matching would stamp recency: count by hand
		n := 0
		for _, e := range env.qp.Entries() {
			if e.Q.FROMKey() == probe.FROMKey() {
				n++
			}
		}
		return n
	}
	n := titles()
	env.add("SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND cast_info.role_id > 2", 3000)
	if titles() != n-1 {
		t.Fatal("fixture: the insert on cast_info evicted no title entry")
	}
	sent, _ = env.estimate(probe)
	expect("after an eviction", sent, nil)

	// An insert on the probe's clause at the cap, which evicts another
	// title entry: only the new candidate's pairs are open.
	env.estimate(other)
	fresh := env.add("SELECT * FROM title WHERE title.production_year > 1955", 700)
	sent, all = env.estimate(probe)
	var want []string
	for _, p := range all {
		if strings.HasPrefix(p, fresh.Key()+" ⊂% ") || strings.HasSuffix(p, " ⊂% "+fresh.Key()) {
			want = append(want, p)
		}
	}
	if len(want) != 2 {
		t.Fatalf("fixture: the new candidate has %d open pairs, want 2: %q", len(want), all)
	}
	expect("after an Add", sent, want)

	env.swap()
	sent, all = env.estimate(probe)
	expect("after a generation swap", sent, all)
	update()
	sent, _ = env.estimate(probe)
	expect("after UpdateCard in the new generation", sent, nil)
}

// memoHolds reports how many probes the memo holds and whether q is one.
func memoHolds(m *Memo, q query.Query) (entries int, held bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, held = m.entries[q.Key()]
	return len(m.entries), held
}

// TestMemoKeptRatesProperties drives a small memo through random churn —
// recurring probes, a never-repeating probe stream, cardinality updates,
// inserts at the pool's cap (every one evicts), generation swaps and
// flushes — and holds after every step: each answer carries the bits of an
// estimator without the memo; a never-repeating probe keeps no rates; the
// kept rates never exceed ratesPerProbe per unit of capacity, and the count
// the bound is checked against is the sum over the entries. The pool is
// large enough that two recurring probes' rates overflow the bound.
func TestMemoKeptRatesProperties(t *testing.T) {
	const poolCap, memoCap = 60, 2
	env := newReuseEnv(t, poolCap, memoCap)
	rng := rand.New(rand.NewSource(7))
	entry := func(i int) string {
		return fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d AND title.kind_id < %d", 1880+2*(i%60), 2+i%7)
	}
	var pooled []query.Query
	next := 0
	for ; next < poolCap; next++ {
		pooled = append(pooled, env.add(entry(next), int64(100+37*next)))
	}
	recurring := []query.Query{
		sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1951 AND title.kind_id < 4"),
		sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year < 1990 AND title.kind_id > 1"),
		sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1931"),
	}
	fresh, reused, overflowed := 0, 0, 0
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(16); {
		case op < 8:
			q := recurring[rng.Intn(len(recurring))]
			n, held := memoHolds(env.est.Memo, q)
			if sent, all := env.estimate(q); len(sent) < len(all) {
				reused++
			}
			if m, _ := memoHolds(env.est.Memo, q); held && n > 1 && m == 1 {
				overflowed++ // a store of a held key cleared the memo: the rate bound
			}
		case op < 10:
			// A never-repeating probe, on the recurring probes' clause.
			q := sqlparse.MustParse(s, fmt.Sprintf("SELECT * FROM title WHERE title.production_year < %d AND title.kind_id > %d", 2100+fresh, fresh%4))
			fresh++
			env.estimate(q)
			env.est.Memo.mu.RLock()
			e, ok := env.est.Memo.entries[q.Key()]
			env.est.Memo.mu.RUnlock()
			if !ok || len(e.rates) > 0 {
				t.Fatalf("step %d: a probe seen once is held %v with kept rates", step, ok)
			}
		case op < 12:
			env.qp.UpdateCard(pooled[rng.Intn(len(pooled))], int64(1+rng.Intn(5000)))
		case op < 14:
			// The texts cycle, so an insert may bring back a query an
			// earlier insert evicted; one still pooled is refused.
			if q := sqlparse.MustParse(s, entry(next)); env.qp.Add(q, int64(100+37*next)) {
				pooled = append(pooled, q)
			}
			next++
		case op < 15:
			env.swap()
		default:
			env.est.Memo.Flush()
		}
		if counted, held := keptRates(env.est.Memo); counted != held || counted > ratesPerProbe*memoCap {
			t.Fatalf("step %d: %d rates counted, %d held, bound %d", step, counted, held, ratesPerProbe*memoCap)
		}
	}
	t.Logf("%d reusing passes, %d overflows of the rate bound, %d never-repeating probes", reused, overflowed, fresh)
	if reused == 0 || overflowed == 0 || fresh == 0 {
		t.Fatal("the churn never reached a path under test")
	}
}

// TestMemoSweepKeepsAnsweredProbes streams never-repeating probes through a
// small memo, many times its capacity, between rounds of recurring probes:
// once warm, every recurring probe stays a hit, because a full memo drops
// only the probes no recall found since its previous sweep. The memo never
// holds more than its capacity, and the rate bound keeps its accounting.
func TestMemoSweepKeepsAnsweredProbes(t *testing.T) {
	const memoCap = 16
	env := newReuseEnv(t, 40, memoCap)
	for i := 0; i < 40; i++ {
		env.add(fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d AND title.kind_id < %d", 1900+3*i, 2+i%5), int64(50+11*i))
	}
	hot := make([]query.Query, 4)
	for i := range hot {
		hot[i] = sqlparse.MustParse(s, fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d AND title.kind_id > %d", 1950+7*i, i))
	}
	cold := 0
	for round := 0; round < 40; round++ {
		hits, _, _ := env.est.Memo.Stats()
		for _, q := range hot {
			env.estimate(q)
		}
		if after, _, _ := env.est.Memo.Stats(); round > 0 && after-hits != uint64(len(hot)) {
			t.Fatalf("round %d: %d of %d recurring probes hit after %d never-repeating ones", round, after-hits, len(hot), cold)
		}
		for i := 0; i < 5; i++ {
			env.estimate(sqlparse.MustParse(s, fmt.Sprintf("SELECT * FROM title WHERE title.production_year < %d", 2100+cold)))
			cold++
		}
		if n, _ := memoHolds(env.est.Memo, hot[0]); n > memoCap {
			t.Fatalf("round %d: the memo holds %d probes, capacity %d", round, n, memoCap)
		}
		if counted, held := keptRates(env.est.Memo); counted != held {
			t.Fatalf("round %d: %d rates counted, %d held", round, counted, held)
		}
	}
	if cold < 10*memoCap {
		t.Fatalf("only %d never-repeating probes", cold)
	}
}
