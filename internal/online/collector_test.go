package online

import (
	"reflect"
	"testing"
	"time"

	"crn/internal/pool"
	"crn/internal/query"
)

// TestCollectorOfferAndRestageAgree drives the same feedback sequences
// through Offer (journaled) and Restage (recovery replay) and asserts one
// staging body behind both: identical results, counters and staged records.
// Only the journal differs: Offer appends before it stages and stamps the
// journal's LSN, Restage never calls the journal and keeps the LSN it was
// given.
func TestCollectorOfferAndRestageAgree(t *testing.T) {
	ex, _, _, base := fixture(t)
	all := mustParse(t, "SELECT * FROM title")
	truth, err := ex.Cardinality(all)
	if err != nil {
		t.Fatal(err)
	}
	k1 := mustParse(t, "SELECT * FROM title WHERE title.kind_id = 1")
	k2 := mustParse(t, "SELECT * FROM title WHERE title.kind_id = 2")

	type offer struct {
		q    query.Query
		card int64
	}
	cases := []struct {
		name  string
		cap   int
		steps []offer
		want  []bool // accepted, per step
	}{
		{"fresh record", 8, []offer{{k1, 10}}, []bool{true}},
		{"pooled unchanged truth", 8, []offer{{all, truth}}, []bool{false}},
		{"pooled moved truth", 8, []offer{{all, truth + 50}}, []bool{true}},
		{"staged duplicate", 8, []offer{{k1, 10}, {k1, 10}}, []bool{true, false}},
		{"overflow", 1, []offer{{k1, 10}, {k2, 20}}, []bool{true, false}},
		{"negative cardinality", 8, []offer{{k1, -1}}, []bool{false}},
	}

	type outcome struct {
		ok     bool
		errMsg string
	}
	type run struct {
		outcomes []outcome
		stats    CollectorStats
		recs     []Record
		poolCard int64
	}
	freshPool := func() *pool.Pool {
		p := pool.New()
		for _, e := range base.Entries() {
			p.Add(e.Q, e.Card)
		}
		return p
	}
	observedAt := time.Unix(1_700_000_000, 0)
	const restageLSN = 100

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			drive := func(restage bool) (run, []uint64) {
				p := freshPool()
				c := NewCollector(p, tc.cap)
				var journaled []uint64
				c.SetJournal(func(sql string, card int64, _ time.Time) (uint64, error) {
					// Write-ahead: the record is not staged yet.
					if c.keys[mustParse(t, sql).Key()] {
						t.Errorf("journal called for an already staged record: %s", sql)
					}
					lsn := uint64(len(journaled) + 1)
					journaled = append(journaled, lsn)
					return lsn, nil
				})
				var r run
				for i, st := range tc.steps {
					var ok bool
					var err error
					if restage {
						ok, err = c.Restage(st.q, st.card, observedAt, restageLSN+uint64(i))
					} else {
						ok, err = c.Offer(st.q, st.card, observedAt)
					}
					o := outcome{ok: ok}
					if err != nil {
						o.errMsg = err.Error()
					}
					r.outcomes = append(r.outcomes, o)
				}
				r.stats = c.Stats()
				r.recs = c.Drain()
				if m := p.Matching(all); len(m) > 0 {
					r.poolCard = m[0].Card
				}
				return r, journaled
			}

			offered, journaled := drive(false)
			restaged, restageJournaled := drive(true)
			if len(restageJournaled) != 0 {
				t.Errorf("Restage called the journal %d times", len(restageJournaled))
			}
			if len(journaled) != len(offered.recs) {
				t.Errorf("Offer journaled %d records, staged %d", len(journaled), len(offered.recs))
			}
			for i, rec := range offered.recs {
				if rec.LSN != journaled[i] {
					t.Errorf("offered record %d carries LSN %d, journal assigned %d", i, rec.LSN, journaled[i])
				}
			}
			// Restage keeps the LSN of the step that staged the record.
			wantLSN := map[string]uint64{}
			for i, st := range tc.steps {
				if restaged.outcomes[i].ok {
					wantLSN[st.q.Key()] = restageLSN + uint64(i)
				}
			}
			for _, rec := range restaged.recs {
				if rec.LSN != wantLSN[rec.Q.Key()] {
					t.Errorf("restaged record %s: LSN %d, want %d", rec.Q.SQL(), rec.LSN, wantLSN[rec.Q.Key()])
				}
			}
			for i, o := range offered.outcomes {
				if o.ok != tc.want[i] || (o.errMsg != "") != (tc.steps[i].card < 0) {
					t.Errorf("step %d: accepted=%v err=%q, want accepted=%v", i, o.ok, o.errMsg, tc.want[i])
				}
			}
			if !reflect.DeepEqual(offered.outcomes, restaged.outcomes) {
				t.Errorf("results differ: Offer %+v, Restage %+v", offered.outcomes, restaged.outcomes)
			}
			if offered.stats != restaged.stats {
				t.Errorf("stats differ:\n Offer   %+v\n Restage %+v", offered.stats, restaged.stats)
			}
			if len(offered.recs) != len(restaged.recs) {
				t.Fatalf("staged %d vs %d records", len(offered.recs), len(restaged.recs))
			}
			// Apart from the LSN, both entry points stage the same thing.
			for i := range offered.recs {
				a, b := offered.recs[i], restaged.recs[i]
				if a.Q.Key() != b.Q.Key() || a.Card != b.Card || !a.ObservedAt.Equal(b.ObservedAt) {
					t.Errorf("staged record %d differs: %+v vs %+v", i, a, b)
				}
			}
			if offered.poolCard != restaged.poolCard {
				t.Errorf("pool correction differs: %d vs %d", offered.poolCard, restaged.poolCard)
			}
		})
	}
}
