package online

import (
	"context"
	"fmt"
	"testing"
	"time"

	"crn/internal/contain"
	icrn "crn/internal/crn"
	"crn/internal/datagen"
	"crn/internal/exec"
	"crn/internal/feature"
	"crn/internal/pool"
	"crn/internal/query"
	"crn/internal/schema"
	"crn/internal/sqlparse"
)

var s = schema.IMDB()

// fixture builds a small database with its executor, encoder, a tiny
// (untrained) model and a pool seeded with a few executed queries.
func fixture(t *testing.T) (*exec.Executor, *feature.Encoder, *icrn.Model, *pool.Pool) {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.Titles = 300
	d, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exec.New(d)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := feature.NewEncoder(d.Schema, d)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := icrn.DefaultConfig()
	mcfg.Hidden = 8
	mcfg.Epochs = 2
	mcfg.BatchSize = 16
	m := icrn.NewModel(mcfg, enc.Dim())
	qp := pool.New()
	for _, sql := range []string{
		"SELECT * FROM title",
		"SELECT * FROM title WHERE title.production_year > 1950",
		"SELECT * FROM title WHERE title.kind_id < 5",
		"SELECT * FROM title WHERE title.production_year < 1995",
	} {
		q := sqlparse.MustParse(s, sql)
		c, err := ex.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		qp.Add(q, c)
	}
	return ex, enc, m, qp
}

func mustParse(t *testing.T, sql string) query.Query {
	t.Helper()
	return sqlparse.MustParse(s, sql)
}

func TestCollectorValidateDedupBound(t *testing.T) {
	_, _, _, qp := fixture(t)
	c := NewCollector(qp, 2)
	now := time.Now()

	// Negative cardinality is invalid.
	if ok, err := c.Offer(mustParse(t, "SELECT * FROM title WHERE title.kind_id = 1"), -1, now); ok || err == nil {
		t.Fatal("negative cardinality must be rejected with an error")
	}
	// A query already pooled is a duplicate.
	if ok, err := c.Offer(mustParse(t, "SELECT * FROM title"), 300, now); ok || err != nil {
		t.Fatalf("pooled query must dedup: ok=%v err=%v", ok, err)
	}
	qa := mustParse(t, "SELECT * FROM title WHERE title.kind_id = 1")
	if ok, _ := c.Offer(qa, 10, now); !ok {
		t.Fatal("fresh record must be accepted")
	}
	// Same query staged twice counts once.
	if ok, _ := c.Offer(qa, 10, now); ok {
		t.Fatal("staged duplicate must be rejected")
	}
	if ok, _ := c.Offer(mustParse(t, "SELECT * FROM title WHERE title.kind_id = 2"), 20, now); !ok {
		t.Fatal("second fresh record must be accepted")
	}
	// Buffer full: newcomer rejected, staged records kept.
	if ok, _ := c.Offer(mustParse(t, "SELECT * FROM title WHERE title.kind_id = 3"), 30, now); ok {
		t.Fatal("overflow must reject the newcomer")
	}
	st := c.Stats()
	if st.Staged != 2 || st.Accepted != 2 || st.Duplicates != 2 || st.Invalid != 1 || st.Overflow != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Drain oldest-first; keys free up for re-offering.
	recs := c.Drain()
	if len(recs) != 2 || recs[0].Card != 10 || recs[1].Card != 20 {
		t.Fatalf("drain = %+v", recs)
	}
	if c.Staged() != 0 {
		t.Fatalf("staged after drain = %d", c.Staged())
	}
	if ok, _ := c.Offer(qa, 11, now); !ok {
		t.Fatal("drained key must be offerable again")
	}
	if got := c.Stats().Drained; got != 2 {
		t.Fatalf("drained = %d", got)
	}
	if recs := c.Drain(); len(recs) != 1 {
		t.Fatalf("drain = %d records", len(recs))
	}
}

func TestModelBoxPromoteGenerations(t *testing.T) {
	_, enc, m, qp := fixture(t)
	box := NewModelBox(m, enc, 64, qp, 1)
	defer box.Close()
	if box.Generation() != 1 {
		t.Fatalf("initial generation = %d", box.Generation())
	}
	g1 := box.Current()
	if g1.Model != m || g1.Rates.Cache == nil {
		t.Fatal("generation 1 must carry the model and a cache")
	}

	// Delegated estimation works and stays in [0,1].
	q1 := mustParse(t, "SELECT * FROM title WHERE title.kind_id = 1")
	q2 := mustParse(t, "SELECT * FROM title WHERE title.kind_id < 5")
	rate, err := contain.Rate(context.Background(), box, q1, q2)
	if err != nil || rate < 0 || rate > 1 {
		t.Fatalf("rate = %v err = %v", rate, err)
	}

	clone, err := cloneModel(m)
	if err != nil {
		t.Fatal(err)
	}
	g2 := box.Publish(box.Prepare(clone))
	if g2.Gen != 2 || box.Generation() != 2 || box.Current().Model != clone {
		t.Fatalf("promotion did not publish generation 2: %+v", g2)
	}
	if g2.Rates.Cache == g1.Rates.Cache {
		t.Fatal("each generation must own its cache")
	}
	// The clone serves identically (same weights): delegation reads gen 2.
	rate2, err := contain.Rate(context.Background(), box, q1, q2)
	if err != nil || rate2 != rate {
		t.Fatalf("cloned generation must serve identically: %v vs %v (err %v)", rate2, rate, err)
	}
}

func TestDriftMonitorTripsAndResets(t *testing.T) {
	d := NewDriftMonitor(10, 16, 4)
	// Accurate estimates: no trip.
	for i := 0; i < 8; i++ {
		if d.Observe(100, 100) {
			t.Fatal("accurate estimates must not trip")
		}
	}
	// Badly wrong estimates shift the windowed median past the threshold.
	tripped := false
	for i := 0; i < 16; i++ {
		tripped = d.Observe(1, 1000) || tripped
	}
	if !tripped || !d.Drifted() {
		t.Fatal("drifted workload must trip")
	}
	st := d.Stats()
	if st.Trips != 1 || st.QError.Count == 0 || st.QError.P50 <= 10 {
		t.Fatalf("drift stats = %+v", st)
	}
	d.Reset()
	if d.Drifted() || d.Stats().QError.Count != 0 {
		t.Fatal("reset must clear the window and the drifted state")
	}
	// Observe-only monitor (threshold 0) never trips.
	o := NewDriftMonitor(0, 8, 1)
	for i := 0; i < 8; i++ {
		if o.Observe(1, 1e6) {
			t.Fatal("observe-only monitor must not trip")
		}
	}
	if o.Stats().QError.Count != 8 {
		t.Fatal("observe-only monitor must still record")
	}
}

func TestRetrainNowPromotesThroughGate(t *testing.T) {
	ex, enc, m, qp := fixture(t)
	box := NewModelBox(m, enc, 64, qp, 1)
	defer box.Close()
	col := NewCollector(qp, 64)
	cfg := Config{Epochs: 2, Tolerance: 10, PairsPerRecord: 4, Interval: -1}
	tr := NewTrainer(cfg, box, col, qp, ex, nil)
	defer tr.Stop()

	ctx := context.Background()
	// Nothing staged: no-op.
	if promoted, err := tr.RetrainNow(ctx); promoted || err != nil {
		t.Fatalf("empty cycle: promoted=%v err=%v", promoted, err)
	}
	if tr.Stats().Retrains != 0 {
		t.Fatal("empty cycle must not count as a retrain")
	}

	poolBefore := qp.Len()
	for i := 0; i < 6; i++ {
		q := mustParse(t, fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1951+5*i))
		card, err := ex.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := col.Offer(q, card, time.Now()); !ok || err != nil {
			t.Fatalf("offer %d: ok=%v err=%v", i, ok, err)
		}
	}
	promoted, err := tr.RetrainNow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !promoted {
		t.Fatalf("generous tolerance should promote: stats=%+v", tr.Stats())
	}
	if qp.Len() != poolBefore+6 {
		t.Errorf("pool should grow by the feedback records: %d -> %d", poolBefore, qp.Len())
	}
	if col.Staged() != 0 {
		t.Error("retrain must drain the collector")
	}
	if box.Generation() != 2 {
		t.Errorf("generation = %d, want 2", box.Generation())
	}
	st := tr.Stats()
	if st.Retrains != 1 || st.Promotions != 1 || st.Rejections != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ValSamples == 0 || st.LastLiveQError == 0 || st.LastCandidateQError == 0 {
		t.Fatalf("gate measurements missing: %+v", st)
	}
}

// TestRetrainNowKeepsConfiguredLR pins the fine-tuning rate: every cycle
// scales the live model's configured rate once, so across promotions the
// served model — and the blob a checkpoint would write — keeps the rate it
// was configured with instead of compounding the scale per generation.
func TestRetrainNowKeepsConfiguredLR(t *testing.T) {
	ex, enc, m, qp := fixture(t)
	want := m.Config().LR
	box := NewModelBox(m, enc, 64, qp, 1)
	defer box.Close()
	col := NewCollector(qp, 64)
	cfg := Config{Epochs: 1, Tolerance: 10, PairsPerRecord: 4, Interval: -1}
	tr := NewTrainer(cfg, box, col, qp, ex, nil)
	defer tr.Stop()
	var saved []float64
	tr.SetOnPromote(func(g *Generation) {
		blob, err := g.Model.Save()
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := icrn.Load(blob)
		if err != nil {
			t.Fatal(err)
		}
		saved = append(saved, loaded.Config().LR)
	})

	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < 4; i++ {
			q := mustParse(t, fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1900+20*cycle+3*i))
			card, err := ex.Cardinality(q)
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := col.Offer(q, card, time.Now()); !ok || err != nil {
				t.Fatalf("cycle %d offer %d: ok=%v err=%v", cycle, i, ok, err)
			}
		}
		if promoted, err := tr.RetrainNow(context.Background()); !promoted || err != nil {
			t.Fatalf("cycle %d: promoted=%v err=%v stats=%+v", cycle, promoted, err, tr.Stats())
		}
		if got := box.Current().Model.Config().LR; got != want {
			t.Fatalf("after promotion %d the live model's LR = %v, want %v", cycle+1, got, want)
		}
	}
	if len(saved) != 3 {
		t.Fatalf("%d promotions saved, want 3", len(saved))
	}
	for i, lr := range saved {
		if lr != want {
			t.Errorf("promotion %d saved LR %v, want %v", i+1, lr, want)
		}
	}
}

func TestRetrainNowRejectsOnStrictGate(t *testing.T) {
	ex, enc, m, qp := fixture(t)
	box := NewModelBox(m, enc, 64, qp, 1)
	defer box.Close()
	col := NewCollector(qp, 64)
	// Tolerance -0.999: the candidate must be ~1000x better than live —
	// unattainable, so the gate rejects and generation 1 keeps serving.
	cfg := Config{Epochs: 1, Tolerance: -0.999, PairsPerRecord: 4, Interval: -1}
	tr := NewTrainer(cfg, box, col, qp, ex, nil)
	defer tr.Stop()

	q := mustParse(t, "SELECT * FROM title WHERE title.production_year > 1970")
	card, err := ex.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := col.Offer(q, card, time.Now()); !ok {
		t.Fatal("offer failed")
	}
	promoted, err := tr.RetrainNow(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if promoted || box.Generation() != 1 {
		t.Fatalf("impossible gate must reject: promoted=%v gen=%d", promoted, box.Generation())
	}
	st := tr.Stats()
	if st.Rejections != 1 || st.Promotions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTrainerKickDrivesBackgroundRetrain(t *testing.T) {
	ex, enc, m, qp := fixture(t)
	box := NewModelBox(m, enc, 64, qp, 1)
	defer box.Close()
	col := NewCollector(qp, 64)
	cfg := Config{Epochs: 1, Tolerance: 10, PairsPerRecord: 2, Interval: -1} // no scheduled retrains
	tr := NewTrainer(cfg, box, col, qp, ex, nil)
	tr.Start()
	tr.Start() // idempotent

	q := mustParse(t, "SELECT * FROM title WHERE title.kind_id > 2")
	card, err := ex.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := col.Offer(q, card, time.Now()); !ok {
		t.Fatal("offer failed")
	}
	tr.Kick()
	deadline := time.After(30 * time.Second)
	for tr.Stats().Retrains == 0 {
		select {
		case <-deadline:
			t.Fatal("kicked retrain never ran")
		case <-time.After(10 * time.Millisecond):
		}
	}
	tr.Stop()
	tr.Stop() // idempotent
	if got := tr.Stats().DriftRetrains; got != 1 {
		t.Errorf("drift retrains = %d, want 1", got)
	}
}

// TestOfferCorrectsStalePooledCardinality pins the §9 database-updates
// path: feedback for an already pooled query with an unchanged truth is a
// duplicate, but a moved truth corrects the pool entry in place (so
// Cnt2Crd stops anchoring to a stale cardinality) AND stages the record —
// a moved truth is fresh training signal, and without staging it a
// corrections-dominated drift could never feed the retrainer.
func TestOfferCorrectsStalePooledCardinality(t *testing.T) {
	ex, _, _, qp := fixture(t)
	c := NewCollector(qp, 8)
	q := mustParse(t, "SELECT * FROM title")
	truth, err := ex.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	// Same truth: plain duplicate, nothing moves.
	if ok, _ := c.Offer(q, truth, time.Now()); ok {
		t.Fatal("unchanged pooled truth must not be staged")
	}
	if st := c.Stats(); st.Duplicates != 1 || st.Corrected != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Moved truth: corrected in place, version bumped, staged for training.
	v := qp.Version()
	if ok, _ := c.Offer(q, truth+50, time.Now()); !ok {
		t.Fatal("corrected record must be staged as fresh training signal")
	}
	if st := c.Stats(); st.Corrected != 1 || st.Staged != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if qp.Version() <= v {
		t.Fatal("correction must bump the pool version")
	}
	if m := qp.Matching(q); len(m) == 0 || m[0].Card != truth+50 {
		t.Fatalf("pool entry not corrected: %+v", m)
	}
	recs := c.Drain()
	if len(recs) != 1 || recs[0].Card != truth+50 {
		t.Fatalf("drained corrected record = %+v", recs)
	}
}

// TestSplitSamplesKeepsMirrorsTogether pins the promotion-gate leak fix:
// labelRecords emits adjacent mirror pairs, and the train/val split must
// never send one direction to train and the other to validation.
func TestSplitSamplesKeepsMirrorsTogether(t *testing.T) {
	// Tag each mirror-couple by a shared rate value.
	var all []icrn.Sample
	for i := 0; i < 16; i++ {
		all = append(all,
			icrn.Sample{Rate: float64(i)},
			icrn.Sample{Rate: float64(i)})
	}
	train, val := splitSamples(all)
	if len(val) == 0 || len(train) == 0 {
		t.Fatalf("split degenerate: train=%d val=%d", len(train), len(val))
	}
	inTrain := make(map[float64]bool)
	for _, s := range train {
		inTrain[s.Rate] = true
	}
	for _, s := range val {
		if inTrain[s.Rate] {
			t.Fatalf("couple %v split across train and val", s.Rate)
		}
	}
	// Two-sample fallback keeps the last couple whole too.
	train, val = splitSamples(all[:4])
	if len(val) != 2 || val[0].Rate != val[1].Rate {
		t.Fatalf("fallback split broke a couple: val=%+v", val)
	}
	_ = train
}
