package crn

import (
	"context"
	"fmt"
	"testing"
	"time"

	"crn/internal/contain"
	"crn/internal/metrics"
	"crn/internal/workload"
)

// adaptFixture builds a system with a deliberately under-trained seed
// model — the "drifted away" starting point: the model was fit on a stale
// sliver of an old workload and serves a workload it has never seen.
func adaptFixture(t *testing.T) (*System, *ContainmentModel, *QueriesPool) {
	t.Helper()
	ctx := context.Background()
	sys := testSystem(t)
	mcfg := DefaultModelConfig()
	mcfg.Hidden = 16
	mcfg.Epochs = 2
	// Patience stays positive so incremental retraining (which inherits the
	// model config) restores its best-validation weights per cycle.
	mcfg.Patience = 5
	model, err := sys.TrainContainmentModel(ctx,
		WithPairs(80), WithSeed(5), WithModelConfig(mcfg))
	if err != nil {
		t.Fatal(err)
	}
	p := sys.NewQueriesPool()
	if err := sys.SeedPool(ctx, p, 30, 11); err != nil {
		t.Fatal(err)
	}
	return sys, model, p
}

// openAdaptive is OpenAdaptiveEstimator for tests that expect construction
// to succeed.
func openAdaptive(tb testing.TB, sys *System, m *ContainmentModel, p *QueriesPool, opts ...EstimatorOption) *AdaptiveEstimator {
	tb.Helper()
	ae, err := sys.OpenAdaptiveEstimator(m, p, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return ae
}

// labeledWorkload generates n mixed 0-2-join queries with their true
// cardinalities.
func labeledWorkload(t *testing.T, sys *System, seed int64, n int) []workload.LabeledQuery {
	t.Helper()
	gen := workload.NewGenerator(sys.Schema(), sys.DB(), seed)
	per := n / 3
	qs, err := gen.Queries(map[int]int{0: n - 2*per, 1: per, 2: per})
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := workload.LabelQueries(sys.exec, qs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return labeled
}

// driftedWorkload is the query family the workload drifted TO: conjunctive
// production-year/kind ranges over title — a "new application feature" the
// seed model's sparse training barely covered. which varies the family's
// parameters so feedback and probe sets are built from disjoint queries;
// only non-empty queries are kept (an empty result carries no containment
// signal, and the paper's workloads are rejection-sampled the same way).
func driftedWorkload(t *testing.T, sys *System, which, n int) []workload.LabeledQuery {
	t.Helper()
	var qs []Query
	for i := 0; len(qs) < n && i < 400; i++ {
		year := 1905 + (i*7)%90
		kind := 1 + (i+which)%6
		var sql string
		switch {
		case i%3 == which%3:
			sql = fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d AND title.kind_id = %d", year, kind)
		case i%3 == (which+1)%3:
			sql = fmt.Sprintf("SELECT * FROM title WHERE title.production_year < %d", year+which)
		default:
			sql = fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d AND title.kind_id < %d", year, 2+kind)
		}
		q, err := sys.ParseQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	labeled, err := workload.LabelQueries(sys.exec, qs, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := labeled[:0]
	for _, lq := range labeled {
		if lq.Card > 0 {
			out = append(out, lq)
		}
	}
	return out
}

// medianQError evaluates an estimator over a labeled workload.
func medianQError(t *testing.T, est *CardinalityEstimator, probes []workload.LabeledQuery) float64 {
	t.Helper()
	ctx := context.Background()
	errs := make([]float64, 0, len(probes))
	for _, lq := range probes {
		got, err := est.EstimateCardinality(ctx, lq.Q)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, metrics.CardQError(float64(lq.Card), got))
	}
	return metrics.Median(errs)
}

// TestAdaptationImprovesDriftedModel is the end-to-end acceptance test of
// the online-adaptation subsystem: a model seeded on a sparse, stale
// workload serves a drifted-to query family badly; streaming that family's
// execution feedback through the adaptation loop grows the pool, retrains
// and promotes new model generations, and afterwards
//
//  1. the adaptive deployment's median q-error on unseen probes of the new
//     workload beats the frozen deployment (same seed model, same seed
//     pool, no feedback) — the end-to-end win of closing the loop, and
//  2. the promoted model itself beats the frozen model on the §3.3
//     validation metric (mean containment-rate q-error) over held-out
//     probe/pool pairs — the model improvement isolated from pool growth.
func TestAdaptationImprovesDriftedModel(t *testing.T) {
	ctx := context.Background()
	sys, model, p := adaptFixture(t)
	ae := openAdaptive(t, sys, model, p,
		WithRetrainInterval(-1), // the test drives retraining explicitly
		WithRetrainEpochs(16),
		WithFeedbackPairs(8),
		WithFeedbackBuffer(512),
	)
	defer ae.Close()

	// The frozen counterfactual: same seed model, an identically seeded
	// pool, no feedback ever.
	frozenPool := sys.NewQueriesPool()
	if err := sys.SeedPool(ctx, frozenPool, 30, 11); err != nil {
		t.Fatal(err)
	}
	frozen := sys.CardinalityEstimator(model, frozenPool)
	defer frozen.Close()

	// Feedback and probes draw from the drifted-to family with disjoint
	// parameters (adaptation must generalize, not memorize the probes).
	feedback := driftedWorkload(t, sys, 0, 60)
	probes := driftedWorkload(t, sys, 1, 40)
	seen := make(map[string]bool, len(feedback))
	for _, lq := range feedback {
		seen[lq.Q.Key()] = true
	}
	kept := probes[:0]
	for _, lq := range probes {
		if !seen[lq.Q.Key()] {
			kept = append(kept, lq)
		}
	}
	probes = kept

	// Stream execution feedback in rounds, retraining between them.
	rounds := 2
	per := len(feedback) / rounds
	for r := 0; r < rounds; r++ {
		for _, lq := range feedback[r*per : (r+1)*per] {
			if _, err := ae.RecordFeedbackQuery(ctx, lq.Q, lq.Card); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ae.Retrain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := ae.AdaptationStats()
	if st.Trainer.Promotions == 0 {
		t.Fatalf("no generation was promoted: %+v", st.Trainer)
	}
	if got := ae.ModelGeneration(); got != st.Trainer.Promotions+1 {
		t.Fatalf("generation = %d, promotions = %d", got, st.Trainer.Promotions)
	}
	if st.Collector.Drained == 0 || st.Drift.QError.Total == 0 {
		t.Fatalf("loop counters never moved: %+v", st)
	}

	// (1) End-to-end: adaptive deployment vs frozen deployment.
	frozenMed := medianQError(t, frozen, probes)
	adaptedMed := medianQError(t, ae.CardinalityEstimator, probes)
	t.Logf("median card q-error on the drifted workload: frozen deployment %.3f, adaptive %.3f (gen %d, %d promotions)",
		frozenMed, adaptedMed, ae.ModelGeneration(), st.Trainer.Promotions)
	if adaptedMed >= frozenMed {
		t.Fatalf("adaptation must improve the deployment: frozen median %.3f, adaptive %.3f",
			frozenMed, adaptedMed)
	}

	// (2) Model-isolated: mean rate q-error over held-out probe/pool pairs
	// (the §3.3 validation metric the promotion gate optimizes).
	var rp []workload.Pair
	for _, lq := range probes {
		if len(rp) >= 160 {
			break
		}
		for _, e := range p.Matching(lq.Q) {
			if e.Card > 0 && e.Q.Key() != lq.Q.Key() {
				rp = append(rp, workload.Pair{Q1: e.Q, Q2: lq.Q}, workload.Pair{Q1: lq.Q, Q2: e.Q})
				break // one partner per probe side keeps labeling cheap
			}
		}
	}
	labeled, err := workload.LabelPairs(sys.exec, rp, 0)
	if err != nil {
		t.Fatal(err)
	}
	qpairs := make([][2]Query, len(labeled))
	for i, lp := range labeled {
		qpairs[i] = [2]Query{lp.Q1, lp.Q2}
	}
	frozenRates, err := model.EstimateContainmentBatch(ctx, qpairs)
	if err != nil {
		t.Fatal(err)
	}
	qs, idx := contain.IndexPairs(qpairs)
	promotedRates, err := ae.box.Current().Rates.EstimateRatesIndexed(ctx, qs, idx)
	if err != nil {
		t.Fatal(err)
	}
	var frozenRateQ, promotedRateQ float64
	for i, lp := range labeled {
		frozenRateQ += metrics.RateQError(lp.Rate, frozenRates[i])
		promotedRateQ += metrics.RateQError(lp.Rate, promotedRates[i])
	}
	frozenRateQ /= float64(len(labeled))
	promotedRateQ /= float64(len(labeled))
	t.Logf("mean rate q-error on held-out pairs: frozen model %.2f, promoted model %.2f", frozenRateQ, promotedRateQ)
	if promotedRateQ >= frozenRateQ {
		t.Fatalf("the promoted model must improve the validation metric: frozen %.2f, promoted %.2f",
			frozenRateQ, promotedRateQ)
	}
}

// TestServingNeverBlocksOnRetraining pins the no-blocking property:
// estimates issued WHILE a retrain cycle runs all complete successfully —
// the trainer works on a clone and publishes via one atomic store, so the
// hot path has nothing to wait on.
func TestServingNeverBlocksOnRetraining(t *testing.T) {
	ctx := context.Background()
	sys, model, p := adaptFixture(t)
	ae := openAdaptive(t, sys, model, p,
		WithRetrainInterval(-1), WithRetrainEpochs(4), WithFeedbackPairs(4))
	defer ae.Close()

	for _, lq := range labeledWorkload(t, sys, 31, 24) {
		if _, err := ae.RecordFeedbackQuery(ctx, lq.Q, lq.Card); err != nil {
			t.Fatal(err)
		}
	}
	probe, err := sys.ParseQuery("SELECT * FROM title WHERE title.production_year > 1960")
	if err != nil {
		t.Fatal(err)
	}

	retrained := make(chan error, 1)
	go func() {
		_, err := ae.Retrain(ctx)
		retrained <- err
	}()
	served := 0
	deadline := time.After(60 * time.Second)
	for done := false; !done; {
		select {
		case err := <-retrained:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		case <-deadline:
			t.Fatal("retrain never finished")
		default:
			if _, err := ae.EstimateCardinality(ctx, probe); err != nil {
				t.Fatal(err)
			}
			served++
		}
	}
	if served == 0 {
		t.Fatal("no estimate was served during retraining")
	}
	t.Logf("served %d estimates during one retrain cycle", served)
}

// TestDriftTriggerKicksEarlyRetrain wires the drift monitor end to end:
// feedback whose truths disagree wildly with the live estimates trips the
// windowed threshold and the background trainer retrains without waiting
// for its schedule.
func TestDriftTriggerKicksEarlyRetrain(t *testing.T) {
	ctx := context.Background()
	sys, model, p := adaptFixture(t)
	ae := openAdaptive(t, sys, model, p,
		WithRetrainInterval(-1), // no schedule: only the drift kick can retrain
		WithRetrainEpochs(1),
		WithFeedbackPairs(2),
		WithPromoteTolerance(100),
		WithDriftTrigger(1.05, 8), // trip almost immediately on a bad model
	)
	defer ae.Close()

	// Stream real feedback; the under-trained model's estimates are far
	// enough off that the windowed median q-error exceeds the threshold.
	for i, lq := range labeledWorkload(t, sys, 37, 40) {
		if _, err := ae.RecordFeedbackQuery(ctx, lq.Q, lq.Card); err != nil {
			t.Fatal(err)
		}
		if ae.AdaptationStats().Drift.Trips > 0 {
			t.Logf("drift tripped after %d feedback records", i+1)
			break
		}
	}
	st := ae.AdaptationStats()
	if st.Drift.Trips == 0 {
		t.Fatalf("drift never tripped: %+v", st.Drift)
	}
	// The kick reaches the background loop: a retrain runs with no
	// scheduled interval configured. The cycle is counted as a retrain when
	// it starts and as a drift retrain when it ends: wait for the latter.
	deadline := time.After(60 * time.Second)
	for ae.AdaptationStats().Trainer.DriftRetrains == 0 {
		select {
		case <-deadline:
			t.Fatalf("drift kick never retrained: %+v", ae.AdaptationStats().Trainer)
		case <-time.After(20 * time.Millisecond):
		}
	}
	if st := ae.AdaptationStats().Trainer; st.Retrains < st.DriftRetrains {
		t.Errorf("drift retrains %d exceed retrains %d", st.DriftRetrains, st.Retrains)
	}
}
