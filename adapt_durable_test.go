package crn

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"crn/internal/durable"
	"crn/internal/workload"
)

// TestDurableKillAndRestart is the acceptance test of the durability
// subsystem: a promoted-and-grown deployment is closed (simulating an
// orderly kill) and reopened against the same data directory. The
// restarted estimator must resume the promoted generation and the grown
// pool, serve bit-identical estimates for the warm working set, and
// replay feedback that was journaled but never trained.
func TestDurableKillAndRestart(t *testing.T) {
	ctx := context.Background()
	sys, model, p := adaptFixture(t)
	dir := t.TempDir()

	ae, err := sys.OpenAdaptiveEstimator(model, p,
		WithRetrainInterval(-1),
		WithRetrainEpochs(2),
		WithFeedbackPairs(4),
		WithPromoteTolerance(100), // force promotion: this test is about state, not quality
		WithDataDir(dir),
		WithWALSync("always"),
		WithCheckpointRetain(2),
	)
	if err != nil {
		t.Fatal(err)
	}

	feedback := driftedWorkload(t, sys, 0, 24)
	for _, lq := range feedback[:16] {
		if _, err := ae.RecordFeedbackQuery(ctx, lq.Q, lq.Card); err != nil {
			t.Fatal(err)
		}
	}
	promoted, err := ae.Retrain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !promoted {
		t.Fatal("fixture retrain did not promote")
	}
	// Promotion must have checkpointed, before any shutdown runs.
	if !HasCheckpoint(dir) {
		t.Fatal("no checkpoint on disk after promotion")
	}

	// Journal more feedback that the trainer never sees: it must survive
	// the restart via WAL replay.
	for _, lq := range feedback[16:] {
		if _, err := ae.RecordFeedbackQuery(ctx, lq.Q, lq.Card); err != nil {
			t.Fatal(err)
		}
	}
	stagedAtKill := ae.StagedFeedback()
	if stagedAtKill == 0 {
		t.Fatal("fixture produced no staged feedback")
	}

	gen := ae.ModelGeneration()
	poolLen := p.Len()
	probes := driftedWorkload(t, sys, 1, 12)
	before := make([]float64, len(probes))
	for i, lq := range probes {
		if before[i], err = ae.EstimateCardinality(ctx, lq.Q); err != nil {
			t.Fatal(err)
		}
	}
	ds := ae.DurabilityStats()
	if ds == nil {
		t.Fatal("DurabilityStats = nil with a data dir configured")
	}
	if ds.WAL.Appends == 0 || ds.Checkpoints == 0 {
		t.Fatalf("durability counters never moved: %+v", ds)
	}
	ae.Close()

	// ---- restart: nil model, empty pool — everything comes from disk ----
	p2 := sys.NewQueriesPool()
	ae2, err := sys.OpenAdaptiveEstimator(nil, p2,
		WithRetrainInterval(-1),
		WithRetrainEpochs(2),
		WithFeedbackPairs(4),
		WithPromoteTolerance(100),
		WithDataDir(dir),
		WithWALSync("always"),
		WithCheckpointRetain(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer ae2.Close()

	if got := ae2.ModelGeneration(); got != gen {
		t.Fatalf("restarted generation = %d, want %d", got, gen)
	}
	if got := p2.Len(); got != poolLen {
		t.Fatalf("restarted pool size = %d, want %d", got, poolLen)
	}
	for i, lq := range probes {
		after, err := ae2.EstimateCardinality(ctx, lq.Q)
		if err != nil {
			t.Fatal(err)
		}
		if after != before[i] {
			t.Fatalf("probe %d: estimate %v after restart, %v before — must be bit-identical", i, after, before[i])
		}
	}
	// Un-trained journaled feedback is staged again.
	ds2 := ae2.DurabilityStats()
	if ds2 == nil || ds2.ReplayedRecords == 0 {
		t.Fatalf("restart replayed nothing: %+v", ds2)
	}
	if got := ae2.StagedFeedback(); got != stagedAtKill {
		t.Fatalf("restarted staged feedback = %d, want %d (the un-trained records)", got, stagedAtKill)
	}
	// The replayed records are trainable: the next cycle promotes gen+1.
	if promoted, err := ae2.Retrain(ctx); err != nil || !promoted {
		t.Fatalf("post-restart retrain: promoted=%v err=%v", promoted, err)
	}
	if got := ae2.ModelGeneration(); got != gen+1 {
		t.Fatalf("post-restart promotion reached generation %d, want %d", got, gen+1)
	}
}

// TestDurableRestartBoundedSelection pins the restart invariant on the
// bounded serving configuration: a capacity-bounded pool with top-K
// candidate selection answers with the same estimate bits after Close and a
// reopen of the data directory. Half-bounded year ranges all score alike, so
// most top-32 selections tie at the cut and depend on the restored pool
// keeping its entries' relative ID order.
func TestDurableRestartBoundedSelection(t *testing.T) {
	ctx := context.Background()
	sys, model, _ := adaptFixture(t)
	dir := t.TempDir()
	const capacity = 200
	open := func(m *ContainmentModel, p *QueriesPool) *AdaptiveEstimator {
		t.Helper()
		return openAdaptive(t, sys, m, p,
			WithRetrainInterval(-1), WithDataDir(dir), WithMaxCandidates(32))
	}

	var qs []Query
	for i := 0; len(qs) < 2*capacity && i < 1000; i++ {
		sql := fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1880+i%130)
		switch i % 4 {
		case 1:
			sql = fmt.Sprintf("SELECT * FROM title WHERE title.production_year < %d", 1890+i%120)
		case 2:
			sql += fmt.Sprintf(" AND title.kind_id = %d", 1+i%7)
		case 3:
			sql = fmt.Sprintf("SELECT * FROM title WHERE title.production_year < %d AND title.kind_id > %d", 1900+i%110, i%5)
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
	p := sys.NewQueriesPool(WithPoolCap(capacity))
	for _, lq := range labeled {
		if lq.Card > 0 {
			p.Add(lq.Q, lq.Card)
		}
	}
	if p.Len() != capacity {
		t.Fatalf("fixture pool holds %d entries, want %d", p.Len(), capacity)
	}

	probes := driftedWorkload(t, sys, 2, 24)
	ae := open(model, p)
	before := make([]float64, len(probes))
	for i, lq := range probes {
		if before[i], err = ae.EstimateCardinality(ctx, lq.Q); err != nil {
			t.Fatal(err)
		}
	}
	ae.Close()

	p2 := sys.NewQueriesPool(WithPoolCap(capacity))
	ae2 := open(nil, p2)
	defer ae2.Close()
	if p2.Len() != capacity {
		t.Fatalf("restored pool holds %d entries, want %d", p2.Len(), capacity)
	}
	for i, lq := range probes {
		after, err := ae2.EstimateCardinality(ctx, lq.Q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(after) != math.Float64bits(before[i]) {
			t.Errorf("probe %d: estimate %v after restart, %v before — must be bit-identical", i, after, before[i])
		}
	}
}

// TestDurableResumesRawDriftCheckpoint pins drift.json compatibility in
// both directions. A checkpoint whose drift state is raw q-errors (the form
// the window was persisted in while it was a ring of samples) restores with
// exact counts, and the window a resumed deployment checkpoints — bucket
// lower edges — restores again into identical bucket counts.
func TestDurableResumesRawDriftCheckpoint(t *testing.T) {
	sys, model, p := adaptFixture(t)
	dir := t.TempDir()
	blob, err := model.Save()
	if err != nil {
		t.Fatal(err)
	}
	var poolBuf bytes.Buffer
	if err := p.Save(&poolBuf); err != nil {
		t.Fatal(err)
	}
	// Raw q-errors straddling the 1.05 threshold, one past the histogram
	// ceiling (2^20).
	raw := []float64{1, 1, 1.04, 1.05, 1.06, 1.3, 2.7, 40, 900, 3e6, 1.2, 17}
	store, err := durable.Open(dir, durable.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	err = store.Checkpoint(&durable.Checkpoint{
		Generation: 3, Model: blob, Pool: poolBuf.Bytes(), Drift: raw, WrittenAt: time.Now().UTC(),
	})
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}

	open := func() *AdaptiveEstimator {
		t.Helper()
		ae, err := sys.OpenAdaptiveEstimator(nil, sys.NewQueriesPool(),
			WithRetrainInterval(-1), WithDriftTrigger(1.05, 256), WithDataDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		return ae
	}
	ae := open()
	if got := ae.ModelGeneration(); got != 3 {
		t.Fatalf("resumed generation = %d, want 3", got)
	}
	d := ae.AdaptationStats().Drift
	above := 0
	for _, q := range raw {
		if q > 1.05 {
			above++
		}
	}
	if d.Drifted || d.QError.Count != len(raw) || d.QError.Total != uint64(len(raw)) || d.QError.AboveThreshold != above {
		t.Fatalf("restored drift window = %+v, want count %d, above %d, not drifted", d, len(raw), above)
	}
	// Every checkpointed value is its raw value's bucket lower edge.
	sorted := slices.Sorted(slices.Values(raw))
	edges := ae.drift.Values()
	if len(edges) != len(sorted) {
		t.Fatalf("Values() has %d entries, want %d", len(edges), len(sorted))
	}
	for i, e := range edges {
		if q := sorted[i]; e > q || (q < 1<<20 && q >= 1.25*e) {
			t.Errorf("value %d: edge %v does not bound raw %v", i, e, q)
		}
	}
	ae.Close() // writes the resumed window back in bucket-edge form

	ae2 := open()
	defer ae2.Close()
	d2 := ae2.AdaptationStats().Drift
	if d2.QError.Count != d.QError.Count || d2.QError.P50 != d.QError.P50 || d2.QError.P99 != d.QError.P99 ||
		d2.QError.Max != d.QError.Max || d2.QError.Mean != d.QError.Mean {
		t.Fatalf("bucket-edge round trip changed the window: %+v, was %+v", d2.QError, d.QError)
	}
	if !slices.Equal(ae2.drift.Values(), edges) {
		t.Fatalf("bucket-edge round trip changed Values: %v, was %v", ae2.drift.Values(), edges)
	}
}

// TestSecondRestartAfterPromotion reopens the SAME data dir a third time
// after the post-restart promotion, pinning that generation numbering
// keeps ascending across restarts instead of resetting.
func TestSecondRestartAfterPromotion(t *testing.T) {
	ctx := context.Background()
	sys, model, p := adaptFixture(t)
	dir := t.TempDir()
	open := func(m *ContainmentModel, pl *QueriesPool) *AdaptiveEstimator {
		t.Helper()
		ae, err := sys.OpenAdaptiveEstimator(m, pl,
			WithRetrainInterval(-1), WithRetrainEpochs(1), WithFeedbackPairs(2),
			WithPromoteTolerance(100), WithDataDir(dir), WithWALSync("always"))
		if err != nil {
			t.Fatal(err)
		}
		return ae
	}

	ae := open(model, p)
	for _, lq := range driftedWorkload(t, sys, 0, 12) {
		if _, err := ae.RecordFeedbackQuery(ctx, lq.Q, lq.Card); err != nil {
			t.Fatal(err)
		}
	}
	if promoted, err := ae.Retrain(ctx); err != nil || !promoted {
		t.Fatalf("promoted=%v err=%v", promoted, err)
	}
	gen := ae.ModelGeneration()
	ae.Close()

	ae2 := open(nil, sys.NewQueriesPool())
	if got := ae2.ModelGeneration(); got != gen {
		t.Fatalf("first restart generation = %d, want %d", got, gen)
	}
	ae2.Close()

	ae3 := open(nil, sys.NewQueriesPool())
	defer ae3.Close()
	if got := ae3.ModelGeneration(); got != gen {
		t.Fatalf("second restart generation = %d, want %d", got, gen)
	}
}

// TestNoDataDirBehavesLikeBefore pins the compatibility contract: without
// WithDataDir the adaptive estimator must run fully in-memory — no
// durability stats, feedback accepted, promotion functional.
func TestNoDataDirBehavesLikeBefore(t *testing.T) {
	ctx := context.Background()
	sys, model, p := adaptFixture(t)
	ae, err := sys.OpenAdaptiveEstimator(model, p,
		WithRetrainInterval(-1), WithRetrainEpochs(1), WithFeedbackPairs(2),
		WithPromoteTolerance(100))
	if err != nil {
		t.Fatal(err)
	}
	defer ae.Close()
	if ae.DurabilityStats() != nil {
		t.Fatal("DurabilityStats must be nil without a data dir")
	}
	for _, lq := range driftedWorkload(t, sys, 0, 12) {
		if _, err := ae.RecordFeedbackQuery(ctx, lq.Q, lq.Card); err != nil {
			t.Fatal(err)
		}
	}
	if promoted, err := ae.Retrain(ctx); err != nil || !promoted {
		t.Fatalf("promoted=%v err=%v", promoted, err)
	}
}

// TestOpenWithoutModelOrCheckpointFails pins the error path: a fresh data
// dir cannot conjure a model out of nothing.
func TestOpenWithoutModelOrCheckpointFails(t *testing.T) {
	sys, _, p := adaptFixture(t)
	if _, err := sys.OpenAdaptiveEstimator(nil, p, WithDataDir(t.TempDir())); err == nil {
		t.Fatal("open with nil model and empty data dir must fail")
	}
	if _, err := sys.OpenAdaptiveEstimator(nil, p); err == nil {
		t.Fatal("open with nil model and no data dir must fail")
	}
}
