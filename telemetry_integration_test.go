package crn

import (
	"context"
	"sort"
	"strings"
	"testing"

	"crn/internal/telemetry"
)

// TestStageSpansSumToE2E pins the stage-decomposition invariant: on a
// serial workload the six stage spans are recorded by nested timers that
// partition the estimate's wall time, so their summed durations
// reconstruct the end-to-end histogram's sum. Stage spans are sampled
// (1-in-SampleRate passes, observed at inverse-probability weight), so the
// reconstruction is statistical: the workload warms up first — a sampled
// cold-start outlier would carry its weight into the sum — and then runs
// enough measured requests for the weighted estimate to settle. The
// tolerance is asymmetric: untimed glue (option plumbing, slice
// allocation) can only make the stage sum FALL SHORT of e2e, while
// sampling noise and ApproxSum's geometric-midpoint error (≤12% per
// histogram) cut both ways.
//
// The clock is the real one, and one scheduling stall is as long as a whole
// block of 240 estimates: landing in a sampled span it counts SampleRate
// times over in the stage sum, landing in an unsampled one only in e2e, and
// either way that block's ratio leaves the band (1–2 blocks in 100 do). So
// the invariant is checked on the median of several independent blocks — a
// stall spoils the block it hits, a broken span spoils them all.
func TestStageSpansSumToE2E(t *testing.T) {
	ctx := context.Background()
	sys, model, pool := adaptFixture(t)
	base, err := sys.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry()
	est := sys.CardinalityEstimator(model, pool, WithFallback(base), WithTelemetry(tel))

	warm := labeledWorkload(t, sys, 21, 2*telemetry.SampleRate)
	for _, lq := range warm {
		if _, err := est.EstimateCardinality(ctx, lq.Q); err != nil {
			t.Fatal(err)
		}
	}
	s := tel.Stages
	stages := []*telemetry.Histogram{
		s.Admission, s.CoalesceWait, s.CacheLookup,
		s.CandidateSelection, s.NNForward, s.Finalize,
	}

	const blocks = 9
	ratios := make([]float64, blocks)
	for b := range ratios {
		e2eBefore := tel.E2E.Snapshot()
		stagesBefore := make([]telemetry.HistSnapshot, len(stages))
		for i, h := range stages {
			stagesBefore[i] = h.Snapshot()
		}

		probes := labeledWorkload(t, sys, 22+int64(b), 240)
		for _, lq := range probes {
			if _, err := est.EstimateCardinality(ctx, lq.Q); err != nil {
				t.Fatal(err)
			}
		}

		e2e := tel.E2E.Snapshot().Sub(e2eBefore)
		if got := e2e.Total(); got != uint64(len(probes)) {
			t.Fatalf("block %d: e2e count = %d, want %d", b, got, len(probes))
		}
		var stageSum float64
		for i, h := range stages {
			stageSum += h.Snapshot().Sub(stagesBefore[i]).ApproxSum()
		}
		ratios[b] = stageSum / e2e.ApproxSum()
	}
	sort.Float64s(ratios)
	if median := ratios[blocks/2]; median < 0.4 || median > 1.6 {
		t.Errorf("median stage sum / e2e = %.3f over blocks %.3f, want within [0.4, 1.6]", median, ratios)
	}
}

// scrape parses tel's exposition.
func scrape(t *testing.T, tel *Telemetry) map[string]*telemetry.ParsedFamily {
	t.Helper()
	var b strings.Builder
	if err := tel.Registry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return fams
}

// stageCount reads a stage's crn_estimate_stage_duration_seconds count from
// tel's exposition.
func stageCount(t *testing.T, tel *Telemetry, stage string) uint64 {
	t.Helper()
	if h := scrape(t, tel)["crn_estimate_stage_duration_seconds"].Hist("stage", stage); h != nil {
		return h.Count
	}
	return 0
}

// accuracyJoined reads crn_accuracy_joined_total from tel's exposition.
func accuracyJoined(t *testing.T, tel *Telemetry) float64 {
	t.Helper()
	v, ok := scrape(t, tel)["crn_accuracy_joined_total"].Sample("", "")
	if !ok {
		t.Fatal("crn_accuracy_joined_total missing from the exposition")
	}
	return v
}

// TestDriftEstimateNotServed: RecordFeedbackQuery re-estimates the query to
// score drift, and nobody is served that estimate, so it must not enter the
// stage spans or the accuracy ring. Feedback before any estimate records no
// cache-lookup or forward span. Then each probe is estimated once and gets
// its truth twice: the first round joins the served estimates, the second
// finds nothing to join.
func TestDriftEstimateNotServed(t *testing.T) {
	ctx := context.Background()
	sys, model, pool := adaptFixture(t)
	base, err := sys.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry()
	ae := openAdaptive(t, sys, model, pool,
		WithFallback(base),
		WithTelemetry(tel),
		WithRetrainInterval(-1),
	)
	defer ae.Close()

	for _, lq := range labeledWorkload(t, sys, 25, 200) {
		if _, err := ae.RecordFeedbackQuery(ctx, lq.Q, lq.Card); err != nil {
			t.Fatal(err)
		}
	}
	for _, stage := range []string{telemetry.StageCacheLookup, telemetry.StageNNForward} {
		if n := stageCount(t, tel, stage); n != 0 {
			t.Fatalf("%d %s spans after 200 feedbacks and no estimate", n, stage)
		}
	}

	probes := labeledWorkload(t, sys, 24, 8)
	for _, lq := range probes {
		if _, err := ae.EstimateCardinality(ctx, lq.Q); err != nil {
			t.Fatal(err)
		}
	}
	truths := func() float64 {
		t.Helper()
		for _, lq := range probes {
			if _, err := ae.RecordFeedbackQuery(ctx, lq.Q, lq.Card); err != nil {
				t.Fatal(err)
			}
		}
		return accuracyJoined(t, tel)
	}
	first := truths()
	if first == 0 {
		t.Fatal("no truth joined a served estimate")
	}
	if second := truths(); second != first {
		t.Fatalf("joins went %v -> %v: the second truths joined estimates nobody was served", first, second)
	}
}

// TestAccuracyJoinsFeedback drives the live-accuracy loop end to end on an
// adaptive estimator: estimates ring their values by query key, feedback
// truths join against the ring, and the per-arm q-error family fills in —
// the same histograms /metrics exposes. The exposition itself must also
// cover the online-adaptation and durability families and pass the lint.
func TestAccuracyJoinsFeedback(t *testing.T) {
	ctx := context.Background()
	sys, model, pool := adaptFixture(t)
	base, err := sys.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry()
	ae := openAdaptive(t, sys, model, pool,
		WithFallback(base),
		WithTelemetry(tel),
		WithDataDir(t.TempDir()),
		WithRetrainInterval(-1),
	)
	defer ae.Close()

	probes := labeledWorkload(t, sys, 23, 20)
	for _, lq := range probes {
		if _, err := ae.EstimateCardinality(ctx, lq.Q); err != nil {
			t.Fatal(err)
		}
	}
	if joined := accuracyJoined(t, tel); joined != 0 {
		t.Fatalf("joins before any feedback: %v", joined)
	}
	for _, lq := range probes {
		if _, err := ae.RecordFeedbackQuery(ctx, lq.Q, lq.Card); err != nil {
			t.Fatal(err)
		}
	}

	if joined := accuracyJoined(t, tel); joined == 0 {
		t.Fatal("no feedback truth joined a ringed estimate")
	}
	crnN := tel.Accuracy.Hist(telemetry.ArmCRN).Snapshot().Total()
	fbN := tel.Accuracy.Hist(telemetry.ArmFallback).Snapshot().Total()
	if crnN+fbN == 0 {
		t.Fatal("q-error histograms empty after joins")
	}
	if crnN > 0 {
		snap := tel.Accuracy.Hist(telemetry.ArmCRN).Snapshot()
		if q := snap.Quantile(0.50); q < 1 {
			t.Errorf("crn-arm q-error p50 = %.3f, want >= 1 (q-error is clamped)", q)
		}
	}

	var b strings.Builder
	if err := tel.Registry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if problems := telemetry.Lint(strings.NewReader(text)); len(problems) != 0 {
		t.Fatalf("exposition lint: %v", problems)
	}
	for _, fam := range []string{
		"crn_accuracy_qerror", "crn_accuracy_joined_total",
		"crn_model_generation", "crn_feedback_total", "crn_drift_score",
		"crn_wal_records_total", "crn_checkpoints_total", "crn_durability_degraded",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("family %s missing from exposition", fam)
		}
	}
	fams, err := telemetry.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := fams["crn_feedback_total"].Sample("result", "accepted"); !ok || v == 0 {
		t.Errorf("crn_feedback_total{result=accepted} = %v (ok=%v), want > 0", v, ok)
	}
	if v, ok := fams["crn_wal_records_total"].Sample("kind", "append"); !ok || v == 0 {
		t.Errorf("crn_wal_records_total{kind=append} = %v (ok=%v), want > 0", v, ok)
	}
}
