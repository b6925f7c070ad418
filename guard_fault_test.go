package crn

// The fault-matrix suite: every operational failure mode the hardening
// layer claims to contain, driven through the public facade with the
// failpoint registry. Each test stages one fault — disk full mid-WAL-append,
// checkpoint publication failure, an estimate-path error storm, overload
// beyond the admission ceiling, a panicking retrain cycle — and asserts the
// deployment's contract: serving keeps answering, durability degrades and
// re-upgrades instead of rejecting feedback, and recovery is observable in
// the stats surfaces health endpoints read.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"crn/internal/guard/failpoint"
)

// guardFixture is adaptFixture plus the classical fallback — the serving
// shape the guards assume (a breaker without a fallback has nowhere to
// divert).
func guardFixture(t *testing.T) (*System, *ContainmentModel, *QueriesPool, BaselineEstimator) {
	t.Helper()
	sys, model, p := adaptFixture(t)
	base, err := sys.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	return sys, model, p, base
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return cond()
}

// TestWALOutageDegradesAndRecovers stages ENOSPC at the WAL append: feedback
// must keep being accepted (staged in memory, durability_degraded set), and
// once the disk recovers the re-probe loop must re-journal the staged
// records, write a catch-up checkpoint, and clear the flag — after which a
// restart recovers every record, including those accepted during the outage.
func TestWALOutageDegradesAndRecovers(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	sys, model, p := adaptFixture(t)
	ctx := context.Background()
	dir := t.TempDir()
	ae, err := sys.OpenAdaptiveEstimator(model, p,
		WithRetrainInterval(-1), WithDataDir(dir), WithWALSync("always"))
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	t.Cleanup(func() {
		if !closed {
			ae.Close()
		}
	})

	// Healthy append first: the WAL works, nothing is degraded.
	if ok, err := ae.RecordFeedback(ctx, "SELECT * FROM title WHERE title.production_year > 1961", 40); err != nil || !ok {
		t.Fatalf("healthy feedback: accepted=%v err=%v", ok, err)
	}
	if ds := ae.DurabilityStats(); ds.Degraded {
		t.Fatalf("degraded before any fault: %+v", ds)
	}

	// Disk full: the append fails, but feedback is NOT rejected — it stages
	// in memory and the deployment flags degraded durability.
	failpoint.EnableError(failpoint.WALAppend, errors.New("no space left on device"))
	if ok, err := ae.RecordFeedback(ctx, "SELECT * FROM title WHERE title.production_year > 1987", 11); err != nil || !ok {
		t.Fatalf("feedback during WAL outage: accepted=%v err=%v (must degrade, not reject)", ok, err)
	}
	ds := ae.DurabilityStats()
	if !ds.Degraded {
		t.Fatalf("durability_degraded not set during outage: %+v", ds)
	}
	if got := ae.StagedFeedback(); got != 2 {
		t.Fatalf("staged = %d, want 2 (outage record staged in memory)", got)
	}

	// Disk recovers: the re-probe loop re-journals, checkpoints, and clears
	// the flag without any caller involvement.
	failpoint.Disable(failpoint.WALAppend)
	// The flag clears when the records are re-journaled; the catch-up
	// checkpoint lands just after — wait for both.
	if !waitFor(t, 10*time.Second, func() bool {
		ds := ae.DurabilityStats()
		return !ds.Degraded && ds.ReupgradeCheckpoints >= 1
	}) {
		t.Fatalf("durability never re-upgraded: %+v", ae.DurabilityStats())
	}
	if ds = ae.DurabilityStats(); ds.Reupgrades < 1 {
		t.Fatalf("re-upgrade not recorded: %+v", ds)
	}

	// Restart: both records — the journaled one and the one accepted during
	// the outage — come back.
	ae.Close()
	closed = true
	ae2, err := sys.OpenAdaptiveEstimator(model, sys.NewQueriesPool(),
		WithRetrainInterval(-1), WithDataDir(dir), WithWALSync("always"))
	if err != nil {
		t.Fatal(err)
	}
	defer ae2.Close()
	if got := ae2.StagedFeedback(); got != 2 {
		t.Errorf("recovered staged = %d, want 2 (no feedback lost across the outage)", got)
	}
}

// TestCheckpointRenameFailureIsContained fails the atomic publication step
// of a checkpoint: the promotion must still land (serving switches to the
// new generation), the failure must only be counted, and the next healthy
// checkpoint must publish.
func TestCheckpointRenameFailureIsContained(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	sys, model, p := adaptFixture(t)
	ctx := context.Background()
	dir := t.TempDir()
	ae, err := sys.OpenAdaptiveEstimator(model, p,
		WithRetrainInterval(-1), WithRetrainEpochs(1),
		WithFeedbackPairs(2), WithPromoteTolerance(10),
		WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer ae.Close()
	probe, err := sys.ParseQuery("SELECT * FROM title WHERE title.production_year > 1950")
	if err != nil {
		t.Fatal(err)
	}

	feed := func(sql string, card int64) {
		t.Helper()
		if ok, err := ae.RecordFeedback(ctx, sql, card); err != nil || !ok {
			t.Fatalf("feedback %q: accepted=%v err=%v", sql, ok, err)
		}
	}
	feed("SELECT * FROM title WHERE title.production_year > 1961", 40)
	feed("SELECT * FROM title WHERE title.production_year > 1987", 11)

	failpoint.EnableError(failpoint.CheckpointRename, errors.New("rename: read-only file system"))
	promoted, err := ae.Retrain(ctx)
	if err != nil {
		t.Fatalf("retrain with failing checkpoint: %v (checkpoint failure must not fail the cycle)", err)
	}
	if !promoted {
		t.Fatalf("retrain did not promote: %+v", ae.AdaptationStats())
	}
	if got := ae.DurabilityStats().CheckpointErrors; got < 1 {
		t.Fatalf("checkpoint_errors = %d, want >= 1", got)
	}
	if HasCheckpoint(dir) {
		t.Fatal("failed rename must not publish a checkpoint")
	}
	// Serving continues on the promoted generation.
	if _, err := ae.EstimateCardinality(ctx, probe); err != nil {
		t.Fatalf("estimate after failed checkpoint: %v", err)
	}

	// The disk heals: the next promotion checkpoints normally.
	failpoint.Disable(failpoint.CheckpointRename)
	errsBefore := ae.DurabilityStats().CheckpointErrors
	feed("SELECT * FROM title WHERE title.production_year > 1971", 30)
	feed("SELECT * FROM title WHERE title.production_year > 1993", 7)
	if promoted, err := ae.Retrain(ctx); err != nil || !promoted {
		t.Fatalf("healthy retrain: promoted=%v err=%v", promoted, err)
	}
	if !HasCheckpoint(dir) {
		t.Fatal("healthy promotion did not publish a checkpoint")
	}
	if got := ae.DurabilityStats().CheckpointErrors; got != errsBefore {
		t.Errorf("checkpoint_errors moved on the healthy cycle: %d -> %d", errsBefore, got)
	}
}

// TestBreakerDivertsErrorStormToFallback storms the learned estimate path
// with injected errors: every caller must still get an answer (the fallback
// absorbs countable failures), the breaker must trip and divert, and after
// the storm half-open probing must close it again.
func TestBreakerDivertsErrorStormToFallback(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	sys, model, p, base := guardFixture(t)
	ctx := context.Background()
	est := sys.CardinalityEstimator(model, p,
		WithFallback(base),
		WithBreaker(BreakerConfig{
			Window: 16, MinSamples: 4, ErrorRate: 0.5,
			Cooldown: 50 * time.Millisecond, ProbeQuota: 2,
		}))
	probe, err := sys.ParseQuery("SELECT * FROM title WHERE title.production_year > 1950")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.EstimateCardinality(ctx, probe); err != nil {
		t.Fatalf("healthy estimate: %v", err)
	}

	failpoint.EnableError(failpoint.EstimateCards, errors.New("injected estimate-path failure"))
	for i := 0; i < 8; i++ {
		if _, err := est.EstimateCardinality(ctx, probe); err != nil {
			t.Fatalf("estimate %d during storm: %v (fallback must absorb the failure)", i, err)
		}
	}
	if !est.BreakerOpen() {
		t.Fatalf("breaker never tripped: %+v", est.GuardStats().Breaker)
	}
	bs := est.GuardStats().Breaker
	if bs.Trips < 1 {
		t.Fatalf("trips = %d, want >= 1", bs.Trips)
	}
	// While open, requests divert straight to the fallback — no primary
	// attempts, still no errors.
	for i := 0; i < 3; i++ {
		if _, err := est.EstimateCardinality(ctx, probe); err != nil {
			t.Fatalf("diverted estimate %d: %v", i, err)
		}
	}
	if got := est.GuardStats().Breaker.Diverted; got < 3 {
		t.Errorf("diverted = %d, want >= 3", got)
	}

	// Storm over: after the cooldown, half-open probes find the primary
	// healthy and close the breaker.
	failpoint.Disable(failpoint.EstimateCards)
	time.Sleep(60 * time.Millisecond)
	for i := 0; i < 4; i++ {
		if _, err := est.EstimateCardinality(ctx, probe); err != nil {
			t.Fatalf("recovery estimate %d: %v", i, err)
		}
	}
	if est.BreakerOpen() {
		t.Fatalf("breaker never closed after recovery: %+v", est.GuardStats().Breaker)
	}
	if got := est.GuardStats().Breaker.Closes; got < 1 {
		t.Errorf("closes = %d, want >= 1", got)
	}
}

// TestOverloadShedsBeyondInflightCeiling floods a gated estimator with 10x
// its admission ceiling: the overflow must shed with ErrOverloaded (never
// queue, never crash), admitted work must succeed, and the gate counters
// must account for every request.
func TestOverloadShedsBeyondInflightCeiling(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	sys, model, p, base := guardFixture(t)
	ctx := context.Background()
	const ceiling = 2
	est := sys.CardinalityEstimator(model, p,
		WithFallback(base), WithMaxInflight(ceiling))
	probe, err := sys.ParseQuery("SELECT * FROM title WHERE title.production_year > 1950")
	if err != nil {
		t.Fatal(err)
	}
	// Slow the estimate path so concurrent requests genuinely overlap.
	failpoint.Enable(failpoint.EstimateCards, func() error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})

	const workers = ceiling * 10
	const perWorker = 3
	var served, shed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				_, err := est.EstimateCardinality(ctx, probe)
				mu.Lock()
				switch {
				case err == nil:
					served++
				case errors.Is(err, ErrOverloaded):
					shed++
				default:
					t.Errorf("unexpected error under overload: %v", err)
				}
				mu.Unlock()
			}
		}()
	}
	close(start)
	wg.Wait()

	if shed == 0 {
		t.Fatalf("no requests shed at %dx the ceiling (served=%d)", workers/ceiling, served)
	}
	if served == 0 {
		t.Fatal("overload shed everything; admitted requests must still be served")
	}
	gs := est.GuardStats().Gate
	if gs.PeakInflight > ceiling {
		t.Errorf("peak inflight %d exceeded ceiling %d", gs.PeakInflight, ceiling)
	}
	if total := gs.Admitted + gs.Shed; total != workers*perWorker {
		t.Errorf("admitted+shed = %d, want %d (every request accounted)", total, workers*perWorker)
	}
	if int64(gs.Shed) != shed {
		t.Errorf("gate shed counter %d != observed %d", gs.Shed, shed)
	}
}

// TestTrainerPanicKeepsServingBitIdentical crashes a retrain cycle with an
// injected panic: the panic must be contained (counted, returned as an
// error), the serving path must answer bit-identically to before the crash
// (no partial promotion, no pool mutation), and the trainer must retrain
// fine once the fault clears.
func TestTrainerPanicKeepsServingBitIdentical(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	sys, model, p := adaptFixture(t)
	ctx := context.Background()
	ae := openAdaptive(t, sys, model, p,
		WithRetrainInterval(-1), WithRetrainEpochs(1),
		WithFeedbackPairs(2), WithPromoteTolerance(10))
	defer ae.Close()
	probe, err := sys.ParseQuery("SELECT * FROM title WHERE title.production_year > 1950")
	if err != nil {
		t.Fatal(err)
	}
	before, err := ae.EstimateCardinality(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT * FROM title WHERE title.production_year > 1961",
		"SELECT * FROM title WHERE title.production_year > 1987",
	} {
		if ok, err := ae.RecordFeedback(ctx, sql, 25); err != nil || !ok {
			t.Fatalf("feedback: accepted=%v err=%v", ok, err)
		}
	}

	failpoint.Enable(failpoint.TrainerRetrain, func() error {
		panic("injected trainer crash")
	})
	promoted, err := ae.Retrain(ctx)
	if promoted || err == nil {
		t.Fatalf("panicked retrain: promoted=%v err=%v, want contained error", promoted, err)
	}
	if got := ae.AdaptationStats().Trainer.Panics; got != 1 {
		t.Errorf("trainer panics = %d, want 1", got)
	}
	if gen := ae.ModelGeneration(); gen != 1 {
		t.Errorf("generation = %d after crashed cycle, want 1 (no partial promotion)", gen)
	}
	after, err := ae.EstimateCardinality(ctx, probe)
	if err != nil {
		t.Fatalf("estimate after trainer crash: %v", err)
	}
	if before != after {
		t.Errorf("serving changed across a crashed retrain: %v -> %v (must be bit-identical)", before, after)
	}

	// Fault cleared: the next cycle retrains and promotes normally.
	failpoint.Disable(failpoint.TrainerRetrain)
	for _, sql := range []string{
		"SELECT * FROM title WHERE title.production_year > 1971",
		"SELECT * FROM title WHERE title.production_year > 1993",
	} {
		if ok, err := ae.RecordFeedback(ctx, sql, 12); err != nil || !ok {
			t.Fatalf("post-crash feedback: accepted=%v err=%v", ok, err)
		}
	}
	if promoted, err := ae.Retrain(ctx); err != nil || !promoted {
		t.Fatalf("post-crash retrain: promoted=%v err=%v (trainer must survive the panic)", promoted, err)
	}
}
