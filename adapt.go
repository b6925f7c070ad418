package crn

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"crn/internal/card"
	"crn/internal/contain"
	icrn "crn/internal/crn"
	"crn/internal/durable"
	"crn/internal/online"
	"crn/internal/pool"
	"crn/internal/telemetry"
)

// This file is the facade over internal/online: the execution-feedback
// adaptation loop of the §5.2 deployment. A DBMS that serves estimates also
// executes queries, so (query, true cardinality) ground truth arrives
// continuously; an AdaptiveEstimator ingests that feedback, grows the pool
// with it, incrementally retrains the containment model in the background,
// and atomically hot-swaps improved model generations under live traffic.

// AdaptiveEstimator is a CardinalityEstimator with the online-adaptation
// loop attached. All CardinalityEstimator methods work unchanged (and run
// against the current model generation through one atomic load per pass);
// RecordFeedback feeds the loop, the background trainer promotes improved
// generations, and Close tears the loop down.
//
// Construction starts the background trainer immediately; a deployment
// that wants full manual control passes WithRetrainInterval(-1) and calls
// Retrain itself.
type AdaptiveEstimator struct {
	*CardinalityEstimator
	sys     *System
	col     *online.Collector
	trainer *online.Trainer
	drift   *online.DriftMonitor
	cancel  context.CancelFunc

	// scorer is the drift re-estimate's estimator: the served one without
	// telemetry and with the box's untimed view for its rates, sharing its
	// model, caches, memo, fallback and candidate bound, so an estimate
	// nobody was served never enters the accuracy ring or the stage spans.
	scorer *card.Estimator

	// store is the durability layer (nil without WithDataDir).
	store         *durable.Store
	ckptErrs      atomic.Uint64
	replaySkipped atomic.Uint64
	closed        atomic.Bool

	// reprobe* drive the degraded-durability recovery loop: while the
	// collector is staging in memory only (a WAL append failed), a
	// background goroutine re-probes the disk with exponential backoff,
	// re-journals the staged records on recovery, and writes a catch-up
	// checkpoint. Nil without WithDataDir.
	reprobeStop    chan struct{}
	reprobeDone    chan struct{}
	reupgradeCkpts atomic.Uint64
}

// CollectorStats reports feedback-ingestion counters (see
// AdaptiveEstimator.AdaptationStats).
type CollectorStats = online.CollectorStats

// TrainerStats reports background-retraining counters.
type TrainerStats = online.TrainerStats

// DriftStats reports the drift monitor's windowed q-error quantiles and
// trigger state.
type DriftStats = online.DriftStats

// AdaptationStats is a point-in-time snapshot of the whole adaptation
// loop, shaped for health endpoints.
type AdaptationStats struct {
	// Generation is the live model generation (1 at startup, +1 per
	// promotion).
	Generation uint64         `json:"generation"`
	Collector  CollectorStats `json:"collector"`
	Trainer    TrainerStats   `json:"trainer"`
	Drift      DriftStats     `json:"drift"`
}

// OpenAdaptiveEstimator builds the paper's Cnt2Crd(CRN) estimator with the
// online-adaptation loop attached. It accepts every CardinalityEstimator
// option plus the adaptation options (WithFeedbackBuffer,
// WithRetrainInterval, WithRetrainEpochs, WithPromoteTolerance,
// WithFeedbackPairs, WithDriftTrigger) and the durability options
// (WithDataDir, WithWALSync, WithCheckpointRetain).
//
// The returned estimator owns a background trainer goroutine and a pool
// subscription; call Close when discarding it. The supplied model is
// generation 1; the model handle itself is never mutated (retraining works
// on clones), so it remains valid for containment estimation throughout.
//
// With WithDataDir, construction recovers a crashed deployment: the newest
// valid checkpoint (model generation, queries pool with recency, drift
// window) is restored — older checkpoints are fallbacks when the newest is
// corrupt — and the feedback WAL is replayed from the checkpoint's applied
// LSN so un-checkpointed feedback re-enters the training pipeline. A torn
// WAL tail (crash mid-append) is truncated silently; unparseable replayed
// records are skipped and counted, never fatal. It fails on I/O errors, a
// corrupt state directory or an unknown sync policy.
//
// When a checkpoint exists, its model supersedes m; m may then be nil (a
// resumed deployment needs no retraining from scratch — see
// crn.HasCheckpoint). Without a data dir the only error is a nil model.
func (s *System) OpenAdaptiveEstimator(m *ContainmentModel, p *QueriesPool, opts ...EstimatorOption) (*AdaptiveEstimator, error) {
	est := card.New(nil, p)
	set := newSettings(est, opts)

	var (
		store *durable.Store
		ck    *durable.Checkpoint
	)
	fail := func(err error) (*AdaptiveEstimator, error) {
		if store != nil {
			store.Close()
		}
		return nil, err
	}
	if set.dataDir != "" {
		policy, err := durable.ParseSyncPolicy(set.walSync)
		if err != nil {
			return nil, err
		}
		store, err = durable.Open(set.dataDir, durable.StoreOptions{
			WAL:    durable.WALOptions{Sync: policy},
			Retain: set.ckptRetain,
		})
		if err != nil {
			return nil, err
		}
		if ck, err = store.Recover(); err != nil {
			return fail(err)
		}
	}

	model := (*icrn.Model)(nil)
	if m != nil {
		model = m.model
	}
	if ck != nil {
		restored, err := icrn.Load(ck.Model)
		if err != nil {
			return fail(fmt.Errorf("crn: recover checkpoint model: %w", err))
		}
		if restored.Dim() != s.enc.Dim() {
			return fail(fmt.Errorf("%w: checkpoint model expects dimension %d, this database's featurization has %d",
				ErrDimMismatch, restored.Dim(), s.enc.Dim()))
		}
		model = restored
	}
	if model == nil {
		return fail(errors.New("crn: adaptive estimator needs a model or a recoverable checkpoint"))
	}

	gen := uint64(1)
	if ck != nil {
		if _, err := pool.LoadInto(p, s.schema, bytes.NewReader(ck.Pool)); err != nil {
			return fail(fmt.Errorf("crn: recover pool snapshot: %w", err))
		}
		// Resume the recorded generation. The box is built after the pool
		// restore, so its cache subscription sees the final pool, not a
		// stream of replay mutations.
		gen = max(ck.Generation, 1)
	}
	box := online.NewModelBox(model, s.enc, set.cacheSize, p, gen)
	cfg := set.adapt
	drift := online.NewDriftMonitor(cfg.DriftThreshold, cfg.DriftWindow, 0)
	if set.breaker != nil && set.breaker.Alarm == nil {
		// The adaptive deployment has a live unreliability signal the plain
		// estimator lacks: wire the drift monitor's alarm bit into the
		// breaker, so a drifted model diverts to the fallback immediately
		// instead of waiting for the error window to fill. (A copy: the
		// option's config may configure other estimators.)
		bc := *set.breaker
		bc.Alarm = drift.Drifted
		set.breaker = &bc
	}
	ae := &AdaptiveEstimator{
		CardinalityEstimator: newEstimator(est, p, box, set),
		sys:                  s,
		col:                  online.NewCollector(p, cfg.BufferCap),
		drift:                drift,
		store:                store,
	}
	scorer := *est
	scorer.Tel = nil
	scorer.Rates = box.Untimed()
	ae.scorer = &scorer
	if ck != nil {
		ae.drift.Restore(ck.Drift)
		ae.col.SetAppliedLSN(ck.AppliedLSN)
	}
	if store != nil {
		// Write-ahead ordering: feedback reaches the WAL before the staging
		// buffer, so everything the collector ever accepted is recoverable.
		ae.col.SetJournal(store.Append)
		// Re-stage journaled feedback the checkpoint does not cover (its
		// applied LSN is 0 without one). A corrupt record ends the usable log
		// right there (everything before it was delivered); anything else is
		// a real I/O failure.
		_, err := store.Replay(ae.col.AppliedLSN(), func(rec durable.FeedbackRecord) error {
			q, perr := s.ParseQuery(rec.SQL)
			if perr != nil {
				ae.replaySkipped.Add(1)
				return nil
			}
			_, _ = ae.col.Restage(q, rec.Card, rec.ObservedAt, rec.LSN)
			return nil
		})
		if err != nil && !errors.Is(err, durable.ErrCorrupt) {
			return fail(fmt.Errorf("crn: replay feedback wal: %w", err))
		}
	}

	// The trainer's labeling oracle runs under a context cancelled by
	// Close, so an in-flight retrain aborts promptly at teardown.
	ctx, cancel := context.WithCancel(context.Background())
	ae.cancel = cancel
	ae.trainer = online.NewTrainer(cfg, box, ae.col, p, ctxOracle{ctx: ctx, ex: s.exec}, ae.drift)
	if set.tel != nil {
		if store != nil {
			store.SetTelemetry(set.tel.WALFsync, set.tel.Checkpoint)
		}
		ae.registerAdaptiveCollectors()
	}
	if store != nil {
		// Checkpoint inside the promotion path (still under the retrain
		// lock): the persisted (generation, pool, drift, applied LSN) tuple
		// is exactly the promoted cycle's, never a torn mix of two cycles.
		ae.trainer.SetOnPromote(func(g *online.Generation) { ae.checkpoint(g) })
		ae.reprobeStop = make(chan struct{})
		ae.reprobeDone = make(chan struct{})
		go ae.reprobeLoop()
	}
	ae.trainer.Start()
	return ae, nil
}

// registerAdaptiveCollectors bridges the adaptation loop's and the
// durability layer's stats onto the telemetry registry, gathered at
// exposition time from the same atomics /healthz reports.
func (e *AdaptiveEstimator) registerAdaptiveCollectors() {
	r := e.tel.Registry()

	r.GaugeFunc("crn_model_generation", "Live model generation (1 at startup, +1 per promotion).",
		func() float64 { return float64(e.box.Generation()) })
	r.CollectCounter("crn_trainer_events_total",
		"Background-trainer lifecycle events.",
		"event", func(emit telemetry.Emit) {
			ts := e.trainer.Stats()
			emit(float64(ts.Retrains), "retrain")
			emit(float64(ts.Promotions), "promotion")
			emit(float64(ts.Rejections), "rejection")
			emit(float64(ts.DriftRetrains), "drift_retrain")
			emit(float64(ts.TrainErrors), "train_error")
			emit(float64(ts.Panics), "panic")
		})
	r.CollectCounter("crn_feedback_total",
		"Execution-feedback ingestion results.",
		"result", func(emit telemetry.Emit) {
			cs := e.col.Stats()
			emit(float64(cs.Accepted), "accepted")
			emit(float64(cs.Duplicates), "duplicate")
			emit(float64(cs.Corrected), "corrected")
			emit(float64(cs.Invalid), "invalid")
			emit(float64(cs.Overflow), "overflow")
		})
	r.GaugeFunc("crn_drift_score", "Windowed median q-error of live estimates against arriving truths (histogram bucket resolution).",
		func() float64 { return e.drift.Stats().QError.P50 })
	r.GaugeFunc("crn_drift_alarm", "1 while the drift monitor is tripped, else 0.",
		func() float64 {
			if e.drift.Drifted() {
				return 1
			}
			return 0
		})

	if e.store != nil {
		r.CollectCounter("crn_wal_records_total",
			"Feedback WAL activity: appended records, fsyncs, segment rolls, I/O errors.",
			"kind", func(emit telemetry.Emit) {
				ws := e.store.Stats().WAL
				emit(float64(ws.Appends), "append")
				emit(float64(ws.Syncs), "sync")
				emit(float64(ws.Rolls), "roll")
				emit(float64(ws.IOErrors), "io_error")
			})
		r.CollectCounter("crn_checkpoints_total", "Checkpoints written by this process.",
			"", func(emit telemetry.Emit) { emit(float64(e.store.Stats().Checkpoints), "") })
		r.GaugeFunc("crn_durability_degraded", "1 while feedback is staged in memory only (WAL down), else 0.",
			func() float64 {
				if e.col.Degraded() {
					return 1
				}
				return 0
			})
	}
}

// reprobeLoop restores durability after a degradation. While the collector
// reports Degraded (a journal append failed; feedback is staged in memory
// only), the loop re-journals the staged records with exponential backoff —
// each attempt doubles as a disk probe. On success it syncs the WAL and
// writes a catch-up checkpoint, shrinking the recovery tail that grew while
// the disk was down, and the collector resumes journaling inline.
func (e *AdaptiveEstimator) reprobeLoop() {
	defer close(e.reprobeDone)
	const minBackoff, maxBackoff = 50 * time.Millisecond, 5 * time.Second
	backoff := minBackoff
	for {
		select {
		case <-e.reprobeStop:
			return
		case <-time.After(backoff):
		}
		if !e.col.Degraded() {
			backoff = minBackoff
			continue
		}
		if _, err := e.col.ReJournal(); err != nil {
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		_ = e.store.Sync()
		e.checkpoint(e.box.Current())
		e.reupgradeCkpts.Add(1)
		backoff = minBackoff
	}
}

// HasCheckpoint reports whether dataDir holds at least one completed
// checkpoint — whether OpenAdaptiveEstimator with that dir would resume a
// previous deployment rather than start fresh. Boot logic uses it to skip
// seed training/pool seeding on restart.
func HasCheckpoint(dataDir string) bool { return durable.HasCheckpoint(dataDir) }

// checkpoint persists one generation's full deployment state. Failures are
// counted, not fatal: the WAL still covers everything since the last good
// checkpoint, so serving and adaptation continue with a longer recovery
// tail.
func (e *AdaptiveEstimator) checkpoint(g *online.Generation) {
	blob, err := g.Model.Save()
	if err != nil {
		e.ckptErrs.Add(1)
		return
	}
	var poolBuf bytes.Buffer
	if err := e.pool.Save(&poolBuf); err != nil {
		e.ckptErrs.Add(1)
		return
	}
	err = e.store.Checkpoint(&durable.Checkpoint{
		Generation: g.Gen,
		AppliedLSN: e.col.AppliedLSN(),
		Model:      blob,
		Pool:       poolBuf.Bytes(),
		Drift:      e.drift.Values(),
		WrittenAt:  time.Now().UTC(),
	})
	if err != nil {
		e.ckptErrs.Add(1)
	}
}

// RecordFeedback ingests one piece of execution feedback: the SQL text of
// a query the workload actually executed and its observed true
// cardinality. The query is parsed and validated (unparseable text wraps
// ErrDialect), its truth is compared against the live estimate to feed the
// drift monitor (a drifted window kicks an early retrain), and the record
// is staged for the background trainer — deduplicated against the pool and
// the staged buffer, bounded by the feedback buffer. accepted reports
// whether the record was staged (false: duplicate or buffer full).
//
// The call never blocks on retraining; its cost is one parse plus one
// estimate (for drift accounting) plus a buffered append.
func (e *AdaptiveEstimator) RecordFeedback(ctx context.Context, sql string, card int64) (accepted bool, err error) {
	q, err := e.sys.ParseQuery(sql)
	if err != nil {
		return false, err
	}
	return e.RecordFeedbackQuery(ctx, q, card)
}

// RecordFeedbackQuery is RecordFeedback for an already parsed query.
func (e *AdaptiveEstimator) RecordFeedbackQuery(ctx context.Context, q Query, card int64) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if card < 0 {
		// Invalid feedback must not touch the drift window; the collector
		// rejects it with the error and counts it.
		return e.col.Offer(q, card, time.Now())
	}
	// Live accuracy: join the truth against the most recent served estimate
	// of this query (if the ring still holds one) BEFORE drift accounting
	// computes a fresh estimate below — the q-error per arm should score
	// what was actually served, not a post-hoc recomputation.
	if e.tel != nil {
		e.tel.Accuracy.Truth(q.Key(), q.KeyHash(), float64(card))
	}
	// Drift accounting: how wrong was the live model about this truth?
	// Queries the estimator cannot answer (no pool match, no fallback) are
	// skipped — there is no estimate to score.
	e.revalidate()
	if est, err := e.scorer.EstimateCardCtx(ctx, q); err == nil {
		if e.drift.Observe(est, float64(card)) {
			e.trainer.Kick()
		}
	}
	return e.col.Offer(q, card, time.Now())
}

// EstimateContainment estimates q1 ⊂% q2 in [0,1] on the LIVE model
// generation (ContainmentModel.EstimateContainment answers from the static
// handle the estimator was built with). It is also the only containment
// entry point of a deployment resumed from a checkpoint without a
// standalone model.
func (e *AdaptiveEstimator) EstimateContainment(ctx context.Context, q1, q2 Query) (float64, error) {
	if err := contain.Validate(q1, q2); err != nil {
		return 0, err
	}
	return contain.Rate(ctx, e.box, q1, q2)
}

// Retrain runs one synchronous retrain cycle over the staged feedback and
// reports whether a new model generation was promoted. The background
// trainer does this on its own schedule; Retrain exists for tests,
// operational tooling, and deployments driving the loop manually.
func (e *AdaptiveEstimator) Retrain(ctx context.Context) (promoted bool, err error) {
	return e.trainer.RetrainNow(ctx)
}

// StagedFeedback returns the number of feedback records waiting for the
// background trainer. Cheaper than AdaptationStats for per-request use
// (one mutex, no window snapshot).
func (e *AdaptiveEstimator) StagedFeedback() int {
	return e.col.Staged()
}

// ModelGeneration returns the live model generation: 1 at construction,
// incremented by every promotion. In-flight estimates that loaded an older
// generation finish on it; every estimate observes exactly one generation.
func (e *AdaptiveEstimator) ModelGeneration() uint64 {
	return e.box.Generation()
}

// AdaptationStats returns a snapshot of the feedback loop: ingestion,
// retraining and drift counters plus the live generation.
func (e *AdaptiveEstimator) AdaptationStats() AdaptationStats {
	return AdaptationStats{
		Generation: e.box.Generation(),
		Collector:  e.col.Stats(),
		Trainer:    e.trainer.Stats(),
		Drift:      e.drift.Stats(),
	}
}

// DurabilityStats reports the durability layer's state: WAL counters,
// checkpoint history, recovery activity. Nil without WithDataDir (the
// healthz serializer drops the section entirely for memory-only
// deployments).
type DurabilityStats struct {
	durable.StoreStats
	// CheckpointErrors counts failed checkpoint attempts (serving continued;
	// the WAL still covers the un-checkpointed state).
	CheckpointErrors uint64 `json:"checkpoint_errors"`
	// ReplaySkipped counts journaled records recovery could not re-parse
	// (schema changed underneath the data dir) and dropped.
	ReplaySkipped uint64 `json:"replay_skipped"`
	// Degraded reports degraded durability RIGHT NOW: a WAL append failed
	// and feedback is being staged in memory only until the re-probe loop
	// re-journals it. Reupgrades counts recoveries back to full
	// durability; ReupgradeCheckpoints the catch-up checkpoints they
	// wrote.
	Degraded             bool   `json:"durability_degraded"`
	Reupgrades           uint64 `json:"reupgrades"`
	ReupgradeCheckpoints uint64 `json:"reupgrade_checkpoints"`
}

// DurabilityStats returns the durability snapshot, or nil for a memory-only
// estimator.
func (e *AdaptiveEstimator) DurabilityStats() *DurabilityStats {
	if e.store == nil {
		return nil
	}
	cs := e.col.Stats()
	return &DurabilityStats{
		StoreStats:           e.store.Stats(),
		CheckpointErrors:     e.ckptErrs.Load(),
		ReplaySkipped:        e.replaySkipped.Load(),
		Degraded:             cs.Degraded,
		Reupgrades:           cs.Reupgrades,
		ReupgradeCheckpoints: e.reupgradeCkpts.Load(),
	}
}

// Close stops the background trainer (an in-flight cycle is cancelled at
// its next labeled record or training epoch, and waited for) and releases
// the pool subscription. A durable estimator then writes a final
// checkpoint of the current generation — staged-but-untrained feedback
// stays in the WAL beyond the checkpoint's applied LSN, so the next boot
// re-stages it — syncs and closes the store.
// The estimator still answers estimates afterwards — on its last promoted
// generation — but no longer adapts. Idempotent.
func (e *AdaptiveEstimator) Close() {
	if e.closed.Swap(true) {
		return
	}
	e.cancel()
	e.trainer.Stop()
	if e.store != nil {
		close(e.reprobeStop)
		<-e.reprobeDone
		e.checkpoint(e.box.Current())
		_ = e.store.Sync()
		_ = e.store.Close()
	}
	e.CardinalityEstimator.Close()
}
