package online

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	icrn "crn/internal/crn"
	"crn/internal/guard/failpoint"
	"crn/internal/pool"
	"crn/internal/query"
	"crn/internal/workload"
)

// Trainer is the background half of the adaptation loop: it drains staged
// feedback, grows the queries pool with it, derives labeled containment
// pairs from the fresh records, continues training on a clone of the live
// model (the hot path never sees a mutating weight), and promotes the
// clone through the ModelBox when the validation gate passes.
//
// All heavy work — labeling, cloning, gradient steps — happens on the
// trainer's own goroutine (or the caller of RetrainNow); estimate traffic
// observes retraining only as one atomic pointer flip at promotion time.
type Trainer struct {
	cfg    Config
	box    *ModelBox
	col    *Collector
	pool   *pool.Pool
	oracle workload.Oracle
	drift  *DriftMonitor // may be nil

	// trainMu serializes retrain cycles (the loop goroutine and any
	// explicit RetrainNow callers).
	trainMu sync.Mutex

	// valSet is the held-out validation set accumulated across retrains
	// for the promotion gate, touched only under trainMu; valN mirrors its
	// size for Stats.
	valSet []icrn.Sample
	valN   atomic.Int64

	// ctx is cancelled by Stop: it ends the loop and aborts a scheduled
	// cycle's labeling and fine-tuning.
	ctx     context.Context
	stop    context.CancelFunc
	kick    chan struct{}
	done    chan struct{}
	started atomic.Bool

	// onPromote, when set (before Start), runs after every promotion with
	// the freshly published generation, still under the retrain lock — the
	// durability layer checkpoints here, so a checkpoint can never see a
	// half-promoted cycle.
	onPromote func(*Generation)

	retrains      atomic.Uint64
	panics        atomic.Uint64
	promotions    atomic.Uint64
	rejections    atomic.Uint64
	driftRetrains atomic.Uint64
	trainErrors   atomic.Uint64
	labelErrors   atomic.Uint64
	warmErrors    atomic.Uint64
	oraclePairs   atomic.Uint64
	lastLiveErr   atomic.Uint64 // math.Float64bits
	lastCandErr   atomic.Uint64 // math.Float64bits
}

// NewTrainer wires a trainer over the box, collector, pool and truth
// oracle. drift may be nil (no drift-driven early retrains).
func NewTrainer(cfg Config, box *ModelBox, col *Collector, p *pool.Pool, oracle workload.Oracle, drift *DriftMonitor) *Trainer {
	t := &Trainer{
		cfg:    cfg.withDefaults(),
		box:    box,
		col:    col,
		pool:   p,
		oracle: oracle,
		drift:  drift,
		kick:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	t.ctx, t.stop = context.WithCancel(context.Background())
	t.lastLiveErr.Store(math.Float64bits(math.NaN()))
	t.lastCandErr.Store(math.Float64bits(math.NaN()))
	return t
}

// SetOnPromote installs the promotion hook; see the field comment. Install
// before Start — the hook is read without synchronization from the retrain
// path.
func (t *Trainer) SetOnPromote(fn func(*Generation)) { t.onPromote = fn }

// Start launches the background loop. Starting twice is a no-op; Stop
// tears the loop down. A panic escaping a scheduler iteration (RetrainNow
// already absorbs its own) is counted and the loop restarted — background
// adaptation must never take the process down.
func (t *Trainer) Start() {
	if t.started.Swap(true) {
		return
	}
	go func() {
		defer close(t.done)
		for !t.loop() {
			t.panics.Add(1)
		}
	}()
}

// Stop terminates the background loop and cancels an in-flight retrain
// cycle, waiting for it to end: labeling stops between records, training
// between epochs. Idempotent; safe on a never-started trainer.
func (t *Trainer) Stop() {
	t.stop()
	if t.started.Load() {
		<-t.done
	}
}

// Kick requests an early retrain (drift, operator intervention). Non-
// blocking; coalesces with a pending kick.
func (t *Trainer) Kick() {
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// loop is the scheduler: a retrain runs every Interval when enough
// feedback is staged, or immediately on a kick with whatever is staged.
// It reports true on clean shutdown; a recovered panic reports false so
// Start's wrapper restarts it.
func (t *Trainer) loop() (clean bool) {
	defer func() { _ = recover() }() // a recovered panic leaves clean false
	var tick <-chan time.Time
	if t.cfg.Interval > 0 {
		ticker := time.NewTicker(t.cfg.Interval)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-t.ctx.Done():
			return true
		case <-tick:
			// A drifted window lowers the bar to "anything staged": the
			// trip itself kicks only once (edge-triggered), so sustained
			// drift is handled here, on the schedule, without waiting for
			// a full batch the drifted workload may never deliver.
			staged := t.col.Staged()
			if staged >= minBatch ||
				(staged > 0 && t.drift != nil && t.drift.Drifted()) {
				_, _ = t.RetrainNow(t.ctx)
			}
		case <-t.kick:
			// Count only kicks that produced a real cycle: an empty-buffer
			// kick (or a duplicate kick after a drain) is a no-op, and
			// counting it would let drift_retrains exceed retrains.
			before := t.retrains.Load()
			_, _ = t.RetrainNow(t.ctx)
			if t.retrains.Load() > before {
				t.driftRetrains.Add(1)
			}
		}
	}
}

// RetrainNow runs one synchronous retrain cycle: drain → pool growth →
// pair derivation → labeling → incremental training on a clone →
// validation gate → promotion. It reports whether a new generation was
// promoted. A cycle with nothing staged is a no-op. Concurrent calls
// serialize.
func (t *Trainer) RetrainNow(ctx context.Context) (promoted bool, err error) {
	t.trainMu.Lock()
	defer t.trainMu.Unlock()
	// A panicking cycle (a bug in labeling or training, or an injected
	// fault) must not take the process down: serving never depends on a
	// retrain completing. The panic becomes a counted error; the drained
	// records are lost to training but remain in the pool and journal.
	defer func() {
		if r := recover(); r != nil {
			t.panics.Add(1)
			t.trainErrors.Add(1)
			promoted = false
			err = fmt.Errorf("online: retrain cycle panicked: %v", r)
		}
	}()
	if t.pool == nil {
		// A configuration error, not a crash: the estimator side reports
		// the nil pool on its own paths, and staged feedback stays staged.
		t.trainErrors.Add(1)
		return false, fmt.Errorf("online: trainer requires a queries pool")
	}
	recs := t.col.Drain()
	if len(recs) == 0 {
		return false, nil
	}
	t.retrains.Add(1)
	if err := failpoint.Inject(failpoint.TrainerRetrain); err != nil {
		t.trainErrors.Add(1)
		return false, fmt.Errorf("online: retrain: %w", err)
	}

	// Feedback is ground truth: every record becomes a pool entry, so the
	// Cnt2Crd technique can use it immediately (this alone sharpens
	// estimates, before any retraining). Records the pool rejects as
	// duplicates still contribute training pairs.
	for _, r := range recs {
		t.pool.Add(r.Q, r.Card)
	}

	samples, err := t.labelRecords(ctx, recs)
	if err != nil {
		// Only cancellation aborts labeling (per-record failures are
		// isolated and counted); a cancelled cycle is not a train error.
		return false, err
	}
	train, freshVal := splitSamples(samples)
	valSet := t.extendValSet(freshVal)
	if len(train) == 0 || len(valSet) == 0 {
		return false, nil
	}

	live := t.box.Current()
	clone, err := cloneModel(live.Model)
	if err != nil {
		t.trainErrors.Add(1)
		return false, fmt.Errorf("online: clone model: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	// The rolling validation set is split in two: tuneVal drives
	// ContinueTraining's early stopping (best-epoch selection), gateVal is
	// withheld from training entirely and scores the promotion gate. A
	// single set would let a candidate that overfit the tuning samples via
	// epoch selection grade itself on the same samples — the bias the gate
	// exists to block. A degenerate split falls back to the whole set
	// (small first cycles), accepting the bias over gating on nothing.
	tuneVal, gateVal := splitCouples(valSet, 2)
	if len(tuneVal) == 0 || len(gateVal) == 0 {
		tuneVal, gateVal = valSet, valSet
	}

	// Incremental training on the clone, off the hot path: the live model's
	// weights never move, so in-flight estimates stay consistent without
	// any synchronization beyond the box's pointer. Fine-tuning runs at a
	// reduced learning rate so the small adaptation set nudges the weights
	// instead of dragging them off the bulk distribution; the scale applies
	// once per cycle to the configured rate, which the promoted clone keeps.
	// Stop's cancellation ends the fine-tune between epochs.
	lr := live.Model.Config().LR * lrScale
	if _, err := clone.ContinueTraining(ctx, train, tuneVal, t.cfg.Epochs, lr, nil); err != nil {
		if ctx.Err() != nil {
			return false, err
		}
		t.trainErrors.Add(1)
		return false, fmt.Errorf("online: continue training: %w", err)
	}

	// Promotion gate: the candidate must not regress the held-out
	// validation q-error beyond the configured tolerance. The same sample
	// set scores both models, so the comparison is apples to apples.
	candErr := clone.ValidationQError(gateVal)
	liveErr := live.Model.ValidationQError(gateVal)
	t.lastCandErr.Store(math.Float64bits(candErr))
	t.lastLiveErr.Store(math.Float64bits(liveErr))
	if math.IsNaN(candErr) || candErr > liveErr*(1+t.cfg.Tolerance) {
		t.rejections.Add(1)
		return false, nil
	}
	// Build the successor generation and pre-warm its representation cache
	// with the pool's working set BEFORE publishing: the first estimates
	// after the hot-swap then run at steady-state cost instead of paying a
	// cold cache. Warming failure is not fatal — publish anyway and let the
	// hot path warm lazily.
	next := t.box.Prepare(clone)
	t.warm(next)
	t.box.Publish(next)
	t.promotions.Add(1)
	if t.drift != nil {
		// The window described the previous generation's estimates.
		t.drift.Reset()
	}
	if t.onPromote != nil {
		t.onPromote(next)
	}
	return true, nil
}

// warmCap bounds how many pool entries a promotion pre-warms into the
// successor generation's cache; beyond it the tail warms lazily on the
// hot path (matching the cache's own default capacity).
const warmCap = 4096

// warm precomputes the pool working set's representations in an
// unpublished generation's cache (see Rates.Warm). The warm set is the
// most-recently-matched entries, so a bounded warm covers what estimates
// are actually selecting, not an arbitrary map-order subset.
func (t *Trainer) warm(g *Generation) {
	entries := t.pool.HotEntries(warmCap)
	queries := make([]query.Query, len(entries))
	for i, e := range entries {
		queries[i] = e.Q
	}
	if err := g.Rates.Warm(queries); err != nil {
		// Non-fatal (the hot path warms lazily), and counted apart from
		// training failures so the stats stay readable.
		t.warmErrors.Add(1)
	}
}

// labelRecords turns drained feedback into encoded training samples: each
// record is paired with a spread of its FROM-clause pool partners (both
// directions) and the pairs are labeled by the truth oracle — the same
// §3.1.2 labeling the offline pipeline uses, fed by the live workload
// instead of a generator.
//
// Partner selection deliberately stride-samples across ALL matching
// entries rather than taking the top-K most similar: serving pairs every
// probe with its whole candidate set, so the retraining distribution must
// cover dissimilar (low-rate) pairs too — training only on near-neighbors
// sharpens the rates the estimator divides by least and measurably hurts
// Cnt2Crd accuracy.
//
// Labeling failures are isolated per record: one query the oracle cannot
// label costs its own record's contribution (counted in label_errors),
// not the whole drained batch's. Cancellation still aborts the cycle.
func (t *Trainer) labelRecords(ctx context.Context, recs []Record) ([]icrn.Sample, error) {
	var out []icrn.Sample
	var partners []pool.Entry
	var pairs []workload.Pair
	for _, r := range recs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		partners = t.pool.AppendMatching(partners[:0], r.Q)
		stride := max(len(partners)/t.cfg.PairsPerRecord, 1)
		pairs = pairs[:0]
		for i := 0; i < len(partners) && len(pairs) < 2*t.cfg.PairsPerRecord; i += stride {
			p := partners[i]
			if p.Q.Key() == r.Q.Key() || p.Card <= 0 {
				continue
			}
			pairs = append(pairs, workload.Pair{Q1: r.Q, Q2: p.Q}, workload.Pair{Q1: p.Q, Q2: r.Q})
		}
		if len(pairs) == 0 {
			continue
		}
		labeled, err := workload.LabelPairs(t.oracle, pairs, labelWorkers)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			t.labelErrors.Add(1)
			continue
		}
		samples, err := icrn.EncodePairs(t.box.enc, labeled)
		if err != nil {
			t.labelErrors.Add(1)
			continue
		}
		t.oraclePairs.Add(uint64(len(pairs)))
		out = append(out, samples...)
	}
	return out, nil
}

// splitSamples carves a deterministic validation slice out of one cycle's
// samples. labelRecords emits pairs as adjacent mirrors — (Q1,Q2) then
// (Q2,Q1) — so the split works on mirror-couples, sending every fourth
// couple (both directions) to validation: a val sample's reversed twin in
// the training set would leak the gate, letting an overfit candidate
// score as if its training pairs were held out.
func splitSamples(all []icrn.Sample) (train, val []icrn.Sample) {
	train, val = splitCouples(all, 4)
	if len(val) == 0 && len(all) > 2 {
		val = all[len(all)-2:]
		train = all[:len(all)-2]
	}
	return train, val
}

// splitCouples deals a sample list's mirror-couples into two groups: every
// nth couple to b, the rest to a (couples stay whole, as in splitSamples).
func splitCouples(all []icrn.Sample, n int) (a, b []icrn.Sample) {
	for i, s := range all {
		if (i/2)%n == n-1 {
			b = append(b, s)
		} else {
			a = append(a, s)
		}
	}
	return a, b
}

// extendValSet folds fresh validation samples into the rolling held-out
// set (FIFO-bounded to maxValSet) and returns it for this cycle's gate; the
// caller holds trainMu, so no other cycle moves it meanwhile. Keeping
// validation samples across cycles stops the gate from judging the
// candidate only on the data it was just trained around.
func (t *Trainer) extendValSet(fresh []icrn.Sample) []icrn.Sample {
	t.valSet = append(t.valSet, fresh...)
	if over := len(t.valSet) - maxValSet; over > 0 {
		t.valSet = append(t.valSet[:0], t.valSet[over:]...)
	}
	t.valN.Store(int64(len(t.valSet)))
	return t.valSet
}

// cloneModel duplicates a model's configuration and weights through its
// serialization round trip — the clone shares nothing with the original,
// so training it cannot disturb live serving.
func cloneModel(m *icrn.Model) (*icrn.Model, error) {
	blob, err := m.Save()
	if err != nil {
		return nil, err
	}
	return icrn.Load(blob)
}

// TrainerStats is a point-in-time snapshot of the retraining loop.
type TrainerStats struct {
	Retrains   uint64 `json:"retrains"`
	Promotions uint64 `json:"promotions"`
	Rejections uint64 `json:"rejections"`
	// Panics counts retrain cycles (or scheduler iterations) that
	// panicked, were recovered, and left serving untouched.
	Panics        uint64 `json:"panics"`
	DriftRetrains uint64 `json:"drift_retrains"`
	// TrainErrors counts failed retrain cycles (clone/training/config
	// failures); LabelErrors counts records whose pair labeling failed and
	// were skipped (the cycle continued); WarmErrors counts non-fatal
	// promotion cache-warm failures.
	TrainErrors uint64 `json:"train_errors"`
	LabelErrors uint64 `json:"label_errors"`
	WarmErrors  uint64 `json:"warm_errors"`
	// OraclePairs counts feedback pairs labeled by the truth oracle.
	OraclePairs uint64 `json:"oracle_pairs"`
	// LastLiveQError / LastCandidateQError are the promotion gate's most
	// recent measurements (0 until the first gated cycle).
	LastLiveQError      float64 `json:"last_live_q_error"`
	LastCandidateQError float64 `json:"last_candidate_q_error"`
	ValSamples          int     `json:"val_samples"`
}

// Stats returns the retraining counters.
func (t *Trainer) Stats() TrainerStats {
	st := TrainerStats{
		Retrains:      t.retrains.Load(),
		Promotions:    t.promotions.Load(),
		Rejections:    t.rejections.Load(),
		Panics:        t.panics.Load(),
		DriftRetrains: t.driftRetrains.Load(),
		TrainErrors:   t.trainErrors.Load(),
		LabelErrors:   t.labelErrors.Load(),
		WarmErrors:    t.warmErrors.Load(),
		OraclePairs:   t.oraclePairs.Load(),
		ValSamples:    int(t.valN.Load()),
	}
	if v := math.Float64frombits(t.lastLiveErr.Load()); !math.IsNaN(v) {
		st.LastLiveQError = v
	}
	if v := math.Float64frombits(t.lastCandErr.Load()); !math.IsNaN(v) {
		st.LastCandidateQError = v
	}
	return st
}
