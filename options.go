package crn

import (
	"time"

	"crn/internal/card"
	icrn "crn/internal/crn"
	"crn/internal/datagen"
	"crn/internal/guard"
	"crn/internal/online"
	"crn/internal/pool"
	"crn/internal/telemetry"
)

// This file defines the functional options of the facade. Options replace
// the zero-value config structs of the original API: call sites state only
// what they change, defaults stay in one place, and new knobs never break
// existing callers.

// --- Opening a database -----------------------------------------------------

// OpenOption configures OpenSynthetic.
type OpenOption func(*datagen.Config)

// WithTitles sets the number of rows in the fact table `title`
// (default 4000); the satellite tables scale with it.
func WithTitles(n int) OpenOption {
	return func(c *datagen.Config) {
		if n > 0 {
			c.Titles = n
		}
	}
}

// WithDataSeed sets the database generation seed (default 1).
func WithDataSeed(seed int64) OpenOption {
	return func(c *datagen.Config) {
		if seed != 0 {
			c.Seed = seed
		}
	}
}

// --- Training ---------------------------------------------------------------

// ModelConfig collects the CRN model and training hyperparameters; see
// DefaultModelConfig for the repository-scale defaults and PaperModelConfig
// for the paper's §3.5 settings.
type ModelConfig = icrn.Config

// DefaultModelConfig returns the repository-scale CRN hyperparameters.
func DefaultModelConfig() ModelConfig { return icrn.DefaultConfig() }

// PaperModelConfig returns the paper's full-scale hyperparameters (§3.5:
// H=512, batch 128, 120 epochs).
func PaperModelConfig() ModelConfig { return icrn.PaperConfig() }

// TrainOption configures TrainContainmentModel.
type TrainOption func(*trainConfig)

// WithPairs sets the number of training pairs to generate and label
// (default 5000; the paper's §3.1.2 workload uses 0-2 joins).
func WithPairs(n int) TrainOption {
	return func(c *trainConfig) { c.Pairs = n }
}

// WithSeed sets the workload-generation seed (default 1).
func WithSeed(seed int64) TrainOption {
	return func(c *trainConfig) { c.Seed = seed }
}

// WithModelConfig overrides the CRN hyperparameters (default
// DefaultModelConfig).
func WithModelConfig(cfg ModelConfig) TrainOption {
	return func(c *trainConfig) { c.Model = cfg }
}

// WithProgress installs a per-epoch callback (epoch number, validation mean
// q-error). The callback may cancel the training context; the next epoch
// boundary observes it.
func WithProgress(fn func(epoch int, valQError float64)) TrainOption {
	return func(c *trainConfig) { c.Progress = fn }
}

// --- Queries pool -----------------------------------------------------------

// PoolOption configures NewQueriesPool.
type PoolOption = pool.Option

// WithPoolCap bounds the queries pool to n entries: once full, recording a
// new executed query evicts the least-recently-matched entry (the pooled
// query estimates have gone longest without selecting). The estimator's
// representation cache subscribes to the pool and drops the evicted query's
// resident row at the eviction itself. n <= 0 leaves the pool unbounded (the
// default; the paper's §5.2 pool grows with the workload).
func WithPoolCap(n int) PoolOption { return pool.WithCap(n) }

// PoolStats reports pool occupancy plus candidate-index and eviction
// counters (see QueriesPool.Stats).
type PoolStats = pool.Stats

// --- Cardinality estimation -------------------------------------------------

// estimatorSettings collects everything EstimatorOption values can tune:
// the Figure 8 algorithm knobs on the underlying estimator plus the
// serving-side representation cache, request coalescing, and — for
// OpenAdaptiveEstimator — the online-adaptation configuration.
type estimatorSettings struct {
	est           *card.Estimator
	cacheSize     int
	coalesceBatch int
	coalesceWait  time.Duration
	adapt         online.Config
	dataDir       string
	walSync       string
	ckptRetain    int
	maxInflight   int
	reqTimeout    time.Duration
	breaker       *guard.BreakerConfig
	tel           *telemetry.Telemetry
}

// EstimatorOption configures CardinalityEstimator and ImproveBaseline.
type EstimatorOption func(*estimatorSettings)

// newSettings applies opts over the defaults; est receives the Figure 8
// knobs.
func newSettings(est *card.Estimator, opts []EstimatorOption) estimatorSettings {
	set := estimatorSettings{est: est, cacheSize: icrn.DefaultRepCacheSize}
	for _, o := range opts {
		o(&set)
	}
	return set
}

// WithFallback sets a fallback estimator for queries without a usable pool
// match; without one such queries fail with ErrNoPoolMatch (§5.2 suggests
// falling back to a basic cardinality model).
func WithFallback(fb BaselineEstimator) EstimatorOption {
	return func(s *estimatorSettings) { s.est.Fallback = fb }
}

// WithMaxCandidates bounds every estimate's pool scan to the k most
// containment-comparable old queries, selected by the pool's signature
// index (column overlap, operator classes, range intersection; see
// internal/query.Signature). Estimate latency becomes O(k) in pool size
// instead of O(pool) — the knob that keeps tail latency flat as the §5.2
// deployment pools its whole workload. k = 0 (the default) scans every
// FROM-clause match, the paper's exact algorithm; any k at least the match
// count is bit-identical to the full scan. The paper's Median final
// function is robust to subsetting, so moderate k (64 is a good default at
// 10k+ entry pools) tracks full-scan accuracy closely; see the README's
// "Scaling the queries pool".
func WithMaxCandidates(k int) EstimatorOption {
	return func(s *estimatorSettings) {
		if k < 0 {
			k = 0
		}
		// k = 0 is a real setting (restore the full scan), so a later option
		// must be able to override an earlier bound.
		s.est.MaxCandidates = k
	}
}

// WithRepCacheSize bounds the representation cache of a CRN-backed
// estimator to n entries, and its estimate memo to n probes (default
// icrn.DefaultRepCacheSize; n <= 0 disables both). The cache memoizes
// set-module encodings of the stable pool entries across requests, the memo
// whole estimates of recurring probes; see CardinalityEstimator.
func WithRepCacheSize(n int) EstimatorOption {
	return func(s *estimatorSettings) { s.cacheSize = n }
}

// --- Online adaptation (AdaptiveEstimator only) ------------------------------
//
// The options below configure the execution-feedback loop of
// System.OpenAdaptiveEstimator; on a plain CardinalityEstimator or
// ImproveBaseline they are accepted and ignored (those estimators have no
// adaptation machinery).

// WithFeedbackBuffer bounds the staged-feedback buffer to n records
// (default 1024). Once full, further feedback is rejected — counted, not
// queued — until the trainer drains.
func WithFeedbackBuffer(n int) EstimatorOption {
	return func(s *estimatorSettings) { s.adapt.BufferCap = n }
}

// WithRetrainInterval sets the background trainer's polling period.
// Zero keeps the default (5s); a negative interval disables scheduled
// retraining — drift kicks and explicit Retrain calls still work.
func WithRetrainInterval(d time.Duration) EstimatorOption {
	return func(s *estimatorSettings) { s.adapt.Interval = d }
}

// WithRetrainEpochs sets the incremental-training budget per retrain cycle
// (default 8 epochs of ContinueTraining on a clone of the live model).
func WithRetrainEpochs(n int) EstimatorOption {
	return func(s *estimatorSettings) { s.adapt.Epochs = n }
}

// WithPromoteTolerance sets the promotion gate: a retrained candidate is
// promoted only when its held-out validation q-error is at most
// (1+tol)× the live model's (default 0.05). Negative tolerance demands
// strict improvement.
func WithPromoteTolerance(tol float64) EstimatorOption {
	return func(s *estimatorSettings) { s.adapt.Tolerance = tol }
}

// WithFeedbackPairs bounds how many pool partners each feedback record is
// paired with when deriving training pairs (default 8; the partners are a
// stride sample across all of the record's FROM-clause pool matches, so
// retraining sees dissimilar, low-rate pairs as serving does).
func WithFeedbackPairs(n int) EstimatorOption {
	return func(s *estimatorSettings) { s.adapt.PairsPerRecord = n }
}

// WithDriftTrigger arms the drift monitor: when more than half the q-errors
// of live estimates against arriving feedback truths over the drift window
// (the last window/2..window observations) exceed threshold, a retrain is
// kicked ahead of schedule.
// The default (threshold 0) records drift statistics without ever
// triggering.
func WithDriftTrigger(threshold float64, window int) EstimatorOption {
	return func(s *estimatorSettings) {
		s.adapt.DriftThreshold = threshold
		s.adapt.DriftWindow = window
	}
}

// --- Durability (AdaptiveEstimator only) -------------------------------------

// WithDataDir enables durable deployment state under dir (created if
// missing): every accepted feedback record is journaled to a write-ahead
// log before staging, every promotion checkpoints the model generation,
// pool and drift state atomically, and OpenAdaptiveEstimator recovers the
// newest valid checkpoint plus un-checkpointed feedback on boot. Empty dir
// (the default) keeps the deployment memory-only.
func WithDataDir(dir string) EstimatorOption {
	return func(s *estimatorSettings) { s.dataDir = dir }
}

// WithWALSync selects the feedback WAL sync policy: "interval" (default;
// batched background fsync, bounded loss window), "always" (fsync before
// every accepted feedback is acknowledged), or "none" (OS page cache
// decides). Ignored without WithDataDir; an unknown policy fails
// OpenAdaptiveEstimator.
func WithWALSync(policy string) EstimatorOption {
	return func(s *estimatorSettings) { s.walSync = policy }
}

// WithCheckpointRetain keeps the newest n checkpoints on disk (default 3,
// minimum 1); older checkpoints and the WAL segments every retained
// checkpoint fully covers are pruned after each new checkpoint. Ignored
// without WithDataDir.
func WithCheckpointRetain(n int) EstimatorOption {
	return func(s *estimatorSettings) { s.ckptRetain = n }
}

// --- Operational guards -------------------------------------------------------

// WithMaxInflight caps concurrent estimate calls at n: the (n+1)th
// concurrent EstimateCardinality / EstimateCardinalityBatch call is shed
// immediately with ErrOverloaded instead of queueing, so latency under
// overload stays bounded by the admitted work. Shedding happens before the
// coalescer and the estimation pass, so a shed request costs nothing.
// n <= 0 (the default) leaves admission unlimited.
func WithMaxInflight(n int) EstimatorOption {
	return func(s *estimatorSettings) { s.maxInflight = n }
}

// WithRequestTimeout bounds every estimate call to d: the call's context
// gets a deadline, so a slow pass fails with context.DeadlineExceeded (and
// counts against the circuit breaker) instead of holding an admission slot
// indefinitely. d <= 0 (the default) sets no deadline beyond the caller's.
func WithRequestTimeout(d time.Duration) EstimatorOption {
	return func(s *estimatorSettings) { s.reqTimeout = d }
}

// BreakerConfig tunes the estimate-path circuit breaker; see WithBreaker.
// The zero value takes sensible defaults (window 128, error rate 0.5,
// cooldown 5s, probe quota 3, latency trip off).
type BreakerConfig = guard.BreakerConfig

// WithBreaker arms a circuit breaker on the estimate path: when the rolling
// window's error rate or p99 latency crosses its threshold — or the drift
// monitor of an AdaptiveEstimator alarms (cfg.Alarm defaults to it there) —
// the learned path is tripped open and estimates are answered by the
// WithFallback estimator until half-open probes prove recovery. Without a
// fallback, diverted estimates fail with ErrBreakerOpen. A degraded answer
// beats a 500: the breaker never sheds, it reroutes.
func WithBreaker(cfg BreakerConfig) EstimatorOption {
	return func(s *estimatorSettings) { s.breaker = &cfg }
}

// WithTelemetry attaches a telemetry bundle (see NewTelemetry) to the
// estimator: every estimate is decomposed into per-stage latency spans
// (admission → coalesce-wait → cache-lookup → candidate-selection →
// NN-forward → finalize), outcome counters and subsystem collector
// families are registered on the bundle's registry, and every served
// estimate is noted in the live accuracy ring so execution feedback joins
// it into per-arm q-error histograms. Recording costs one atomic add per
// instrument plus a handful of nanosecond clock reads per request; without
// this option the hot path carries no clocks at all. One bundle serves one
// estimator — metric family names are unique per registry.
func WithTelemetry(t *Telemetry) EstimatorOption {
	return func(s *estimatorSettings) { s.tel = t }
}

// WithCoalescing enables request coalescing on EstimateCardinality: up to
// maxBatch concurrent single-query calls are aggregated — deduplicated by
// canonical query key — into one indexed, matrix-batched estimation pass,
// so N in-flight requests pay one pool scan and one head pass instead of N.
// Batch size adapts to load: an isolated request runs immediately, and a
// positive maxWait additionally holds a non-full batch open for stragglers
// (trading tail latency for bigger batches on lightly loaded servers;
// 0 never waits). Coalesced results are bit-identical to uncoalesced calls.
// maxBatch < 2 disables coalescing (the default).
//
// A query that errors fails its whole shared batch, after which every
// member retries alone (correct, but roughly double the uncoalesced cost
// for that batch) — so under coalescing, configure WithFallback unless
// pool misses are known to be impossible; with a fallback, batch-wide
// failures are limited to genuinely exceptional errors.
func WithCoalescing(maxBatch int, maxWait time.Duration) EstimatorOption {
	return func(s *estimatorSettings) {
		s.coalesceBatch = maxBatch
		s.coalesceWait = maxWait
	}
}
