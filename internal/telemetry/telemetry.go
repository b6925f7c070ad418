// Package telemetry is the dependency-free production telemetry layer: a
// lock-free metrics registry (atomic counters, gauges read at gather time,
// log-bucketed mergeable histograms with ~2^(1/4) bucket growth), a
// per-request stage timer decomposing estimates into admission →
// coalesce-wait → cache-lookup → candidate-selection → NN-forward →
// finalize spans, a hand-rolled Prometheus text exposition writer (plus
// the matching parser and linter), and a live accuracy tracker joining
// execution feedback against recent estimates into per-arm q-error
// histograms.
//
// Design rules, in order: recording on the hot path is a single atomic
// add (histograms bucket by float bit pattern, counters are one
// atomic.Uint64); everything is nil-safe so disabled telemetry is a nil
// check, with nanosecond clock reads only on the enabled path; and the
// package imports nothing beyond the standard library and
// internal/metrics (itself standard-library only), whose q-error the
// accuracy tracker shares with the evaluation and the drift monitor —
// subsystems hand it values, it never reaches into them.
package telemetry

// Outcome label values of crn_estimate_requests_total.
const (
	OutcomeOK       = "ok"
	OutcomeError    = "error"
	OutcomeShed     = "shed"
	OutcomeFallback = "fallback"
)

// Telemetry bundles the serving instruments one estimator (or server)
// records into, with every hot-path child resolved to a direct pointer at
// construction. A nil *Telemetry disables everything: all instruments a
// nil bundle hands out are nil, and nil instruments no-op.
type Telemetry struct {
	reg *Registry

	// Estimate path (facade).
	Requests    *CounterVec // crn_estimate_requests_total{outcome}
	ReqOK       *Counter
	ReqError    *Counter
	ReqShed     *Counter
	ReqFallback *Counter
	E2E         *Histogram // crn_estimate_duration_seconds
	BatchE2E    *Histogram // crn_estimate_batch_duration_seconds
	Stages      *StageSet  // crn_estimate_stage_duration_seconds{stage}

	// Serve layer.
	CoalesceBatch *Histogram // crn_coalesce_batch_size

	// Pool layer.
	TopKScanned *Histogram // crn_pool_topk_scanned
	TopKPruned  *Histogram // crn_pool_topk_pruned

	// Durable layer.
	WALFsync   *Histogram // crn_wal_fsync_duration_seconds
	Checkpoint *Histogram // crn_checkpoint_duration_seconds

	// Live accuracy.
	Accuracy *Accuracy // crn_accuracy_qerror{arm} + join counters
}

// New builds a telemetry bundle over a fresh registry. One bundle serves
// one estimator/server pair; family names are unique per registry, so
// sharing a bundle across two estimators would merge their series.
func New() *Telemetry {
	r := NewRegistry()
	t := &Telemetry{reg: r}
	t.Requests = r.CounterVec("crn_estimate_requests_total",
		"Estimate requests by outcome (ok, error, shed, fallback).", "outcome")
	t.ReqOK = t.Requests.With(OutcomeOK)
	t.ReqError = t.Requests.With(OutcomeError)
	t.ReqShed = t.Requests.With(OutcomeShed)
	t.ReqFallback = t.Requests.With(OutcomeFallback)
	t.E2E = r.Histogram("crn_estimate_duration_seconds",
		"End-to-end single-query estimate latency.", DurationOpts)
	t.BatchE2E = r.Histogram("crn_estimate_batch_duration_seconds",
		"End-to-end explicit-batch estimate latency (per batch call).", DurationOpts)
	t.Stages = newStageSet(r.HistogramVec("crn_estimate_stage_duration_seconds",
		"Estimate latency decomposed by stage; per-pass stages are recorded once per (possibly coalesced) pass.",
		"stage", DurationOpts))
	t.CoalesceBatch = r.Histogram("crn_coalesce_batch_size",
		"Queries per coalesced estimation pass (1 = solo fast path).", SizeOpts)
	t.TopKScanned = r.Histogram("crn_pool_topk_scanned",
		"Candidates scored per top-K pool selection.", SizeOpts)
	t.TopKPruned = r.Histogram("crn_pool_topk_pruned",
		"Candidates pruned unscored per indexed top-K pool selection.", SizeOpts)
	t.WALFsync = r.Histogram("crn_wal_fsync_duration_seconds",
		"Feedback WAL fsync latency.", DurationOpts)
	t.Checkpoint = r.Histogram("crn_checkpoint_duration_seconds",
		"Generation checkpoint write latency.", DurationOpts)
	t.Accuracy = newAccuracy(r)
	return t
}

// Registry returns the underlying registry for exposition and for
// registering collector families over subsystem stats. Nil-safe (nil on a
// nil bundle).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// StartTimer arms a request timer when telemetry is on; on a nil bundle it
// returns the zero (disabled) timer without reading the clock. The timer
// always carries the request's start — every request lands in the e2e
// histogram via Total — but its stage marks are armed for only one request
// in SampleRate (with matching weight), which is what keeps the
// instrumented hot path within a few clock reads per request.
func (t *Telemetry) StartTimer() StageTimer {
	if t == nil {
		return StageTimer{}
	}
	w := SampleWeight()
	now := Now()
	return StageTimer{start: now, last: now, w: uint32(w)}
}

// StageSet returns the stage histograms (nil when disabled).
func (t *Telemetry) StageSet() *StageSet {
	if t == nil {
		return nil
	}
	return t.Stages
}
