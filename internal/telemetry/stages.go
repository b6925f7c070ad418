package telemetry

import (
	"math/rand/v2"
	"time"
)

// The estimate path decomposes into six spans, recorded where the work
// happens rather than where the request enters: the facade times admission
// and coalesce-wait (per request), the batch estimator times candidate
// selection and finalization (per pass), and the rate adapter times cache
// lookup and the NN forward (per pass). Under coalescing a shared pass is
// recorded once — its spans are the work actually done, so the per-stage
// histograms sum to the end-to-end latency histogram on a serial workload
// and show the amortization win under load.
const (
	StageAdmission          = "admission"
	StageCoalesceWait       = "coalesce_wait"
	StageCacheLookup        = "cache_lookup"
	StageCandidateSelection = "candidate_selection"
	StageNNForward          = "nn_forward"
	StageFinalize           = "finalize"
)

// SampleRate is the stage-timing sampling period: one pass in SampleRate
// records its spans, each observed with weight SampleRate, so bucket
// counts, sums and quantiles remain unbiased estimates of the full
// population while the steady-state clock-read cost amortizes to a
// fraction of a read per request. End-to-end latency is never sampled —
// every request lands in the e2e histogram — only the six-way stage
// decomposition is. Must be a power of two (the sampler masks, it does
// not divide).
const SampleRate = 8

// SampleWeight draws one sampling decision: SampleRate (the weight to
// record with) with probability 1/SampleRate, else 0 (skip). Decisions are
// independent pseudo-random draws, not a shared counter: every estimate
// draws several times (request timer, estimation pass, rate pass), so a
// counter's residue would lock onto any traffic that repeats with a period
// sharing a factor with SampleRate — a workload alternating cheap and
// expensive passes would have its expensive passes sampled never, or always.
// Safe for concurrent use; the cost is one per-thread generator step.
func SampleWeight() uint64 {
	if rand.Uint64()&(SampleRate-1) == 0 {
		return SampleRate
	}
	return 0
}

// StageSet holds the resolved per-stage histogram children so the hot path
// records through direct pointers — no map lookup, no label resolution.
// A nil StageSet (telemetry off) makes every span a no-op. Every component
// timing passes against this set samples through SampleWeight, so each
// stage family is sampled at the same 1-in-SampleRate rate.
type StageSet struct {
	Admission          *Histogram
	CoalesceWait       *Histogram
	CacheLookup        *Histogram
	CandidateSelection *Histogram
	NNForward          *Histogram
	Finalize           *Histogram
}

// newStageSet resolves the six stage children of the stage histogram
// family.
func newStageSet(v *HistogramVec) *StageSet {
	return &StageSet{
		Admission:          v.With(StageAdmission),
		CoalesceWait:       v.With(StageCoalesceWait),
		CacheLookup:        v.With(StageCacheLookup),
		CandidateSelection: v.With(StageCandidateSelection),
		NNForward:          v.With(StageNNForward),
		Finalize:           v.With(StageFinalize),
	}
}

// Sample arms a pass timer for a sampled pass — or returns the disabled
// zero timer, reading no clock at all, for the other SampleRate−1 out of
// SampleRate. Components that time interior passes (the batch estimator,
// the rate adapter) start their timers here; the e2e-bearing request timer
// comes from Telemetry.StartTimer instead. Nil-safe.
func (s *StageSet) Sample() StageTimer {
	if s == nil {
		return StageTimer{}
	}
	w := SampleWeight()
	if w == 0 {
		return StageTimer{}
	}
	now := Now()
	return StageTimer{start: now, last: now, w: uint32(w)}
}

// StageTimer marks consecutive spans of one pass: each Mark observes the
// time since the previous mark into the given histogram and advances. The
// zero value is disabled — no clock is ever read — so call sites hold a
// StageTimer unconditionally and only arm it (StartTimer, StageSet.Sample)
// when telemetry is on; that is what keeps clock reads off the disabled
// path. Timestamps are monotonic int64 nanos (see Now), which keeps the
// timer a 16-byte value that copies in registers.
//
// A timer can be armed for totals but not spans (start set, weight 0):
// that is the shape Telemetry.StartTimer hands out for unsampled requests,
// where end-to-end latency is still wanted but the stage decomposition is
// skipped. Mark and Touch are no-ops there; Total still works.
//
// Timers nest by construction: an inner component (the rate adapter inside
// an estimation pass) arms its own timer, and the outer timer excludes the
// inner interval by calling Touch when the inner call returns — the spans
// partition wall time instead of double-counting it.
type StageTimer struct {
	start int64 // monotonic nanos at arming; 0 = disabled
	last  int64
	w     uint32 // span observation weight; 0 = spans disabled
}

// StartTimer arms an unsampled stage timer at the current instant: every
// Mark records, with weight 1. Production passes go through
// StageSet.Sample or Telemetry.StartTimer, which sample; this constructor
// is for call sites (and tests) that need deterministic recording.
func StartTimer() StageTimer {
	now := Now()
	return StageTimer{start: now, last: now, w: 1}
}

// Armed reports whether the timer was started (its Total is meaningful).
func (t *StageTimer) Armed() bool { return t.start != 0 }

// Mark observes the span since the previous mark (or start) into h, at the
// timer's sampling weight, and advances. Disabled and span-disabled
// timers, and nil histograms, are no-ops.
func (t *StageTimer) Mark(h *Histogram) {
	if t.w == 0 {
		return
	}
	now := Now()
	h.ObserveN(float64(now-t.last)*1e-9, uint64(t.w))
	t.last = now
}

// Touch advances the span origin without recording — used after a nested
// call that timed its own interior, so the outer timer's next Mark
// excludes it.
func (t *StageTimer) Touch() {
	if t.w != 0 {
		t.last = Now()
	}
}

// Total returns the time since the timer was armed (0 when disabled).
func (t *StageTimer) Total() time.Duration {
	if t.start == 0 {
		return 0
	}
	return time.Duration(Now() - t.start)
}
