package telemetry

import (
	"sync"

	"crn/internal/metrics"
)

// Arm identifies which estimator answered a query: the learned CRN path or
// the baseline fallback. Per-arm q-error distributions are the signal a
// reliability-gated hybrid needs — a mean over both arms hides exactly the
// difference that matters.
type Arm uint8

const (
	ArmCRN Arm = iota
	ArmFallback
)

// String returns the arm's label value.
func (a Arm) String() string {
	if a == ArmFallback {
		return "fallback"
	}
	return "crn"
}

// accuracySlots bounds the recent-estimate ring. The ring is direct-mapped
// (slot = hash(key) mod size): a colliding estimate overwrites, a truth
// arriving after its estimate was overwritten counts unmatched. That keeps
// Note at one short critical section — no map, no eviction bookkeeping —
// which is what lets the estimate hot path afford noting
// every request; the price is a statistical (not LRU) retention policy,
// which a quantile tracker is indifferent to.
const accuracySlots = 4096

const accuracyShards = 16

// Accuracy joins arriving execution truths against a bounded ring of
// recent estimates and feeds a per-arm q-error histogram: the live
// accuracy signal. Note is called on the estimate path, Truth on the
// feedback path.
type Accuracy struct {
	shards [accuracyShards]accShard

	// qerr children, resolved once: q-error = max(est/true, true/est),
	// cardinalities clamped to ≥1.
	crn      *Histogram
	fallback *Histogram

	joined    *Counter // truths that matched a ringed estimate
	unmatched *Counter // truths with no recent estimate to join
}

type accEntry struct {
	key string // "" = empty slot
	est float64
	arm Arm
}

type accShard struct {
	mu    sync.Mutex
	slots []accEntry
	_     [24]byte // keep neighboring shard mutexes off one cache line
}

// newAccuracy wires the tracker onto a registry.
func newAccuracy(r *Registry) *Accuracy {
	qerr := r.HistogramVec("crn_accuracy_qerror",
		"Q-error of recent estimates joined against execution feedback, per estimator arm.",
		"arm", QErrorOpts)
	a := &Accuracy{
		crn:      qerr.With(ArmCRN.String()),
		fallback: qerr.With(ArmFallback.String()),
		joined: r.Counter("crn_accuracy_joined_total",
			"Execution truths joined against a recent estimate."),
		unmatched: r.Counter("crn_accuracy_unmatched_total",
			"Execution truths with no recent estimate in the ring."),
	}
	for i := range a.shards {
		a.shards[i].slots = make([]accEntry, accuracySlots/accuracyShards)
	}
	return a
}

// locate maps a key's hash to its shard and slot. The caller hashes: the
// estimate path notes every served probe, and a query carries its key's hash
// precomputed (query.Query.KeyHash), so Note hashes nothing.
func (a *Accuracy) locate(h uint64) (*accShard, int) {
	s := &a.shards[h%accuracyShards]
	return s, int((h >> 4) % uint64(len(s.slots)))
}

// Note records a served estimate for key (the query's canonical form) with
// the key's hash h, overwriting whatever occupied its slot. Note and Truth
// must be given the same hash for one key. Nil-safe.
func (a *Accuracy) Note(key string, h uint64, est float64, arm Arm) {
	if a == nil {
		return
	}
	s, slot := a.locate(h)
	s.mu.Lock()
	s.slots[slot] = accEntry{key: key, est: est, arm: arm}
	s.mu.Unlock()
}

// Truth joins an arriving execution truth for key (hashed to h, as for
// Note) against the ring and, on a match, observes the q-error under the
// estimate's arm. The matched entry is consumed (one truth judges one
// estimate). Nil-safe.
func (a *Accuracy) Truth(key string, h uint64, card float64) {
	if a == nil {
		return
	}
	s, slot := a.locate(h)
	s.mu.Lock()
	e := s.slots[slot]
	ok := e.key == key
	if ok {
		s.slots[slot] = accEntry{}
	}
	s.mu.Unlock()
	if !ok {
		a.unmatched.Inc()
		return
	}
	a.joined.Inc()
	hist := a.crn
	if e.arm == ArmFallback {
		hist = a.fallback
	}
	hist.Observe(metrics.CardQError(card, e.est))
}

// Hist returns the q-error histogram for an arm (nil on a nil tracker).
func (a *Accuracy) Hist(arm Arm) *Histogram {
	if a == nil {
		return nil
	}
	if arm == ArmFallback {
		return a.fallback
	}
	return a.crn
}
