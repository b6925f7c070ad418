package guard

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBreakerOpen is returned on the estimate path when the circuit
// breaker is open and no fallback estimator is configured to absorb the
// tripped traffic.
var ErrBreakerOpen = errors.New("guard: circuit breaker open")

// BreakerState enumerates the classic three circuit-breaker states.
type BreakerState int32

const (
	// BreakerClosed: healthy, all traffic flows through the primary path.
	BreakerClosed BreakerState = iota
	// BreakerOpen: tripped, primary traffic is diverted until Cooldown.
	BreakerOpen
	// BreakerHalfOpen: cooldown elapsed, a probe quota of requests is let
	// through the primary path to test recovery.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes the circuit breaker. Zero fields take the defaults
// documented per field.
type BreakerConfig struct {
	// Window is how many outcomes one tumbling window counts (default 128,
	// at most 1<<20): the first outcome after the window fills starts a
	// fresh one.
	Window int
	// MinSamples is the minimum outcomes in the window before the
	// error-rate and latency trips can fire (default Window/4), so a
	// single early failure cannot trip an idle breaker.
	MinSamples int
	// ErrorRate in [0,1] trips the breaker when the windowed failure
	// fraction reaches it (default 0.5).
	ErrorRate float64
	// LatencyP99 trips the breaker when the windowed p99 latency reaches
	// it. The p99 is counted, not sorted: the nearest-rank p99 of n
	// outcomes reaches the threshold exactly when at least
	// n − ⌊0.99·(n+1)⌋ + 1 of them do. Zero disables the latency trip.
	LatencyP99 time.Duration
	// Cooldown is how long the breaker stays open before probing
	// (default 5s).
	Cooldown time.Duration
	// ProbeQuota is how many consecutive half-open probes must succeed to
	// close the breaker (default 3). Any probe failure reopens it.
	ProbeQuota int
	// Alarm, when non-nil, is polled on closed-state Allow calls; a true
	// return trips the breaker immediately regardless of the window. It
	// must be cheap — the drift monitor's atomic Drifted bit is the
	// intended input.
	Alarm func() bool
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 128
	}
	if c.Window > maxWindow {
		c.Window = maxWindow
	}
	if c.MinSamples <= 0 {
		c.MinSamples = c.Window / 4
		if c.MinSamples < 1 {
			c.MinSamples = 1
		}
	}
	if c.ErrorRate <= 0 || c.ErrorRate > 1 {
		c.ErrorRate = 0.5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.ProbeQuota <= 0 {
		c.ProbeQuota = 3
	}
	return c
}

// Breaker is a three-state circuit breaker over the learned estimate
// path. It trips on windowed error rate, windowed p99 latency, or an
// external alarm (the drift monitor); while open it diverts traffic for a
// cooldown, then half-opens and lets a probe quota through the primary
// path before closing again. A nil *Breaker always allows.
//
// The closed-state happy path is lock-free: Allow is an atomic state load
// (plus the alarm poll), and Record accounts each outcome with one atomic
// add on a tumbling window of counters — a p99 threshold is a count of
// slow outcomes, so no latency is ever stored or sorted, and serving
// goroutines never serialize on the breaker while it is healthy. The mutex
// guards state transitions and the open/half-open paths.
type Breaker struct {
	cfg BreakerConfig

	// slowAt is the latency at which an outcome counts as slow:
	// cfg.LatencyP99, or never when the latency trip is off.
	slowAt time.Duration

	// Closed-state accounting: a tumbling window in ONE atomic — samples,
	// failures and slow outcomes packed side by side (see fieldBits) — so a
	// record is a single RMW whose return value already carries all three
	// counts. Reset (by one CAS winner) on the first record after samples
	// reaches cfg.Window. Approximate at the boundary under concurrency,
	// which a trip threshold tolerates by design.
	winPacked atomic.Uint64

	state atomic.Int32 // BreakerState; written under mu, read lock-free

	mu       sync.Mutex
	openedAt time.Time
	probing  int // half-open probes currently outstanding
	probeOKs int // consecutive successful probes this half-open episode

	trips      uint64
	alarmTrips uint64
	closes     uint64
	diverted   uint64

	now func() time.Time // test hook
}

// winPacked layout: three fieldBits-wide counts — samples lowest, then
// failures, then slow outcomes. maxWindow leaves each field room for the
// concurrent records that land past a full window before it tumbles.
const (
	fieldBits    = 21
	fieldMask    = 1<<fieldBits - 1
	failureShift = fieldBits
	slowShift    = 2 * fieldBits
	maxWindow    = 1 << 20
)

func (b *Breaker) loadState() BreakerState {
	return BreakerState(b.state.Load())
}

// NewBreaker returns a breaker with cfg's zero fields defaulted.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	slowAt := cfg.LatencyP99
	if slowAt <= 0 {
		slowAt = math.MaxInt64
	}
	return &Breaker{cfg: cfg, slowAt: slowAt, now: time.Now}
}

// Allow reports whether the primary path may serve this request, and
// whether the request is a half-open probe. When allowed && probe, the
// caller must report the outcome with RecordProbe; when allowed && !probe,
// with Record; when !allowed, the request goes to the fallback and is not
// recorded.
func (b *Breaker) Allow() (allowed, probe bool) {
	if b == nil {
		return true, false
	}
	// Lock-free happy path: a closed breaker with a quiet alarm admits
	// without touching the mutex.
	if b.loadState() == BreakerClosed && (b.cfg.Alarm == nil || !b.cfg.Alarm()) {
		return true, false
	}
	return b.allowSlow()
}

// allowSlow handles every Allow that is not a quiet closed-state pass:
// alarm trips, the open-state cooldown, and half-open probe admission.
func (b *Breaker) allowSlow() (allowed, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.loadState() {
	case BreakerClosed:
		if b.cfg.Alarm != nil && b.cfg.Alarm() {
			b.tripLocked(true)
			b.diverted++
			return false, false
		}
		return true, false
	case BreakerOpen:
		if b.now().Sub(b.openedAt) >= b.cfg.Cooldown {
			b.state.Store(int32(BreakerHalfOpen))
			b.probing = 0
			b.probeOKs = 0
		} else {
			b.diverted++
			return false, false
		}
		fallthrough
	case BreakerHalfOpen:
		if b.probing+b.probeOKs < b.cfg.ProbeQuota {
			b.probing++
			return true, true
		}
		b.diverted++
		return false, false
	}
	return true, false
}

// Record reports a non-probe primary-path outcome: its latency and
// whether it failed for a reason that should count against the breaker
// (callers exclude client errors, shed load, and caller cancellation).
func (b *Breaker) Record(latency time.Duration, failed bool) {
	if b == nil {
		return
	}
	if b.loadState() != BreakerClosed {
		// An in-flight request from before a trip; its outcome no longer
		// describes the closed-state window.
		return
	}
	// Tumble: the first record after the window fills resets the counters.
	// A CAS loser retries only while the window still reads full, so the
	// samples never run more than one record per goroutine past Window.
	for v := b.winPacked.Load(); v&fieldMask >= uint64(b.cfg.Window); v = b.winPacked.Load() {
		if b.winPacked.CompareAndSwap(v, 0) {
			break
		}
	}
	delta := uint64(1)
	if failed {
		delta |= 1 << failureShift
	}
	if latency >= b.slowAt {
		delta |= 1 << slowShift
	}
	if b.tripping(b.winPacked.Add(delta)) {
		b.mu.Lock()
		// Re-verify under the lock: a concurrent trip or tumble may have
		// invalidated the lock-free read.
		if b.loadState() == BreakerClosed && b.tripping(b.winPacked.Load()) {
			b.tripLocked(false)
		}
		b.mu.Unlock()
	}
}

// tripping reports whether the packed window counts call for a trip: at
// least MinSamples outcomes, and either the failure fraction reaches
// ErrorRate or the nearest-rank p99 reaches LatencyP99. That p99 is the
// r-th smallest of the n latencies, r = ⌊0.99·(n+1)⌋, so it is slow exactly
// when fewer than r outcomes are fast: slow + r > n.
func (b *Breaker) tripping(v uint64) bool {
	n, f, s := v&fieldMask, v>>failureShift&fieldMask, v>>slowShift
	if n < uint64(b.cfg.MinSamples) {
		return false
	}
	return float64(f) >= b.cfg.ErrorRate*float64(n) || s+99*(n+1)/100 > n
}

// RecordProbe reports the outcome of a half-open probe admitted by Allow.
// Any failure reopens the breaker; ProbeQuota consecutive successes close
// it with a cleared window.
func (b *Breaker) RecordProbe(latency time.Duration, failed bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.loadState() != BreakerHalfOpen {
		return
	}
	b.probing--
	if failed {
		b.state.Store(int32(BreakerOpen))
		b.openedAt = b.now()
		b.trips++
		return
	}
	b.probeOKs++
	if b.probeOKs >= b.cfg.ProbeQuota {
		b.state.Store(int32(BreakerClosed))
		b.closes++
		b.winPacked.Store(0)
	}
}

// Trip forces the breaker open (operational kill switch).
func (b *Breaker) Trip() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.loadState() != BreakerOpen {
		b.tripLocked(false)
	}
}

func (b *Breaker) tripLocked(byAlarm bool) {
	b.state.Store(int32(BreakerOpen))
	b.openedAt = b.now()
	b.trips++
	if byAlarm {
		b.alarmTrips++
	}
	b.winPacked.Store(0)
}

// TracksLatency reports whether Record uses the latency argument (a
// latency trip is configured). Callers skip the clock reads around the
// primary path when it is false. Safe on nil.
func (b *Breaker) TracksLatency() bool {
	return b != nil && b.cfg.LatencyP99 > 0
}

// State reports the breaker's current state. Safe on nil (closed).
// Lock-free — readiness probes may call it on every request.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	return b.loadState()
}

// BreakerStats is a point-in-time snapshot of the breaker.
type BreakerStats struct {
	// State is the current state name: closed, open, or half-open.
	State string `json:"state"`
	// WindowSamples / WindowFailures / WindowSlow describe the
	// closed-state tumbling window right now: outcomes, failed outcomes,
	// and outcomes at or over LatencyP99 (always 0 without a latency trip).
	WindowSamples  int `json:"window_samples"`
	WindowFailures int `json:"window_failures"`
	WindowSlow     int `json:"window_slow"`
	// Trips counts transitions into the open state; AlarmTrips the subset
	// caused by the external alarm (drift monitor).
	Trips      uint64 `json:"trips"`
	AlarmTrips uint64 `json:"alarm_trips"`
	// Closes counts recoveries (half-open probe quota met).
	Closes uint64 `json:"closes"`
	// Diverted counts requests Allow sent to the fallback path.
	Diverted uint64 `json:"diverted"`
}

// Stats snapshots the breaker's counters. Safe on nil (zero value with
// state "closed").
func (b *Breaker) Stats() BreakerStats {
	if b == nil {
		return BreakerStats{State: BreakerClosed.String()}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	v := b.winPacked.Load()
	return BreakerStats{
		State:          b.loadState().String(),
		WindowSamples:  int(v & fieldMask),
		WindowFailures: int(v >> failureShift & fieldMask),
		WindowSlow:     int(v >> slowShift),
		Trips:          b.trips,
		AlarmTrips:     b.alarmTrips,
		Closes:         b.closes,
		Diverted:       b.diverted,
	}
}
