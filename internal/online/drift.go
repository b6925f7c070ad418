package online

import (
	"math"
	"sync"
	"sync/atomic"

	"crn/internal/metrics"
	"crn/internal/telemetry"
)

// DriftMonitor tracks the q-error of live estimates against arriving
// execution truths over a window of the most recent observations. When
// more than half the windowed q-errors exceed the threshold (with enough
// samples to mean something), the workload has drifted away from what the
// model was trained on, and the monitor trips — the adaptation loop uses the
// trip to retrain ahead of schedule.
//
// The window is two tumbling halves of DriftWindow/2 observations, so it
// always covers between the last N/2 and N observations. Each half keeps
// its q-errors in a telemetry histogram (what Stats and checkpoints read)
// plus two exact counts — observations, and observations above the
// threshold — which are all the trip needs: "more than half above T" is
// "median > T" for an odd count, with no sort and no stored samples.
type DriftMonitor struct {
	threshold  float64 // 0: observe-only, never trips
	minSamples int
	half       int // observations per tumbling half

	mu    sync.Mutex
	prev  driftHalf // the last full half; empty hist until one fills
	cur   driftHalf
	total uint64 // lifetime observations

	drifted atomic.Bool
	trips   atomic.Uint64
}

// driftHalf is one tumbling half of the drift window.
type driftHalf struct {
	hist  *telemetry.Histogram
	n     int
	above int // observations with q-error > threshold
}

func newDriftHalf() driftHalf {
	return driftHalf{hist: telemetry.NewHistogram(telemetry.QErrorOpts)}
}

// NewDriftMonitor creates a monitor over the last window/2..window
// observations that trips when more than half of them exceed threshold
// (threshold <= 0 observes without ever tripping). window <= 0 and
// minSamples <= 0 select the defaults; the sample floor is clamped to the
// window, which could otherwise never trip.
func NewDriftMonitor(threshold float64, window, minSamples int) *DriftMonitor {
	window = Config{DriftWindow: window}.withDefaults().DriftWindow
	if minSamples <= 0 {
		minSamples = driftMinSamples
	}
	return &DriftMonitor{
		threshold:  threshold,
		minSamples: min(minSamples, window),
		half:       max(window/2, 1),
		cur:        newDriftHalf(),
	}
}

// Observe records one (estimate, truth) observation and reports whether
// this observation TRIPPED the monitor — a transition into the drifted
// state, not the state itself. Edge-triggering matters: while a drifted
// window stays drifted, every feedback record would otherwise kick a full
// retrain cycle (sustained drift is instead handled by the trainer's
// scheduled retrains, and the monitor re-arms after a promotion resets
// the window or the window recovers). A non-finite q-error is dropped.
func (d *DriftMonitor) Observe(estimate, truth float64) bool {
	q := metrics.CardQError(truth, estimate)
	if math.IsNaN(q) || math.IsInf(q, 0) {
		return false
	}
	d.mu.Lock()
	d.addLocked(q)
	d.total++
	n, above := d.prev.n+d.cur.n, d.prev.above+d.cur.above
	d.mu.Unlock()
	if d.threshold <= 0 || n < d.minSamples {
		return false
	}
	if 2*above <= n {
		d.drifted.Store(false)
		return false
	}
	tripped := !d.drifted.Swap(true)
	if tripped {
		d.trips.Add(1)
	}
	return tripped
}

// addLocked accounts one finite q-error, tumbling first when the current
// half is full.
func (d *DriftMonitor) addLocked(q float64) {
	if d.cur.n == d.half {
		d.prev, d.cur = d.cur, newDriftHalf()
	}
	d.cur.hist.Observe(q)
	d.cur.n++
	if q > d.threshold {
		d.cur.above++
	}
}

// Drifted reports whether the last observation left the window drifted.
func (d *DriftMonitor) Drifted() bool { return d.drifted.Load() }

// Reset clears the window — called after a promotion, when the live model
// changed and the accumulated q-errors describe its predecessor.
func (d *DriftMonitor) Reset() {
	d.mu.Lock()
	d.prev, d.cur = driftHalf{}, newDriftHalf()
	d.mu.Unlock()
	d.drifted.Store(false)
}

// Values returns the windowed q-errors for checkpointing, older half
// first, each as its histogram bucket's lower edge once per count. Restore
// maps every edge back into its bucket, so a round trip reproduces the
// bucket counts exactly.
func (d *DriftMonitor) Values() []float64 {
	d.mu.Lock()
	halves := [2]telemetry.HistSnapshot{d.prev.hist.Snapshot(), d.cur.hist.Snapshot()}
	out := make([]float64, 0, d.prev.n+d.cur.n)
	d.mu.Unlock()
	for _, s := range halves {
		for i, c := range s.Counts {
			for ; c > 0; c-- {
				out = append(out, s.LowerBound(i))
			}
		}
	}
	return out
}

// Restore refills the window from checkpointed q-errors, oldest first —
// raw values and bucket edges alike — by replaying them through the
// tumbling halves. The drifted latch is left cleared: recovery replay
// re-observes nothing, and re-tripping from a restored-but-stale window
// would kick a retrain the moment the process boots.
func (d *DriftMonitor) Restore(vs []float64) {
	d.mu.Lock()
	d.prev, d.cur = driftHalf{}, newDriftHalf()
	for _, q := range vs {
		d.addLocked(q)
	}
	d.total = uint64(len(vs))
	d.mu.Unlock()
	d.drifted.Store(false)
}

// DriftStats is a point-in-time snapshot of drift monitoring.
type DriftStats struct {
	Threshold float64      `json:"threshold"` // 0: observe-only
	Drifted   bool         `json:"drifted"`
	Trips     uint64       `json:"trips"`
	QError    QErrorWindow `json:"q_error"`
}

// QErrorWindow summarizes the drift window. Count and AboveThreshold are
// exact; the quantiles, Max and Mean are read from the window's histogram
// buckets, so each is within one bucket ratio (≤1.25×) of the sample value.
// Zero values, not NaN, for an empty window.
type QErrorWindow struct {
	Count          int     `json:"count"` // observations currently windowed
	Total          uint64  `json:"total"` // lifetime observations
	AboveThreshold int     `json:"above_threshold"`
	P50            float64 `json:"p50"`
	P90            float64 `json:"p90"`
	P99            float64 `json:"p99"`
	Max            float64 `json:"max"`
	Mean           float64 `json:"mean"`
}

// Stats returns the drift state and the windowed q-error summary.
func (d *DriftMonitor) Stats() DriftStats {
	d.mu.Lock()
	snap := d.prev.hist.Snapshot().Merge(d.cur.hist.Snapshot())
	w := QErrorWindow{Count: d.prev.n + d.cur.n, Total: d.total, AboveThreshold: d.prev.above + d.cur.above}
	d.mu.Unlock()
	if w.Count > 0 {
		w.P50, w.P90, w.P99 = snap.Quantile(0.50), snap.Quantile(0.90), snap.Quantile(0.99)
		// The overflow bucket has no upper edge; report the ceiling.
		w.Max = min(snap.Max(), math.Ldexp(1, snap.Opts.MaxExp))
		w.Mean = snap.ApproxSum() / float64(w.Count)
	}
	return DriftStats{
		Threshold: d.threshold,
		Drifted:   d.drifted.Load(),
		Trips:     d.trips.Load(),
		QError:    w,
	}
}
