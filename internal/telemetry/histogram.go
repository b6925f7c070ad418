package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free log-bucketed histogram with four buckets per
// octave — boundaries at 2^e·{1, 1.25, 1.5, 1.75} — an average growth of
// 2^(1/4) per bucket (worst-case bucket ratio 1.25), so any quantile read
// from the bucket counts is within one bucket ratio of the true sample
// quantile — tight enough to tell a 2µs stage from a 3µs one — while
// Observe stays a single atomic add: the bucket index is computed from the
// raw float64 bit pattern (exponent plus the top two mantissa bits, which
// is exactly the linear-in-octave subdivision above), no branches on data,
// no locks, no allocation.
//
// Buckets span [2^MinExp, 2^MaxExp); values below the floor land in the
// first bucket (harmless for cumulative le-bucket exposition — a ≤-bound
// covers everything smaller), values at or above the ceiling land in a
// dedicated overflow bucket so finite bucket counts never lie.
type Histogram struct {
	counts []atomic.Uint64
	opts   HistogramOpts
}

// HistogramOpts fixes a histogram's bucket layout and unit.
type HistogramOpts struct {
	// MinExp and MaxExp bound the bucketed range [2^MinExp, 2^MaxExp).
	MinExp int
	MaxExp int
	// Seconds marks the histogram as recording durations in seconds; the
	// registry enforces the _seconds naming convention for these.
	Seconds bool
}

// Layout presets. Durations cover 60ns–16s, sizes/counts cover 1–16Mi,
// q-errors cover 1–1Mi; everything outside still lands in an edge bucket.
var (
	DurationOpts = HistogramOpts{MinExp: -24, MaxExp: 4, Seconds: true}
	SizeOpts     = HistogramOpts{MinExp: 0, MaxExp: 24}
	QErrorOpts   = HistogramOpts{MinExp: 0, MaxExp: 20}
)

// NewHistogram builds a histogram with the given layout. Histograms meant
// for /metrics are created through a Registry; one built here directly is
// private to its owner (the drift monitor's window halves).
func NewHistogram(o HistogramOpts) *Histogram {
	if o.MaxExp <= o.MinExp {
		panic("telemetry: histogram MaxExp must exceed MinExp")
	}
	n := 4 * (o.MaxExp - o.MinExp)
	return &Histogram{counts: make([]atomic.Uint64, n+1), opts: o}
}

// bucketIndex maps a value to its bucket: 4 buckets per power of two,
// sub-bucket chosen by the top two mantissa bits. Non-positive values and
// NaN map to bucket 0.
func (h *Histogram) bucketIndex(v float64) int {
	if !(v > 0) {
		return 0
	}
	bits := math.Float64bits(v)
	exp := int(bits>>52&0x7ff) - 1023 // denormals collapse to the floor bucket
	i := 4*(exp-h.opts.MinExp) + int(bits>>50&3)
	if i < 0 {
		return 0
	}
	if n := len(h.counts) - 1; i >= n {
		return n // overflow bucket: v >= 2^MaxExp
	}
	return i
}

// Observe records one value: a single atomic add on the value's bucket.
// Nil-safe, so disabled telemetry passes nil histograms around freely.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucketIndex(v)].Add(1)
}

// ObserveN records one value with weight n — the bucket count advances by
// n in a single atomic add. Weighted observations are how sampled stage
// timing stays unbiased: a span recorded for one pass in k carries weight
// k, so totals, sums and quantiles estimate the full population. Nil-safe;
// n = 0 records nothing.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	h.counts[h.bucketIndex(v)].Add(n)
}

// ObserveDuration records a duration in seconds. Nil-safe.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.counts[h.bucketIndex(d.Seconds())].Add(1)
}

// Snapshot returns a point-in-time copy of the bucket counts. Concurrent
// Observes tear at most by single increments (each bucket is read
// atomically), so totals are monotone across snapshots. Nil-safe: a nil
// histogram snapshots empty.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{Opts: h.opts, Counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistSnapshot is an immutable copy of a histogram's bucket counts.
// Snapshots of like-shaped histograms are mergeable (for cross-shard or
// cross-process aggregation) and subtractable (for windowed views).
type HistSnapshot struct {
	Opts   HistogramOpts
	Counts []uint64
}

// bucketEdge returns the exact lower edge of bucket i: 2^(minExp+i/4)
// scaled by 1 + (i%4)/4. bucketEdge(minExp, n) for n = 4·(MaxExp−MinExp)
// is the overflow threshold 2^MaxExp.
func bucketEdge(minExp, i int) float64 {
	return math.Ldexp(1+float64(i%4)/4, minExp+i/4)
}

// LowerBound returns bucket i's exact lower edge — a value that maps back
// into bucket i, so re-observing it reproduces the bucket count (the
// overflow bucket's edge is the ceiling 2^MaxExp).
func (s HistSnapshot) LowerBound(i int) float64 {
	return bucketEdge(s.Opts.MinExp, i)
}

// upperBound returns bucket i's upper edge; the overflow bucket reports
// +Inf.
func (s HistSnapshot) upperBound(i int) float64 {
	if i >= len(s.Counts)-1 {
		return math.Inf(1)
	}
	return bucketEdge(s.Opts.MinExp, i+1)
}

// Total returns the number of observations in the snapshot.
func (s HistSnapshot) Total() uint64 {
	var t uint64
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// ApproxSum estimates the sum of all observed values from geometric bucket
// midpoints (each bucket contributes count × √(lo·hi)); exact sums would
// cost a second atomic on the hot path, and every downstream use (averages,
// rate×mean) tolerates the ≤12% per-bucket midpoint error. Overflow-bucket
// values are counted at the ceiling, so the sum is a lower bound there.
func (s HistSnapshot) ApproxSum() float64 {
	var sum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		lo := bucketEdge(s.Opts.MinExp, i)
		mid := lo
		if i == len(s.Counts)-1 {
			mid = math.Ldexp(1, s.Opts.MaxExp)
		} else {
			mid = math.Sqrt(lo * bucketEdge(s.Opts.MinExp, i+1))
		}
		sum += float64(c) * mid
	}
	return sum
}

// Quantile estimates the q-quantile (q in [0,1]) by walking the cumulative
// counts and interpolating geometrically inside the crossing bucket. The
// estimate is within one bucket ratio (≤1.25×) of the true sample
// quantile. Returns 0 for an empty snapshot.
func (s HistSnapshot) Quantile(q float64) float64 {
	total := s.Total()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			if i == len(s.Counts)-1 {
				return math.Ldexp(1, s.Opts.MaxExp) // overflow: report the ceiling
			}
			lo := bucketEdge(s.Opts.MinExp, i)
			hi := bucketEdge(s.Opts.MinExp, i+1)
			frac := (rank - cum) / float64(c)
			return lo * math.Pow(hi/lo, frac)
		}
		cum = next
	}
	return math.Ldexp(1, s.Opts.MaxExp)
}

// Max returns the upper bound of the highest non-empty bucket (+Inf when
// the overflow bucket is populated), 0 when empty.
func (s HistSnapshot) Max() float64 {
	for i := len(s.Counts) - 1; i >= 0; i-- {
		if s.Counts[i] > 0 {
			return s.upperBound(i)
		}
	}
	return 0
}

// Merge returns the bucket-wise sum of two like-shaped snapshots. Merging
// with an empty snapshot returns the other unchanged; merging differently
// shaped snapshots panics (snapshots only ever come from histograms the
// caller created, so a mismatch is a programming error).
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	if len(s.Counts) == 0 {
		return o
	}
	if len(o.Counts) == 0 {
		return s
	}
	if s.Opts != o.Opts || len(s.Counts) != len(o.Counts) {
		panic("telemetry: merging differently shaped histogram snapshots")
	}
	out := HistSnapshot{Opts: s.Opts, Counts: make([]uint64, len(s.Counts))}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	return out
}

// Sub returns the bucket-wise difference s−o (clamped at zero), the
// windowed view between two snapshots of the same histogram.
func (s HistSnapshot) Sub(o HistSnapshot) HistSnapshot {
	if len(o.Counts) == 0 {
		return s
	}
	if len(s.Counts) == 0 || s.Opts != o.Opts || len(s.Counts) != len(o.Counts) {
		panic("telemetry: subtracting differently shaped histogram snapshots")
	}
	out := HistSnapshot{Opts: s.Opts, Counts: make([]uint64, len(s.Counts))}
	for i := range s.Counts {
		if s.Counts[i] > o.Counts[i] {
			out.Counts[i] = s.Counts[i] - o.Counts[i]
		}
	}
	return out
}
