package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram(HistogramOpts{MinExp: 0, MaxExp: 4})
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {-3, 0}, {math.NaN(), 0}, {0.25, 0}, // at/below floor
		{1.0, 0},    // [1, 1.25)
		{1.3, 1},    // [1.25, 1.5)
		{2.0, 4},    // [2, 2.5)
		{15.99, 15}, // [14, 16)
		{16.0, 16},  // overflow bucket
		{1e300, 16}, // far overflow
	}
	for _, c := range cases {
		if got := h.bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bucket's lower bound must map into that bucket and its upper
	// bound into the next.
	for i := 0; i < len(h.counts)-1; i++ {
		lo := bucketEdge(h.opts.MinExp, i)
		if got := h.bucketIndex(lo); got != i {
			t.Fatalf("lower bound of bucket %d maps to %d", i, got)
		}
	}
}

func TestHistogramQuantileVsSortedReference(t *testing.T) {
	h := NewHistogram(DurationOpts)
	rng := rand.New(rand.NewSource(7))
	n := 20000
	vals := make([]float64, n)
	for i := range vals {
		// Log-normal-ish latencies centered near 10µs with a heavy tail.
		v := 10e-6 * math.Exp(rng.NormFloat64()*1.2)
		vals[i] = v
		h.Observe(v)
	}
	sort.Float64s(vals)
	snap := h.Snapshot()
	if snap.Total() != uint64(n) {
		t.Fatalf("total %d, want %d", snap.Total(), n)
	}
	// The worst-case bucket ratio is 1.25; allow a bit of slack for
	// interpolation at distribution ends.
	const tol = 1.26
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := snap.Quantile(q)
		ref := vals[int(q*float64(n-1))]
		if got > ref*tol || got < ref/tol {
			t.Errorf("q%.3f: histogram %.3g vs reference %.3g (ratio %.3f)",
				q, got, ref, got/ref)
		}
	}
	// ApproxSum within the per-bucket midpoint error of the true sum.
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if as := snap.ApproxSum(); as > sum*1.1 || as < sum/1.1 {
		t.Errorf("ApproxSum %.4g vs true %.4g", as, sum)
	}
}

// TestHistogramConcurrencyStorm hammers one histogram with concurrent
// Observe and Snapshot from many goroutines (run under -race): snapshot
// totals must be monotone, and the final counts exact.
func TestHistogramConcurrencyStorm(t *testing.T) {
	h := NewHistogram(DurationOpts)
	const (
		writers = 8
		perW    = 50000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snapErr atomic.Value
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				tot := h.Snapshot().Total()
				if tot < last {
					snapErr.Store("snapshot total went backwards")
					return
				}
				last = tot
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(seed int64) {
			defer ww.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perW; i++ {
				h.Observe(1e-6 * math.Exp(rng.NormFloat64()))
			}
		}(int64(w))
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if msg := snapErr.Load(); msg != nil {
		t.Fatal(msg)
	}
	if tot := h.Snapshot().Total(); tot != writers*perW {
		t.Fatalf("lost observations: total %d, want %d", tot, writers*perW)
	}
}

func TestHistogramMergeSub(t *testing.T) {
	a := NewHistogram(SizeOpts)
	b := NewHistogram(SizeOpts)
	for i := 0; i < 100; i++ {
		a.Observe(float64(i))
		b.Observe(float64(i * 3))
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	m := sa.Merge(sb)
	if m.Total() != 200 {
		t.Fatalf("merged total %d, want 200", m.Total())
	}
	if d := m.Sub(sb); d.Total() != sa.Total() {
		t.Fatalf("sub total %d, want %d", d.Total(), sa.Total())
	}
	// Merging with the empty snapshot is identity.
	if got := (HistSnapshot{}).Merge(sa).Total(); got != sa.Total() {
		t.Fatalf("empty-merge total %d", got)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if s := h.Snapshot(); s.Total() != 0 || s.Quantile(0.5) != 0 || s.Max() != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
}

func TestHistogramMaxAndOverflow(t *testing.T) {
	h := NewHistogram(HistogramOpts{MinExp: 0, MaxExp: 4})
	h.Observe(3)
	s := h.Snapshot()
	if m := s.Max(); m < 3 || m > 3.5 {
		t.Fatalf("Max %v for a lone 3", m)
	}
	h.Observe(1000) // above 2^4
	if m := h.Snapshot().Max(); !math.IsInf(m, 1) {
		t.Fatalf("Max %v, want +Inf after overflow", m)
	}
	if q := h.Snapshot().Quantile(1); q != 16 {
		t.Fatalf("overflow quantile %v, want ceiling 16", q)
	}
}
