package online

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"crn/internal/metrics"
)

// TestDriftDropsNonFinite: a NaN or infinite q-error would poison every
// quantile, so it never enters the window.
func TestDriftDropsNonFinite(t *testing.T) {
	d := NewDriftMonitor(2, 8, 1)
	if d.Observe(math.NaN(), 10) || d.Observe(math.Inf(1), 10) {
		t.Fatal("non-finite observations must not trip")
	}
	d.Observe(20, 10)
	st := d.Stats().QError
	if st.Count != 1 || st.Total != 1 || st.AboveThreshold != 0 {
		t.Fatalf("window = %+v, want exactly the one finite q-error", st)
	}
	if len(d.Values()) != 1 {
		t.Fatalf("Values = %v", d.Values())
	}
}

// TestDriftConcurrentObserveStats runs Observe against Stats and Values
// readers (run under -race); the final window is exact however the
// goroutines interleave.
func TestDriftConcurrentObserveStats(t *testing.T) {
	d := NewDriftMonitor(4, 64, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d.Observe(float64(1+(g*200+i)%10), 1)
				if i%50 == 0 {
					_ = d.Stats()
					_ = d.Values()
				}
			}
		}(g)
	}
	wg.Wait()
	// 1600 observations are exactly 50 halves of 32: both halves full.
	if st := d.Stats().QError; st.Count != 64 || st.Total != 1600 {
		t.Fatalf("window = %+v, want count 64, total 1600", st)
	}
}

// TestDriftExactOneNeverTrips: perfect estimates score q-error exactly 1,
// which never exceeds a 1.05 threshold — even though the histogram's
// interpolated median of a window full of 1s reads above 1.05.
func TestDriftExactOneNeverTrips(t *testing.T) {
	d := NewDriftMonitor(1.05, 16, 1)
	for i := 0; i < 100; i++ {
		if d.Observe(100, 100) {
			t.Fatalf("observation %d: q-error 1 tripped a 1.05 threshold", i)
		}
	}
	st := d.Stats()
	if st.Drifted || st.QError.AboveThreshold != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.QError.P50 <= 1.05 {
		t.Fatalf("bucket-resolution p50 = %v; the case this test guards needs it above 1.05", st.QError.P50)
	}
}

// TestDriftOddWindowsMatchSortedMedian drives seeded random q-errors around
// the threshold (equality included) through the monitor and through a
// reference that keeps the same two tumbling halves as raw values. Whenever
// the windowed count is odd, the monitor is drifted exactly when the
// sort-based median exceeds the threshold; for even counts it is drifted
// exactly when strictly more than half exceed it.
func TestDriftOddWindowsMatchSortedMedian(t *testing.T) {
	const threshold = 3.0
	rng := rand.New(rand.NewSource(27))
	odd, oddDrifted := 0, 0
	for stream := 0; stream < 60; stream++ {
		window := 2 + rng.Intn(60)
		half := window / 2
		d := NewDriftMonitor(threshold, window, 1)
		pHigh := rng.Float64()
		var prev, cur []float64
		for i := 0; i < 3*window; i++ {
			q := 1 + rng.Float64()*(threshold-1)
			switch {
			case rng.Float64() < pHigh:
				q = threshold + rng.Float64()*10
			case rng.Intn(10) == 0:
				q = threshold // not above
			}
			d.Observe(q, 1) // estimate q against truth 1: q-error exactly q

			if len(cur) == half {
				prev, cur = cur, nil
			}
			cur = append(cur, q)
			win := append(slices.Clone(prev), cur...)
			slices.Sort(win)
			above := len(win) - sortSearchAbove(win, threshold)

			got := d.Drifted()
			if len(win)%2 == 1 {
				odd++
				want := metrics.Percentile(win, 50) > threshold
				if got != want {
					t.Fatalf("stream %d (window %d) obs %d: drifted=%v, sorted median %v vs %v (n=%d)",
						stream, window, i, got, metrics.Percentile(win, 50), threshold, len(win))
				}
				if got {
					oddDrifted++
				}
			} else if want := 2*above > len(win); got != want {
				t.Fatalf("stream %d (window %d) obs %d: drifted=%v, %d of %d above", stream, window, i, got, above, len(win))
			}
			if st := d.Stats().QError; st.Count != len(win) || st.AboveThreshold != above {
				t.Fatalf("stream %d obs %d: window %d/%d above, reference %d/%d",
					stream, i, st.AboveThreshold, st.Count, above, len(win))
			}
		}
	}
	if oddDrifted == 0 || oddDrifted == odd {
		t.Fatalf("%d of %d odd windows drifted: the streams never exercised both outcomes", oddDrifted, odd)
	}
}

// sortSearchAbove returns the index of the first value above threshold in
// an ascending slice.
func sortSearchAbove(sorted []float64, threshold float64) int {
	i, _ := slices.BinarySearchFunc(sorted, threshold, func(v, th float64) int {
		if v <= th {
			return -1
		}
		return 1
	})
	return i
}

// TestDriftRestoresRawValues: a checkpoint holding raw q-errors, oldest
// first, restores with exact counts — longer histories keep only what the
// tumbling halves would have kept — and the restored monitor keeps working.
func TestDriftRestoresRawValues(t *testing.T) {
	d := NewDriftMonitor(2, 8, 1)
	raw := []float64{9, 9, 9, 9, 9, 1, 1.5, 2, 2.5, 3, 1, 1}
	d.Restore(raw)
	st := d.Stats()
	// 12 values through halves of 4: the window is the last two halves,
	// [9 1 1.5 2] and [2.5 3 1 1], with 9, 2.5 and 3 above 2.
	if st.QError.Count != 8 || st.QError.Total != 12 || st.QError.AboveThreshold != 3 || st.Drifted {
		t.Fatalf("restored = %+v, want count 8 (two halves), total 12, 3 above 2", st)
	}
	// The next observation tumbles: [2.5 3 1 1] + [1] holds 2 of 5 above.
	if d.Observe(1, 1) {
		t.Fatal("2 of 5 above the threshold must not trip")
	}
	if st := d.Stats().QError; st.Count != 5 || st.Total != 13 || st.AboveThreshold != 2 {
		t.Fatalf("observe after restore tumbled wrongly: %+v", st)
	}
	if d.Observe(50, 1) || !d.Observe(50, 1) {
		t.Fatal("want a trip exactly at 4 of 7 above, not at 3 of 6")
	}
}

// TestDriftValuesRestorePreservesBuckets: Values → Restore reproduces both
// halves' bucket counts exactly (overflow bucket included), so a checkpoint
// round trip is lossless at the histogram's resolution.
func TestDriftValuesRestorePreservesBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := NewDriftMonitor(3, 40, 1)
	for i := 0; i < 57; i++ {
		src.Observe(math.Exp(rng.Float64()*16), 1) // 1 .. ~8.9e6, past the 2^20 ceiling
	}
	dst := NewDriftMonitor(3, 40, 1)
	dst.Restore(src.Values())
	for _, h := range []struct {
		name     string
		src, dst driftHalf
	}{{"prev", src.prev, dst.prev}, {"cur", src.cur, dst.cur}} {
		if h.src.n != h.dst.n || !slices.Equal(h.src.hist.Snapshot().Counts, h.dst.hist.Snapshot().Counts) {
			t.Fatalf("%s half: n %d→%d, buckets %v → %v", h.name, h.src.n, h.dst.n,
				h.src.hist.Snapshot().Counts, h.dst.hist.Snapshot().Counts)
		}
	}
	if !slices.Equal(src.Values(), dst.Values()) {
		t.Fatal("Values differ after a round trip")
	}
	a, b := src.Stats().QError, dst.Stats().QError
	if a.P50 != b.P50 || a.P90 != b.P90 || a.P99 != b.P99 || a.Max != b.Max || a.Mean != b.Mean || a.Count != b.Count {
		t.Fatalf("stats differ after a round trip: %+v vs %+v", a, b)
	}
	if math.IsInf(a.Max, 0) || a.Max != 1<<20 {
		t.Fatalf("overflowed window max = %v, want the 2^20 ceiling", a.Max)
	}
}
