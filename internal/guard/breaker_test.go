package guard

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// sortedP99 is the reference the breaker's counted latency trip must agree
// with: the nearest-rank p99 of the window, read off a sorted copy.
func sortedP99(lat []time.Duration) time.Duration {
	s := slices.Clone(lat)
	slices.Sort(s)
	idx := (len(s)*99 + 99) / 100
	if idx > len(s) {
		idx = len(s)
	}
	return s[idx-1]
}

// TestBreakerMatchesSortedOracle drives seeded random outcome streams —
// latencies straddling the threshold (equality included), failures mixed
// in, windows of 1..300 and varied MinSamples — through the breaker and
// through a tumbling-window oracle that sorts every window, and requires
// the same trip at the same record, with matching window counts throughout.
// After each trip both sides recover into a fresh window and the stream
// continues.
func TestBreakerMatchesSortedOracle(t *testing.T) {
	const threshold = 10 * time.Millisecond
	rng := rand.New(rand.NewSource(27))
	trips, latencyTrips := 0, 0
	for stream := 0; stream < 240; stream++ {
		cfg := BreakerConfig{
			Window:     1 + rng.Intn(300),
			ErrorRate:  0.2 + 0.8*rng.Float64(),
			LatencyP99: threshold,
			Cooldown:   time.Minute,
			ProbeQuota: 1,
		}
		switch rng.Intn(4) {
		case 0: // default: Window/4
		case 1:
			cfg.MinSamples = 1
		case 2:
			cfg.MinSamples = 1 + rng.Intn(cfg.Window)
		case 3:
			cfg.MinSamples = cfg.Window + 1 // never reachable
		}
		if stream%8 == 0 {
			cfg.LatencyP99 = 0 // latency trip off: slow outcomes never count
		}
		pSlow := []float64{0, 0.002, 0.01, 0.03, 0.2}[rng.Intn(5)]
		pFail := []float64{0, 0, 0.05, 0.3, 0.7}[rng.Intn(5)]

		b := NewBreaker(cfg)
		clock := time.Unix(1000, 0)
		b.now = func() time.Time { return clock }
		eff := b.cfg // defaults applied

		var win []time.Duration
		fails, slow := 0, 0
		for i := 0; i < 2*eff.Window+40; i++ {
			lat := threshold - time.Duration(1+rng.Intn(int(threshold/2)))
			if rng.Float64() < pSlow {
				lat = threshold + time.Duration(rng.Intn(int(threshold)))
			}
			if rng.Intn(50) == 0 {
				lat = threshold // the boundary itself counts as slow
			}
			failed := rng.Float64() < pFail

			if len(win) == eff.Window {
				win, fails, slow = win[:0], 0, 0
			}
			win = append(win, lat)
			if failed {
				fails++
			}
			if eff.LatencyP99 > 0 && lat >= eff.LatencyP99 {
				slow++
			}
			n := len(win)
			errTrip := float64(fails) >= eff.ErrorRate*float64(n)
			latTrip := eff.LatencyP99 > 0 && sortedP99(win) >= eff.LatencyP99
			want := n >= eff.MinSamples && (errTrip || latTrip)

			b.Record(lat, failed)
			if got := b.State() == BreakerOpen; got != want {
				t.Fatalf("stream %d (cfg %+v) record %d: open=%v, oracle %v (n=%d fails=%d slow=%d p99=%v)",
					stream, eff, i, got, want, n, fails, slow, sortedP99(win))
			}
			if !want {
				st := b.Stats()
				if st.WindowSamples != n || st.WindowFailures != fails || st.WindowSlow != slow {
					t.Fatalf("stream %d record %d: window %d/%d/%d, oracle %d/%d/%d",
						stream, i, st.WindowSamples, st.WindowFailures, st.WindowSlow, n, fails, slow)
				}
				continue
			}
			trips++
			if latTrip && !errTrip {
				latencyTrips++
			}
			// Recover: cooldown, one successful probe, fresh window.
			clock = clock.Add(2 * eff.Cooldown)
			if ok, probe := b.Allow(); !ok || !probe {
				t.Fatalf("stream %d: want a half-open probe after cooldown", stream)
			}
			b.RecordProbe(0, false)
			if st := b.Stats(); st.State != "closed" || st.WindowSamples != 0 {
				t.Fatalf("stream %d: recovery left %+v", stream, st)
			}
			win, fails, slow = win[:0], 0, 0
		}
	}
	// The streams must actually exercise both trips, or agreement is vacuous.
	if trips < 50 || latencyTrips < 20 {
		t.Fatalf("streams tripped %d times (%d latency-only): too few to compare", trips, latencyTrips)
	}
}

// TestBreakerConcurrentAccounting hammers Record from many goroutines (run
// under -race): with a window that never tumbles or trips, the packed
// counters must account every outcome exactly; with a small tumbling window
// and concurrent Stats readers, every snapshot must stay self-consistent.
func TestBreakerConcurrentAccounting(t *testing.T) {
	const goroutines, perG = 8, 4000
	const threshold = time.Millisecond
	storm := func(b *Breaker, read func()) {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					lat := threshold / 2
					if i%7 == 0 {
						lat = threshold
					}
					if ok, _ := b.Allow(); ok {
						b.Record(lat, i%5 == 0)
					}
					if read != nil && i%64 == 0 {
						read()
					}
				}
			}(g)
		}
		wg.Wait()
	}

	exact := NewBreaker(BreakerConfig{Window: maxWindow, MinSamples: maxWindow + 1, LatencyP99: threshold})
	storm(exact, nil)
	st := exact.Stats()
	wantFails := goroutines * ((perG + 4) / 5)
	wantSlow := goroutines * ((perG + 6) / 7)
	if st.WindowSamples != goroutines*perG || st.WindowFailures != wantFails || st.WindowSlow != wantSlow {
		t.Fatalf("window %d/%d/%d, want %d/%d/%d", st.WindowSamples, st.WindowFailures, st.WindowSlow,
			goroutines*perG, wantFails, wantSlow)
	}

	// A window tumbles with at most one in-flight record per goroutine past
	// it, so MinSamples just beyond that bound is never reached.
	const window = 64
	tumbling := NewBreaker(BreakerConfig{Window: window, MinSamples: window + goroutines, LatencyP99: threshold})
	check := func() {
		st := tumbling.Stats()
		if st.WindowFailures > st.WindowSamples || st.WindowSlow > st.WindowSamples ||
			st.WindowSamples >= window+goroutines {
			t.Errorf("inconsistent window snapshot: %+v", st)
		}
	}
	storm(tumbling, check)
	check()
	if st := tumbling.Stats(); st.State != "closed" || st.Trips != 0 {
		t.Fatalf("unreachable MinSamples must never trip: %+v", st)
	}

	// A failing storm trips exactly once and stays open.
	failing := NewBreaker(BreakerConfig{Window: window, ErrorRate: 0.5, LatencyP99: threshold, Cooldown: time.Hour})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG/8; i++ {
				if ok, _ := failing.Allow(); ok {
					failing.Record(threshold, true)
				}
			}
		}()
	}
	wg.Wait()
	if st := failing.Stats(); st.State != "open" || st.Trips != 1 {
		t.Fatalf("failing storm: %+v", st)
	}
}
