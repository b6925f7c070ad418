package telemetry

import (
	"testing"
	"time"
)

// TestStageTimerPartition: consecutive marks partition the elapsed time —
// the recorded spans sum to the timer's total within clock resolution.
// Uses the unsampled constructor so every mark records deterministically.
func TestStageTimerPartition(t *testing.T) {
	tel := New()
	st := StartTimer()
	if !st.Armed() {
		t.Fatal("StartTimer must arm")
	}
	busy(200 * time.Microsecond)
	st.Mark(tel.Stages.Admission)
	busy(300 * time.Microsecond)
	st.Mark(tel.Stages.NNForward)
	total := st.Total()
	sum := time.Duration(0)
	for _, h := range []*Histogram{tel.Stages.Admission, tel.Stages.NNForward} {
		s := h.Snapshot()
		if s.Total() != 1 {
			t.Fatalf("stage histogram has %d observations, want 1", s.Total())
		}
		sum += time.Duration(s.ApproxSum() * 1e9)
	}
	// Bucket midpoints are within 12% per span; the partition property
	// itself (no gaps, no double count) is what matters.
	if sum > total*3/2 || sum < total/2 {
		t.Fatalf("stage sum %v vs total %v", sum, total)
	}
}

// TestStageTimerNesting: an inner component arming its own timer while
// the outer timer is mid-span must not double-count — the outer call
// Touches past the inner interval, so outer spans + inner spans still
// partition the wall time.
func TestStageTimerNesting(t *testing.T) {
	tel := New()
	outer := StartTimer()
	busy(100 * time.Microsecond)
	outer.Mark(tel.Stages.CandidateSelection)

	// Nested component with its own timer (the rate adapter inside a
	// pass).
	inner := StartTimer()
	busy(150 * time.Microsecond)
	inner.Mark(tel.Stages.CacheLookup)
	busy(150 * time.Microsecond)
	inner.Mark(tel.Stages.NNForward)

	outer.Touch() // exclude the nested interval from the outer spans
	busy(100 * time.Microsecond)
	outer.Mark(tel.Stages.Finalize)
	total := outer.Total()

	var sum time.Duration
	for _, h := range []*Histogram{
		tel.Stages.CandidateSelection, tel.Stages.CacheLookup,
		tel.Stages.NNForward, tel.Stages.Finalize,
	} {
		s := h.Snapshot()
		if s.Total() != 1 {
			t.Fatalf("stage has %d observations, want 1", s.Total())
		}
		sum += time.Duration(s.ApproxSum() * 1e9)
	}
	if sum > total*3/2 {
		t.Fatalf("nested spans double-counted: sum %v > total %v", sum, total)
	}
	if sum < total/2 {
		t.Fatalf("nested spans leave a gap: sum %v vs total %v", sum, total)
	}
}

// TestStageTimerDisabled: the zero timer records nothing and reads no
// clock-derived state.
func TestStageTimerDisabled(t *testing.T) {
	var tel *Telemetry
	st := tel.StartTimer()
	if st.Armed() {
		t.Fatal("nil bundle must yield a disarmed timer")
	}
	h := New().Stages.Admission
	st.Mark(h)
	st.Touch()
	if st.Total() != 0 {
		t.Fatal("disarmed timer reports nonzero total")
	}
	if h.Snapshot().Total() != 0 {
		t.Fatal("disarmed timer recorded an observation")
	}
	if tel.StageSet() != nil || tel.Registry() != nil {
		t.Fatal("nil bundle accessors must return nil")
	}
}

// TestStageTimerSampling: request timers from a live bundle always carry
// the e2e start, but only about one in SampleRate arms its stage marks — and
// a sampled mark lands with weight SampleRate, so stage counts estimate the
// full request population.
func TestStageTimerSampling(t *testing.T) {
	tel := New()
	const n = 64 * 1024
	sampled := 0
	for i := 0; i < n; i++ {
		st := tel.StartTimer()
		if !st.Armed() {
			t.Fatal("request timer from a live bundle must be armed for e2e")
		}
		st.Mark(tel.Stages.Admission)
		if st.Total() <= 0 {
			t.Fatal("armed timer must report a positive total")
		}
		if st.w != 0 {
			if st.w != SampleRate {
				t.Fatalf("sampled timer weight %d, want %d", st.w, SampleRate)
			}
			sampled++
		}
	}
	// Binomial(n, 1/SampleRate): mean 8192, sd ≈ 85; ±6 sd.
	if want := n / SampleRate; sampled < want-512 || sampled > want+512 {
		t.Fatalf("sampled %d of %d request timers, want %d ± 512", sampled, n, want)
	}
	if got := tel.Stages.Admission.Snapshot().Total(); got != uint64(sampled)*SampleRate {
		t.Fatalf("weighted admission count %d, want %d (%d samples × weight %d)",
			got, sampled*SampleRate, sampled, SampleRate)
	}
}

// TestStageSetSample: pass timers from StageSet.Sample follow the same
// 1-in-SampleRate sampling; unsampled passes come back disabled (no clock
// read, no recording), and a nil stage set is always disabled.
func TestStageSetSample(t *testing.T) {
	tel := New()
	const n = 64 * 1024
	armed := 0
	for i := 0; i < n; i++ {
		st := tel.Stages.Sample()
		st.Mark(tel.Stages.Finalize)
		if st.Armed() {
			armed++
		}
	}
	if want := n / SampleRate; armed < want-512 || armed > want+512 {
		t.Fatalf("armed %d of %d pass timers, want %d ± 512", armed, n, want)
	}
	if got := tel.Stages.Finalize.Snapshot().Total(); got != uint64(armed)*SampleRate {
		t.Fatalf("weighted finalize count %d, want %d", got, armed*SampleRate)
	}
	var nilSet *StageSet
	if st := nilSet.Sample(); st.Armed() {
		t.Fatal("nil stage set must yield a disabled timer")
	}
}

// TestSamplingUnbiasedOnPeriodicTraffic: the estimate path draws three
// sampling decisions per request (request timer, estimation pass, rate
// pass), and a workload can repeat with a short period — three cheap
// requests, then one 20× more expensive. The weighted stage sum must still
// estimate the true sum: a sampler whose decisions follow a shared counter
// lands the expensive pass's draw on the same residues every cycle and
// either never samples it or always does.
func TestSamplingUnbiasedOnPeriodicTraffic(t *testing.T) {
	const passes = 64 * 1024
	var truth, estimate float64
	for i := 0; i < passes; i++ {
		cost := 1.0
		if i%4 == 3 {
			cost = 20
		}
		SampleWeight() // request timer
		SampleWeight() // estimation pass
		truth += cost
		estimate += cost * float64(SampleWeight()) // rate pass: the costly span
	}
	if r := estimate / truth; r < 0.9 || r > 1.1 {
		t.Fatalf("weighted stage sum / true sum = %.3f, want within ±10%%", r)
	}
}

// busy spins for roughly d (sleep granularity is too coarse for span
// tests on some kernels).
func busy(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}
