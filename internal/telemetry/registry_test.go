package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter %d, want 5", c.Load())
	}
	var nc *Counter
	nc.Inc()
	if nc.Load() != 0 {
		t.Fatal("nil instruments must be inert")
	}
}

func TestRegistryNamingEnforcement(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, "counter without _total", func() { r.Counter("bad_name", "h") })
	mustPanic(t, "invalid name", func() { r.GaugeFunc("1bad", "h", func() float64 { return 0 }) })
	mustPanic(t, "seconds histogram without _seconds", func() {
		r.Histogram("lat_total_ms", "h", DurationOpts)
	})
	r.Counter("dup_total", "h")
	mustPanic(t, "duplicate family", func() { r.Counter("dup_total", "h") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

// TestLabelCardinalityBound: past MaxSeriesPerFamily distinct label
// values, With returns the shared overflow series and the dropped-series
// counter increments — a label fed from unbounded input cannot grow the
// registry without bound.
func TestLabelCardinalityBound(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("lbl_total", "h", "key")
	for i := 0; i < MaxSeriesPerFamily+10; i++ {
		vec.With(fmt.Sprintf("v%d", i)).Inc()
	}
	if got := r.droppedSeries.Load(); got != 10 {
		t.Fatalf("dropped %d, want 10", got)
	}
	over := vec.With(overflowLabel)
	if over.Load() != 10 {
		t.Fatalf("overflow series %d, want 10", over.Load())
	}
	// Existing values still resolve to their own series.
	if vec.With("v0").Load() != 1 {
		t.Fatal("pre-bound series lost")
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "lbl_total{"); n != MaxSeriesPerFamily+1 {
		t.Fatalf("exposed %d series, want %d", n, MaxSeriesPerFamily+1)
	}
	// Same bound applies to histogram vecs.
	hv := r.HistogramVec("hl", "h", "key", SizeOpts)
	for i := 0; i < MaxSeriesPerFamily+5; i++ {
		hv.With(fmt.Sprintf("v%d", i)).Observe(1)
	}
	if hv.With(overflowLabel).Snapshot().Total() != 5 {
		t.Fatal("histogram overflow series missing observations")
	}
}

func TestCollectorFamilies(t *testing.T) {
	r := NewRegistry()
	var admitted, shed uint64 = 41, 1
	r.CollectCounter("gate_requests_total", "h", "result", func(e Emit) {
		e(float64(admitted), "admitted")
		e(float64(shed), "shed")
	})
	r.GaugeFunc("inflight", "h", func() float64 { return 3 })
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`gate_requests_total{result="admitted"} 41`,
		`gate_requests_total{result="shed"} 1`,
		"inflight 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	admitted = 100
	buf.Reset()
	r.WriteText(&buf)
	if !strings.Contains(buf.String(), `{result="admitted"} 100`) {
		t.Fatal("collector not re-read at gather time")
	}
}

// TestExpositionLintClean: everything the writer emits must pass the
// linter — valid line syntax, no duplicate series, naming conventions,
// coherent cumulative histograms.
func TestExpositionLintClean(t *testing.T) {
	tel := New()
	// Populate everything.
	tel.ReqOK.Inc()
	tel.E2E.Observe(3e-6)
	tel.BatchE2E.Observe(1e-4)
	tel.Stages.Admission.Observe(1e-7)
	tel.Stages.NNForward.Observe(2e-6)
	tel.CoalesceBatch.Observe(17)
	tel.TopKScanned.Observe(120)
	tel.WALFsync.Observe(2e-3)
	tel.Accuracy.Note("q1", 1, 100, ArmCRN)
	tel.Accuracy.Truth("q1", 1, 150)
	tel.Registry().GaugeFunc("breaker_state", "h", func() float64 { return 1 })
	var buf bytes.Buffer
	if err := tel.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if problems := Lint(bytes.NewReader(buf.Bytes())); len(problems) != 0 {
		t.Fatalf("lint problems: %v\nexposition:\n%s", problems, buf.String())
	}
}

func TestParseRoundTrip(t *testing.T) {
	tel := New()
	for i := 0; i < 1000; i++ {
		tel.E2E.Observe(5e-6)
		tel.ReqOK.Inc()
	}
	var buf bytes.Buffer
	if err := tel.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	req := fams["crn_estimate_requests_total"]
	if v, ok := req.Sample("outcome", OutcomeOK); !ok || v != 1000 {
		t.Fatalf("parsed ok counter %v %v", v, ok)
	}
	h := fams["crn_estimate_duration_seconds"].Hist("", "")
	if h == nil || h.Count != 1000 {
		t.Fatalf("parsed histogram missing or wrong count: %+v", h)
	}
	// The 5µs spike must come back near 5µs through exposition + parse.
	if q := h.Quantile(0.5); q < 2e-6 || q > 1e-5 {
		t.Fatalf("round-trip p50 %v, want ≈5µs", q)
	}
}

func TestLintCatchesProblems(t *testing.T) {
	bad := strings.Join([]string{
		`# TYPE dup counter`, // counter not ending _total
		`dup 1`,
		`dup 2`,           // duplicate series
		`no_type_money 3`, // sample without TYPE
	}, "\n")
	problems := Lint(strings.NewReader(bad))
	if len(problems) < 3 {
		t.Fatalf("lint found %d problems, want ≥3: %v", len(problems), problems)
	}
}
