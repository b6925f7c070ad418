package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestQErrorBasics(t *testing.T) {
	cases := []struct {
		actual, estimate, want float64
	}{
		{100, 100, 1},
		{100, 200, 2},
		{200, 100, 2},
		{1, 1000, 1000},
		{0, 0, 1},   // both clamped to floor
		{0, 10, 10}, // actual clamped to 1
		{10, 0, 10}, // estimate clamped to 1
	}
	for _, c := range cases {
		if got := CardQError(c.actual, c.estimate); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("CardQError(%v,%v) = %v, want %v", c.actual, c.estimate, got, c.want)
		}
	}
}

func TestQErrorAtLeastOneProperty(t *testing.T) {
	f := func(a, e float64) bool {
		a, e = math.Abs(a), math.Abs(e)
		q := CardQError(a, e)
		return q >= 1 || math.IsNaN(a) || math.IsNaN(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQErrorSymmetryProperty(t *testing.T) {
	f := func(a, e float64) bool {
		a, e = math.Abs(a)+1, math.Abs(e)+1
		if math.IsInf(a, 0) || math.IsInf(e, 0) {
			return true
		}
		return math.Abs(CardQError(a, e)-CardQError(e, a)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRateQErrorFloor(t *testing.T) {
	// Both essentially zero: perfect.
	if got := RateQError(0, 0); got != 1 {
		t.Errorf("RateQError(0,0) = %v", got)
	}
	// True rate 0, estimate 0.1 -> q-error 0.1/floor = 100.
	if got := RateQError(0, 0.1); math.Abs(got-100) > 1e-9 {
		t.Errorf("RateQError(0,0.1) = %v, want 100", got)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {10, 1.4}}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestSummarize(t *testing.T) {
	errs := make([]float64, 100)
	for i := range errs {
		errs[i] = float64(i + 1)
	}
	s := Summarize(errs)
	if s.Count != 100 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.Max != 100 {
		t.Errorf("Max = %v", s.Max)
	}
	if math.Abs(s.Mean-50.5) > 1e-9 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if s.P50 < 50 || s.P50 > 51 {
		t.Errorf("P50 = %v", s.P50)
	}
	if !(s.P50 <= s.P75 && s.P75 <= s.P90 && s.P90 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
		t.Errorf("percentiles not monotone: %+v", s)
	}
	empty := Summarize(nil)
	if empty.Count != 0 || empty.Mean != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	errs := []float64{5, 1, 3}
	Summarize(errs)
	if errs[0] != 5 || errs[1] != 1 || errs[2] != 3 {
		t.Error("Summarize mutated its input")
	}
}

func TestBoxStats(t *testing.T) {
	errs := make([]float64, 1000)
	for i := range errs {
		errs[i] = float64(i)
	}
	b := BoxStats(errs)
	if !(b.P5 <= b.P25 && b.P25 <= b.P50 && b.P50 <= b.P75 && b.P75 <= b.P95) {
		t.Errorf("box not monotone: %+v", b)
	}
	if math.Abs(b.P50-499.5) > 1 {
		t.Errorf("P50 = %v", b.P50)
	}
}

func TestMeanMedianTrimmed(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 100}
	if got := Mean(vals); math.Abs(got-22) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
	if got := Median(vals); got != 3 {
		t.Errorf("Median = %v", got)
	}
	// Trim 1 from each side: mean of {2,3,4} = 3.
	if got := TrimmedMean(vals, 0.2); math.Abs(got-3) > 1e-12 {
		t.Errorf("TrimmedMean = %v", got)
	}
	// Trimming 50% from each side of 5 values leaves only the median.
	if got := TrimmedMean(vals, 0.5); math.Abs(got-3) > 1e-12 {
		t.Errorf("TrimmedMean(0.5) = %v, want 3", got)
	}
	// Degenerate trims (nothing would remain) fall back to the plain mean.
	if got := TrimmedMean(vals, 0.6); math.Abs(got-22) > 1e-12 {
		t.Errorf("degenerate TrimmedMean = %v, want 22", got)
	}
	if Mean(nil) != 0 || TrimmedMean(nil, 0.1) != 0 {
		t.Error("empty aggregates should be 0")
	}
}

// TestMedianMatchesSortedPercentile pins Median's selection to its
// definition, sort.Float64s then Percentile(sorted, 50), bit for bit: random
// lengths 0..200 (past the 128-value stack buffer too) over a small value
// alphabet, so duplicates are common, with ±Inf, NaN and both zeros mixed
// in. Zeros compare by value: sort.Float64s does not order -0 and +0.
func TestMedianMatchesSortedPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	alphabet := []float64{math.Inf(-1), -3.5, -1, math.Copysign(0, -1), 0, 0.25, 1, 2, 7.75, 1e300, math.Inf(1), math.NaN()}
	for trial := 0; trial < 3000; trial++ {
		vals := make([]float64, rng.Intn(201))
		for i := range vals {
			if rng.Intn(2) == 0 {
				vals[i] = alphabet[rng.Intn(len(alphabet))]
			} else {
				vals[i] = rng.NormFloat64()
			}
		}
		in := append([]float64(nil), vals...)
		got := Median(vals)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		want := Percentile(sorted, 50)
		same := math.Float64bits(got) == math.Float64bits(want) || (got == 0 && want == 0)
		if !same {
			t.Fatalf("len %d: Median = %v (%x), sorted Percentile = %v (%x); sorted %v",
				len(vals), got, math.Float64bits(got), want, math.Float64bits(want), sorted)
		}
		for i := range in {
			if math.Float64bits(in[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("Median modified its input at %d", i)
			}
		}
	}
}

func TestTrimmedMeanRobustProperty(t *testing.T) {
	f := func(base []float64) bool {
		if len(base) < 8 {
			return true
		}
		vals := make([]float64, len(base))
		for i, v := range base {
			vals[i] = math.Mod(math.Abs(v), 100)
		}
		// An enormous outlier moves the mean but not the trimmed mean much.
		spiked := append(append([]float64(nil), vals...), 1e12)
		return TrimmedMean(spiked, 0.25) <= Mean(spiked)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "Table X: demo", Header: SummaryHeader("model")}
	tb.AddRow(SummaryRow("CRN", Summary{P50: 2.52, P75: 6.17, P90: 23.04, P95: 44.85, P99: 991, Max: 51873, Mean: 111})...)
	out := tb.Render()
	for _, want := range []string{"Table X: demo", "50th", "CRN", "2.52", "51873"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, rule, one row
		t.Errorf("render lines = %d, want 4:\n%s", len(lines), out)
	}
}

func TestRenderBoxes(t *testing.T) {
	names := []string{"PostgreSQL", "CRN"}
	boxes := []Box{
		{P5: 1, P25: 2, P50: 10, P75: 100, P95: 1000},
		{P5: 1, P25: 1.5, P50: 3, P75: 8, P95: 40},
	}
	out := RenderBoxes("demo", names, boxes, 60)
	if !strings.Contains(out, "PostgreSQL") || !strings.Contains(out, "CRN") {
		t.Fatalf("names missing:\n%s", out)
	}
	for _, marker := range []string{"[", "]", "|", "="} {
		if !strings.Contains(out, marker) {
			t.Errorf("marker %q missing:\n%s", marker, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title + 2 boxes + axis + labels
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
	// Degenerate inputs return empty.
	if RenderBoxes("x", []string{"a"}, nil, 60) != "" {
		t.Error("mismatched inputs should render empty")
	}
	if RenderBoxes("x", nil, nil, 60) != "" {
		t.Error("empty inputs should render empty")
	}
	// Tiny width is clamped, not panicking.
	if RenderBoxes("x", names, boxes, 1) == "" {
		t.Error("small width should still render")
	}
}

func TestFormatQ(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{1.234, "1.23"},
		{99.99, "99.99"},
		{100.4, "100"},
		{12345.6, "12346"},
		{math.Inf(1), "inf"},
	}
	for _, c := range cases {
		if got := FormatQ(c.v); got != c.want {
			t.Errorf("FormatQ(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}
