// Package metrics implements the paper's evaluation protocol: the q-error
// metric (§3.2.4), percentile summaries in the layout of the paper's tables
// (50th/75th/90th/95th/99th/max/mean), the box statistics behind its plots
// (5th/25th/50th/75th/95th), and plain-text table rendering.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// QError is the ratio between an estimated and the actual value (or vice
// versa), the paper's error metric: q-error(y, ŷ) = max(ŷ/y, y/ŷ) ≥ 1.
// Non-positive inputs are clamped to `floor` first, so that empty results
// and zero estimates yield finite, comparable errors (the standard
// cardinality-estimation convention).
func QError(actual, estimate, floor float64) float64 {
	if floor <= 0 {
		floor = 1
	}
	a := math.Max(actual, floor)
	e := math.Max(estimate, floor)
	if e > a {
		return e / a
	}
	return a / e
}

// CardQError is QError with the cardinality floor of one row.
func CardQError(actual, estimate float64) float64 { return QError(actual, estimate, 1) }

// RateQError is QError for containment rates in [0,1]; rates are floored at
// RateFloor so that a 0%-contained pair estimated as 0 scores a perfect 1.
func RateQError(actual, estimate float64) float64 { return QError(actual, estimate, RateFloor) }

// RateFloor is the clamp applied to containment rates before computing
// q-errors. One part in a thousand distinguishes "essentially disjoint" from
// real containment at the workload sizes used here.
const RateFloor = 1e-3

// Summary is one row of the paper's error tables.
type Summary struct {
	P50, P75, P90, P95, P99, Max, Mean float64
	Count                              int
}

// Summarize computes the paper's percentile summary over a sample of
// q-errors. It returns the zero Summary for empty input.
func Summarize(errors []float64) Summary {
	if len(errors) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), errors...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return Summary{
		P50:   Percentile(sorted, 50),
		P75:   Percentile(sorted, 75),
		P90:   Percentile(sorted, 90),
		P95:   Percentile(sorted, 95),
		P99:   Percentile(sorted, 99),
		Max:   sorted[len(sorted)-1],
		Mean:  sum / float64(len(sorted)),
		Count: len(sorted),
	}
}

// Box holds the five statistics drawn by the paper's box plots: box
// boundaries at the 25th/75th percentiles, whiskers at the 5th/95th, and the
// median line (Figure 5 caption).
type Box struct {
	P5, P25, P50, P75, P95 float64
}

// BoxStats computes box-plot statistics over a sample of q-errors.
func BoxStats(errors []float64) Box {
	if len(errors) == 0 {
		return Box{}
	}
	sorted := append([]float64(nil), errors...)
	sort.Float64s(sorted)
	return Box{
		P5:  Percentile(sorted, 5),
		P25: Percentile(sorted, 25),
		P50: Percentile(sorted, 50),
		P75: Percentile(sorted, 75),
		P95: Percentile(sorted, 95),
	}
}

// Percentile returns the p'th percentile (0 ≤ p ≤ 100) of an ascending
// sorted sample using linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	return lerp(sorted[lo], sorted[hi], rank-float64(lo))
}

// lerp interpolates between two closest-rank values. The conversions round
// each product, so no platform fuses the expression differently for
// Percentile and Median.
func lerp(lo, hi, frac float64) float64 {
	return float64(lo*(1-frac)) + float64(hi*frac)
}

// Median returns the 50th percentile of an unsorted sample, which it does
// not modify: exactly Percentile(sorted, 50), in the order sort.Float64s
// sorts (NaNs first). It is the final function of every served estimate, so
// it selects the middle values instead of sorting, in a stack buffer for
// samples of up to 128 values — a FROM clause's worth of pool candidates.
func Median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	var buf [128]float64
	s := append(buf[:0], values...)
	mid := n / 2
	selectNth(s, mid)
	if n%2 == 1 {
		return s[mid]
	}
	// The lower middle value is the largest of the part below mid.
	lo := s[0]
	for _, v := range s[1:mid] {
		if floatLess(lo, v) {
			lo = v
		}
	}
	return lerp(lo, s[mid], 0.5)
}

// floatLess is sort.Float64s's order: ascending, NaNs first.
func floatLess(a, b float64) bool { return a < b || (a != a && b == b) }

// selectNth reorders s so that s[k] holds the value sort.Float64s would put
// there, with no larger value before it and no smaller one after it
// (quickselect with three-way partitioning, so runs of equal values cost
// one pass).
func selectNth(s []float64, k int) {
	lo, hi := 0, len(s)
	for hi-lo > 1 {
		// Median-of-three pivot.
		a, b, c := s[lo], s[lo+(hi-lo)/2], s[hi-1]
		if floatLess(b, a) {
			a, b = b, a
		}
		if floatLess(c, b) {
			b = c
			if floatLess(b, a) {
				b = a
			}
		}
		pivot := b
		// [lo,lt) < pivot, [lt,i) = pivot, [gt,hi) > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := s[i]; {
			case floatLess(v, pivot):
				s[lt], s[i] = v, s[lt]
				lt++
				i++
			case floatLess(pivot, v):
				gt--
				s[i], s[gt] = s[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// TrimmedMean removes `trim` fraction of the sample from each tail (e.g.
// 0.125 from each side for the paper's "without the 25% outliers") before
// averaging. Degenerate trims fall back to the plain mean.
func TrimmedMean(values []float64, trim float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	k := int(trim * float64(len(sorted)))
	if k*2 >= len(sorted) {
		return Mean(sorted)
	}
	return Mean(sorted[k : len(sorted)-k])
}

// Table is a named plain-text table with a header and formatted rows; the
// experiment harness emits one per paper table/figure.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteString("\n")
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad))
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// SummaryRow formats a Summary in the layout of the paper's tables:
// 50th 75th 90th 95th 99th max mean.
func SummaryRow(name string, s Summary) []string {
	return []string{
		name,
		FormatQ(s.P50), FormatQ(s.P75), FormatQ(s.P90), FormatQ(s.P95),
		FormatQ(s.P99), FormatQ(s.Max), FormatQ(s.Mean),
	}
}

// SummaryHeader is the header matching SummaryRow.
func SummaryHeader(label string) []string {
	return []string{label, "50th", "75th", "90th", "95th", "99th", "max", "mean"}
}

// FormatQ formats a q-error the way the paper prints them: two decimals for
// small values, whole numbers beyond 100.
func FormatQ(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
