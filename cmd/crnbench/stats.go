package main

import (
	"math"
	"sort"
)

// This file is the harness's statistics: order statistics over latency
// samples, the rule choosing the highest tail percentile a sample can
// support, and the median-plus-spread summary every reported value carries.

// Percentiles are whole permille throughout (p50 = 500, p99 = 990), so the
// percentile rule and the rank arithmetic are exact: 0.9 × 100 is not 90 in
// floating point.

// tailCandidates are the tail percentiles the harness may report, highest
// first.
var tailCandidates = []int{999, 990, 950, 900}

// supportedTail returns the highest candidate percentile, in permille, that
// has at least ten samples beyond it in a sample of size n (choosing-metrics
// §1), or 0 when even p90 has fewer — the caller then reports no tail.
func supportedTail(n int) int {
	for _, p := range tailCandidates {
		if n*(1000-p)/1000 >= 10 {
			return p
		}
	}
	return 0
}

// quantile returns the given permille of an ascending-sorted sample by
// nearest rank; 0 for an empty sample.
func quantile(sorted []float64, permille int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (permille*len(sorted) + 999) / 1000 // ceil
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// sortedCopy returns an ascending copy of vs.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of vs (mean of the two middle values for
// an even count); 0 for an empty sample.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// value is one reported number: the median of n repeated measurements
// (window slices, set-up repetitions or timing batches) with their relative
// spread (max−min)/median, so every figure states how steady it was.
type value struct {
	V      float64 `json:"value"`
	N      int     `json:"n"`
	Spread float64 `json:"spread"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// summarize collapses repeated measurements into a value.
func summarize(vs []float64) value {
	if len(vs) == 0 {
		return value{}
	}
	s := sortedCopy(vs)
	v := value{V: median(s), N: len(s), Min: s[0], Max: s[len(s)-1]}
	if v.V != 0 {
		v.Spread = (v.Max - v.Min) / math.Abs(v.V)
	}
	return v
}

// single wraps one measurement that was not repeated.
func single(v float64) value { return value{V: v, N: 1, Min: v, Max: v} }

// nsToUs converts a nanosecond sample to microseconds.
func nsToUs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}
