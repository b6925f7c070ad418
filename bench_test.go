package crn

// The benchmark harness regenerates every table and figure of the paper's
// evaluation: BenchmarkPaper/<id> runs one artifact of the declared table in
// internal/experiments (`go run ./cmd/repro -list` prints the IDs; the
// README's "Reproducing the paper" section maps them to the paper). All
// benchmarks share one trained environment, built lazily on first use at
// BenchConfig scale; each iteration re-runs its experiment's predictions from
// scratch, so ns/op reflects honest end-to-end evaluation cost. Headline
// q-errors are attached as custom benchmark metrics.
//
// Run a single experiment with e.g.
//
//	go test -run '^$' -bench 'BenchmarkPaper/table7$' -benchtime 1x
//
// and the whole suite with `go test -run '^$' -bench BenchmarkPaper -benchtime 1x`.

import (
	"strconv"
	"sync"
	"testing"

	"crn/internal/experiments"
	"crn/internal/metrics"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		// BenchConfig keeps the full suite to minutes; the headline
		// reproduction numbers come from `cmd/repro -scale small`.
		benchEnv, benchErr = experiments.Build(experiments.BenchConfig(), nil)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// BenchmarkPaper executes one experiment per iteration and reports its
// headline metrics (the mean and median q-error of the last table row,
// which by construction is the paper's proposed model).
func BenchmarkPaper(b *testing.B) {
	env := benchEnvironment(b)
	for _, id := range experiments.ExperimentIDs() {
		b.Run(id, func(b *testing.B) {
			var last experiments.Result
			for i := 0; i < b.N; i++ {
				r, err := experiments.Run(env, id, nil)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.StopTimer()
			reportHeadline(b, last)
		})
	}
}

// reportHeadline attaches the final row's summary columns as custom metrics
// when they parse as numbers (the error tables all do).
func reportHeadline(b *testing.B, r experiments.Result) {
	if len(r.Table.Rows) == 0 {
		return
	}
	row := r.Table.Rows[len(r.Table.Rows)-1]
	if len(row) >= 8 { // model, 50th, ..., max, mean layout
		if v, err := strconv.ParseFloat(row[1], 64); err == nil {
			b.ReportMetric(v, "q50")
		}
		if v, err := strconv.ParseFloat(row[7], 64); err == nil {
			b.ReportMetric(v, "qmean")
		}
	}
}

// BenchmarkContainmentPrediction measures the paper's §3.5.2 single-pair
// prediction latency.
func BenchmarkContainmentPrediction(b *testing.B) {
	env := benchEnvironment(b)
	pairs := env.ValPairs
	if len(pairs) == 0 {
		b.Skip("no validation pairs")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp := pairs[i%len(pairs)]
		if _, err := env.CRNRates.EstimateRate(lp.Q1, lp.Q2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCnt2CrdPrediction measures end-to-end pool-based cardinality
// estimation latency for a single query (§7.4).
func BenchmarkCnt2CrdPrediction(b *testing.B) {
	env := benchEnvironment(b)
	est := env.Cnt2CrdCRN()
	queries := env.CrdTest2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lq := queries[i%len(queries)]
		if _, err := est.EstimateCard(lq.Q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrueCardinality measures the exact executor, the ground-truth
// substrate every label depends on.
func BenchmarkTrueCardinality(b *testing.B) {
	env := benchEnvironment(b)
	queries := env.CrdTest2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lq := queries[i%len(queries)]
		if _, err := env.Exec.Cardinality(lq.Q); err != nil {
			b.Fatal(err)
		}
	}
}

// Sanity guard: percentile plumbing used by every benchmark table.
func BenchmarkSummarize(b *testing.B) {
	errs := make([]float64, 1200)
	for i := range errs {
		errs[i] = 1 + float64(i%97)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = metrics.Summarize(errs)
	}
}
