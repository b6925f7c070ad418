package crn

// Benchmarks for the production pool scenario of §5.2: the DBMS pools every
// executed query, so a FROM clause accumulates thousands of candidates and
// the Figure 8 loop — one CRN rate pair per candidate — makes per-estimate
// latency linear in pool size. BenchmarkEstimateCardinalityLargePool
// measures a single-query estimate against 1k/10k/50k entries on one FROM
// clause, full scan (k=0) vs signature-indexed top-64 selection. Compare
// with
//
//	go test -bench EstimateCardinalityLargePool -benchtime 5x
//
// ns/op is one single-query request; full/k=64 at a given size is the
// candidate-bound speedup, and k=64 across sizes shows the bounded path's
// latency staying flat as the pool grows. Every timed estimate asks a probe
// no estimator has seen, so it misses the estimate memo and runs selection
// and the rate pass; a recurring probe would time a memo lookup instead,
// and the benches fail if one is answered from the memo. Pool entries carry
// synthetic cardinalities (the arithmetic is identical; only accuracy would
// need true labels, and the accuracy gate lives in internal/experiments).

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"crn/internal/pool"
)

// largePoolSizes are the entries-per-FROM-key points of the bench grid.
var largePoolSizes = []int{1000, 10000, 50000}

type largePoolEnv struct {
	full  *CardinalityEstimator // unbounded scan
	topK  *CardinalityEstimator // MaxCandidates = 64, indexed selection
	noIdx *CardinalityEstimator // MaxCandidates = 64, pool.WithIndexedSelection(false)
	pool  *QueriesPool
}

var (
	largeMu   sync.Mutex
	largeEnvs = map[int]*largePoolEnv{}

	// freshProbeSeq numbers the probes freshProbes parses. The estimators
	// and their memos outlive one benchmark run, so a probe must not recur
	// across sub-benchmarks or -count repeats either.
	freshProbeSeq int
)

// freshProbes parses n probes on the "title" FROM clause that no estimator
// has answered before.
func freshProbes(b *testing.B, n int) []Query {
	b.Helper()
	probes := make([]Query, n)
	for i := range probes {
		freshProbeSeq++
		q, err := batchSys.ParseQuery(fmt.Sprintf(
			"SELECT * FROM title WHERE title.production_year > %d AND title.kind_id = %d",
			1900+freshProbeSeq, freshProbeSeq%7))
		if err != nil {
			b.Fatal(err)
		}
		probes[i] = q
	}
	return probes
}

// largePoolBenchEnv builds (once per size) a pool with n distinct entries
// on the "title" FROM clause over the shared trained system, plus full-scan
// and top-64 estimators warmed to cache steady state.
func largePoolBenchEnv(b *testing.B, n int) *largePoolEnv {
	b.Helper()
	batchBenchEnv(b) // shared system + trained model
	largeMu.Lock()
	defer largeMu.Unlock()
	if env := largeEnvs[n]; env != nil {
		return env
	}
	ctx := context.Background()
	sys, model := batchSys, batchModel

	p := sys.NewQueriesPool()
	// Deterministic distinct predicate combinations on title's non-key
	// columns; cardinalities are synthetic (1..9973).
	for i := 0; p.Len() < n; i++ {
		var sql string
		switch i % 3 {
		case 0:
			sql = fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", i)
		case 1:
			sql = fmt.Sprintf("SELECT * FROM title WHERE title.kind_id = %d AND title.season_nr < %d",
				i%7, i/7+2)
		default:
			sql = fmt.Sprintf("SELECT * FROM title WHERE title.episode_nr > %d AND title.production_year < %d",
				i, 1900+i%200)
		}
		q, err := sys.ParseQuery(sql)
		if err != nil {
			b.Fatal(err)
		}
		p.Add(q, int64(1+i%9973))
	}
	// Twin pool with the inverted index disabled: the PR 4 linear-scan
	// baseline, kept in the grid so the speedup is measured in-run.
	lin := rebuildPool(sys, p, pool.WithIndexedSelection(false))

	// Cache capacity above pool size so steady state measures the head
	// pass, not cache churn; fallback covers ε-guard misses on the
	// synthetic pool.
	base, err := sys.AnalyzeBaseline()
	if err != nil {
		b.Fatal(err)
	}
	env := &largePoolEnv{
		full: sys.CardinalityEstimator(model, p,
			WithFallback(base), WithRepCacheSize(2*n+1024)),
		topK: sys.CardinalityEstimator(model, p,
			WithFallback(base), WithRepCacheSize(2*n+1024), WithMaxCandidates(64)),
		noIdx: sys.CardinalityEstimator(model, lin,
			WithFallback(base), WithRepCacheSize(2*n+1024), WithMaxCandidates(64)),
		pool: p,
	}
	// Warm each estimator to resident steady state: three passes over the
	// same probes sight, promote and read the candidates they select.
	probes := freshProbes(b, 8)
	for _, est := range []*CardinalityEstimator{env.full, env.topK, env.noIdx} {
		for pass := 0; pass < 3; pass++ {
			for _, q := range probes {
				if _, err := est.EstimateCardinality(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	largeEnvs[n] = env
	return env
}

// BenchmarkEstimateCardinalityLargePool is the PR 4 acceptance benchmark
// extended for PR 8: per-request latency vs pool size — unbounded scan
// (full), indexed top-64 selection (k=64, the default path), and the same
// bound with the inverted index disabled (k=64-noindex, the PR 4 linear
// baseline). k=64 over k=64-noindex at a given size is the index speedup.
func BenchmarkEstimateCardinalityLargePool(b *testing.B) {
	for _, n := range largePoolSizes {
		for _, label := range []string{"full", "k=64", "k=64-noindex"} {
			b.Run(fmt.Sprintf("entries=%d/%s", n, label), func(b *testing.B) {
				env := largePoolBenchEnv(b, n)
				var est *CardinalityEstimator
				switch label {
				case "full":
					est = env.full
				case "k=64":
					est = env.topK
				default:
					est = env.noIdx
				}
				ctx := context.Background()
				probes := freshProbes(b, b.N)
				hits := est.CacheStats().EstimateHits
				b.ResetTimer()
				for _, q := range probes {
					if _, err := est.EstimateCardinality(ctx, q); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if est.CacheStats().EstimateHits != hits {
					b.Fatal("a timed probe was answered from the estimate memo")
				}
			})
		}
	}
}

// BenchmarkEstimateCardinalityLargePoolBatch measures an 8-probe batch of
// fresh probes against the 50k-entry pool with top-64 selection. ns/op is
// the whole batch.
func BenchmarkEstimateCardinalityLargePoolBatch(b *testing.B) {
	b.Run("entries=50000", func(b *testing.B) {
		env := largePoolBenchEnv(b, 50000)
		ctx := context.Background()
		batches := make([][]Query, b.N)
		for i := range batches {
			batches[i] = freshProbes(b, 8)
		}
		hits := env.topK.CacheStats().EstimateHits
		b.ResetTimer()
		for _, batch := range batches {
			if _, err := env.topK.EstimateCardinalityBatch(ctx, batch); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if env.topK.CacheStats().EstimateHits != hits {
			b.Fatal("a timed probe was answered from the estimate memo")
		}
	})
}
