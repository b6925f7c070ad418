// Command crndiag explains pool-based cardinality estimates: it builds a
// reduced experiment environment, evaluates Cnt2Crd(CRN) on the crd_test2
// workload, and for the worst-estimated queries prints the votes the
// estimator casts — per non-empty old query its cardinality, its query.Relate
// relation, the x_rate and y_rate the vote uses (fixed by the relation, else
// the CRN's) against the true ones, and the vote — and the bounds the answer
// is clamped into. Use it to attribute tail errors to specific containment
// predictions.
//
// Usage:
//
//	crndiag [-titles 2000] [-pairs 6000] [-worst 8] [-entries 5]
//
// With -kernels it instead prints the inner-loop kernel set package nn
// selected for this host ("avx512f+avx2+fma", "avx2+fma" or "generic") and
// exits — used by the CI SIMD kernel gate to decide whether it applies.
//
// With -watch it instead becomes a terminal dashboard over a running
// crnserve: it polls the server's /metrics exposition (-metrics URL) every
// -interval and renders QPS, per-stage latency quantiles, cache/index hit
// rates, breaker state, and the live per-arm q-error distributions. -n
// bounds the number of frames (0: poll forever):
//
//	crndiag -watch -metrics http://localhost:8080/metrics -interval 2s
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"crn/internal/card"
	"crn/internal/experiments"
	"crn/internal/metrics"
	"crn/internal/nn"
	"crn/internal/pool"
	"crn/internal/query"
)

func main() {
	titles := flag.Int("titles", 2000, "database size")
	pairs := flag.Int("pairs", 6000, "training pairs")
	epochs := flag.Int("epochs", 16, "CRN training epochs")
	worst := flag.Int("worst", 8, "how many worst queries to explain")
	entries := flag.Int("entries", 5, "pool entries to dump per query")
	kernels := flag.Bool("kernels", false, "print the selected nn kernel ISA and exit")
	watch := flag.Bool("watch", false, "poll a crnserve /metrics endpoint and render a terminal dashboard")
	metricsURL := flag.String("metrics", "http://localhost:8080/metrics", "metrics endpoint polled by -watch")
	interval := flag.Duration("interval", 2*time.Second, "poll interval of -watch")
	frames := flag.Int("n", 0, "frames to render before exiting under -watch (0: forever)")
	flag.Parse()

	if *kernels {
		fmt.Println(nn.KernelISA())
		return
	}
	if *watch {
		if err := watchLoop(*metricsURL, *interval, *frames, os.Stdout); err != nil {
			fail("watch: %v", err)
		}
		return
	}

	cfg := experiments.SmallConfig()
	cfg.DBTitles = *titles
	cfg.TrainPairs = *pairs
	cfg.CRN.Epochs = *epochs
	cfg.MSCN.Epochs = *epochs
	log := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	env, err := experiments.Build(cfg, log)
	if err != nil {
		fail("build: %v", err)
	}

	est := env.Cnt2CrdCRN()
	type scored struct {
		i    int
		qerr float64
		est  float64
	}
	var all []scored
	for i, lq := range env.CrdTest2 {
		e := must(est.EstimateCard(lq.Q))
		all = append(all, scored{i, metrics.CardQError(float64(lq.Card), e), e})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].qerr > all[b].qerr })

	for rank := 0; rank < *worst && rank < len(all); rank++ {
		s := all[rank]
		lq := env.CrdTest2[s.i]
		fmt.Printf("\n#%d q-error %s  true %d  est %.1f  joins %d\n  %s\n",
			rank+1, metrics.FormatQ(s.qerr), lq.Card, s.est, lq.Q.NumJoins(), lq.Q.SQL())
		matches := env.Pool.Matching(lq.Q)
		fmt.Printf("  pool matches: %d\n", len(matches))
		floor, ceil, shown := 0.0, math.Inf(1), 0
		for _, m := range matches {
			if m.Card <= 0 {
				continue // the estimator drops empty-result entries unread
			}
			rel := query.Relate(lq.Q, m.Q)
			if shown++; shown <= *entries {
				dumpEntry(env, lq.Q, m, rel)
			}
			if rel == query.Equivalent {
				floor, ceil = float64(m.Card), float64(m.Card) // answered exactly
				break
			}
			switch rel {
			case query.Subset:
				ceil = min(ceil, float64(m.Card))
			case query.Superset:
				floor = max(floor, float64(m.Card))
			}
		}
		fmt.Printf("  answer clamped into [%.0f, %.0f]\n", floor, ceil)
	}
}

// dumpEntry prints the vote old casts for qnew: none when they are disjoint
// (both rates 0) or equivalent (both 1: the entry answers exactly), else
// x/y·|Qold| with the rate the relation fixes at 1 and the other from the
// CRN, skipped when y ≤ ε.
func dumpEntry(env *experiments.Env, qnew query.Query, old pool.Entry, rel query.Relation) {
	xTrue := must(env.Exec.ContainmentRate(old.Q, qnew))
	yTrue := must(env.Exec.ContainmentRate(qnew, old.Q))
	x, y, vote := 1.0, 1.0, "no vote"
	switch rel {
	case query.Disjoint:
		x, y = 0, 0
	case query.Subset, query.Superset, query.Undecided:
		if rel != query.Superset {
			x = must(env.CRNRates.EstimateRate(old.Q, qnew))
		}
		if rel != query.Subset {
			y = must(env.CRNRates.EstimateRate(qnew, old.Q))
		}
		vote = "skipped (y<=eps)"
		if y > card.DefaultEpsilon {
			vote = fmt.Sprintf("%.1f", x/y*float64(old.Card))
		}
	}
	fmt.Printf("    |Qold|=%-8d %-10s x=%.4f (true %.4f)  y=%.4f (true %.4f)  -> %s\n",
		old.Card, rel, x, xTrue, y, yTrue, vote)
}

// must returns v, or exits with err.
func must(v float64, err error) float64 {
	if err != nil {
		fail("%v", err)
	}
	return v
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crndiag: "+format+"\n", args...)
	os.Exit(1)
}
