// Command crndiag explains pool-based cardinality estimates: it builds a
// reduced experiment environment, evaluates Cnt2Crd(CRN) on the crd_test2
// workload, and for the worst-estimated queries prints the per-pool-entry
// contributions — estimated vs true x_rate and y_rate, the old query's
// cardinality, and the resulting per-entry estimate. Use it to attribute
// tail errors to specific containment predictions.
//
// Usage:
//
//	crndiag [-titles 2000] [-pairs 6000] [-worst 8] [-entries 5]
//
// With -kernels it instead prints the inner-loop kernel set package nn
// selected for this host ("avx2+fma" or "generic") and exits — used by
// the CI SIMD kernel gate to decide whether it applies.
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
	"os"
	"sort"
	"time"

	"crn/internal/card"
	"crn/internal/experiments"
	"crn/internal/metrics"
	"crn/internal/nn"
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
		e, err := est.EstimateCard(lq.Q)
		if err != nil {
			fail("estimate: %v", err)
		}
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
		for mi, m := range matches {
			if mi >= *entries {
				fmt.Printf("  ... %d more\n", len(matches)-mi)
				break
			}
			dumpEntry(env, lq.Q, m.Q, m.Card)
		}
	}
}

func dumpEntry(env *experiments.Env, qnew, qold query.Query, oldCard int64) {
	xHat, err := env.CRNRates.EstimateRate(qold, qnew)
	if err != nil {
		fail("rate: %v", err)
	}
	yHat, err := env.CRNRates.EstimateRate(qnew, qold)
	if err != nil {
		fail("rate: %v", err)
	}
	xTrue, err := env.Exec.ContainmentRate(qold, qnew)
	if err != nil {
		fail("truth: %v", err)
	}
	yTrue, err := env.Exec.ContainmentRate(qnew, qold)
	if err != nil {
		fail("truth: %v", err)
	}
	contrib := "skipped (y<=eps)"
	if yHat > card.DefaultEpsilon {
		contrib = fmt.Sprintf("%.1f", xHat/yHat*float64(oldCard))
	}
	fmt.Printf("    |Qold|=%-8d x̂=%.4f (true %.4f)  ŷ=%.4f (true %.4f)  -> %s\n",
		oldCard, xHat, xTrue, yHat, yTrue, contrib)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crndiag: "+format+"\n", args...)
	os.Exit(1)
}
