// Command crngen generates labeled workloads over the synthetic database:
// containment-rate pair datasets (the paper's §3.1.2 three-step
// construction), cardinality query workloads (§6.1), and queries-pool
// contents (§6.2). Output is tab-separated SQL with labels, suitable for
// training or inspection.
//
// Usage:
//
//	crngen -kind pairs  -n 1000 -dist 0:400,1:300,2:300 > pairs.tsv
//	crngen -kind queries -n 450 -dist 0:150,1:150,2:150 > queries.tsv
//	crngen -kind pool   -n 300 > pool.tsv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"crn/internal/datagen"
	"crn/internal/exec"
	"crn/internal/query"
	"crn/internal/schema"
	"crn/internal/workload"
)

func main() {
	titles := flag.Int("titles", 4000, "synthetic database size (title rows)")
	dbSeed := flag.Int64("db-seed", 1, "database generation seed")
	genSeed := flag.Int64("seed", 42, "workload generation seed")
	kind := flag.String("kind", "pairs", "what to generate: pairs, queries or pool")
	n := flag.Int("n", 100, "number of pairs/queries")
	dist := flag.String("dist", "", "join distribution like 0:40,1:30,2:30 (default: uniform 0-2)")
	scaleGen := flag.Bool("scale-generator", false, "use the scale workload's generator (§6.1)")
	unlabeled := flag.Bool("unlabeled", false, "skip executing queries for labels")
	flag.Parse()

	dgCfg := datagen.DefaultConfig()
	dgCfg.Titles = *titles
	dgCfg.Seed = *dbSeed
	d, err := datagen.Generate(dgCfg)
	if err != nil {
		fail("generate database: %v", err)
	}
	ex, err := exec.New(d)
	if err != nil {
		fail("executor: %v", err)
	}
	s := schema.IMDB()
	var gen *workload.Generator
	if *scaleGen {
		gen = workload.NewScaleGenerator(s, d, *genSeed)
	} else {
		gen = workload.NewGenerator(s, d, *genSeed)
	}

	distMap, err := parseDist(*dist, *n)
	if err != nil {
		fail("parse -dist: %v", err)
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	switch *kind {
	case "pairs":
		pairs, err := gen.Pairs(distMap)
		if err != nil {
			fail("generate pairs: %v", err)
		}
		if *unlabeled {
			for _, p := range pairs {
				fmt.Fprintf(w, "%s\t%s\n", p.Q1.SQL(), p.Q2.SQL())
			}
			return
		}
		labeled, err := workload.LabelPairs(ex, pairs, 0)
		if err != nil {
			fail("label pairs: %v", err)
		}
		for _, lp := range labeled {
			fmt.Fprintf(w, "%s\t%s\t%.6f\n", lp.Q1.SQL(), lp.Q2.SQL(), lp.Rate)
		}
	case "queries":
		qs, err := gen.Queries(distMap)
		if err != nil {
			fail("generate queries: %v", err)
		}
		emitQueries(w, ex, qs, *unlabeled)
	case "pool":
		qs, err := gen.PoolQueries(*n)
		if err != nil {
			fail("generate pool: %v", err)
		}
		emitQueries(w, ex, qs, *unlabeled)
	default:
		fail("unknown -kind %q (pairs|queries|pool)", *kind)
	}
}

func emitQueries(w *bufio.Writer, ex *exec.Executor, qs []query.Query, unlabeled bool) {
	if unlabeled {
		for _, q := range qs {
			fmt.Fprintf(w, "%s\n", q.SQL())
		}
		return
	}
	labeled, err := workload.LabelQueries(ex, qs, 0)
	if err != nil {
		fail("label queries: %v", err)
	}
	for _, lq := range labeled {
		fmt.Fprintf(w, "%s\t%d\n", lq.Q.SQL(), lq.Card)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crngen: "+format+"\n", args...)
	os.Exit(1)
}

func parseDist(spec string, n int) (map[int]int, error) {
	if spec == "" {
		return workload.CntTest1Dist(n), nil
	}
	out := make(map[int]int)
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad entry %q", part)
		}
		j, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, err
		}
		c, err := strconv.Atoi(kv[1])
		if err != nil {
			return nil, err
		}
		out[j] = c
	}
	return out, nil
}
