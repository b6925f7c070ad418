// Command repro regenerates the paper's evaluation: every table and figure
// (Tables 2-15, Figures 3-13) over the synthetic IMDb-like database.
//
// Usage:
//
//	repro [-scale tiny|small|full] [-exp all|table3|fig10|...] [-v] [-o results.txt]
//
// The -scale flag selects the environment size (the README's "Reproducing
// the paper" section documents how the Small scale maps to the paper's setup
// and which table or figure each experiment ID regenerates); -exp runs one
// experiment or the full suite; -list prints the IDs; -v streams
// build/training progress; -o additionally writes the rendered tables to a
// file.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"crn/internal/experiments"
)

func main() {
	scale := flag.String("scale", "small", "environment scale: tiny, small or full")
	exp := flag.String("exp", "all", "experiment id (see repro -list) or 'all'")
	verbose := flag.Bool("v", false, "stream build and training progress")
	out := flag.String("o", "", "also write rendered tables to this file")
	seed := flag.Int64("seed", 0, "override the environment seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.ExperimentIDs(), "\n"))
		return
	}

	var cfg experiments.Config
	switch *scale {
	case "tiny":
		cfg = experiments.TinyConfig()
	case "small":
		cfg = experiments.SmallConfig()
	case "full":
		cfg = experiments.FullConfig()
	default:
		fmt.Fprintf(os.Stderr, "repro: unknown scale %q (tiny|small|full)\n", *scale)
		os.Exit(2)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	var log experiments.Logf
	if *verbose {
		log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[%s] %s\n", time.Now().Format("15:04:05"), fmt.Sprintf(format, args...))
		}
	}

	env, err := experiments.Build(cfg, log)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: build environment: %v\n", err)
		os.Exit(1)
	}

	var results []experiments.Result
	if *exp == "all" {
		results, err = experiments.RunAll(env, log)
	} else {
		var r experiments.Result
		r, err = experiments.Run(env, *exp, log)
		results = []experiments.Result{r}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Reproduction run: scale=%s seed=%d db=%d titles, built in %v\n\n",
		*scale, cfg.Seed, cfg.DBTitles, env.BuildTime.Round(time.Second))
	for _, r := range results {
		b.WriteString(r.Table.Render())
		if r.Plot != "" {
			b.WriteString("\n")
			b.WriteString(r.Plot)
		}
		b.WriteString("\n")
	}
	fmt.Print(b.String())
	if *out != "" {
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "repro: write %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
}
