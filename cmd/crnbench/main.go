// Command crnbench is the repo's benchmark: it drives real crnserve
// processes over loopback with four workloads, measures what a client sees
// on the socket, and — in a separate traced pass — times every layer from
// outside, so a performance claim can name the end-to-end number it moved
// and the ledger line that explains it.
//
//	go run ./cmd/crnbench -seed 1                 # all workloads + traced pass, ~6 min
//	go run ./cmd/crnbench -quick                  # tiny smoke of the same flow
//	go run ./cmd/crnbench -workload single_hot -seconds 10 -trace 0
//	go run ./cmd/crnbench -validate-only          # BENCHMARK.json ≡ catalogue
//	go run ./cmd/crnbench -compare base.json cand.json
//
// The driver form (see BENCHMARK.json) is
//
//	go run ./cmd/crnbench --workload W --seed N --seconds S --trace 0|1
//
// which runs one workload and prints, as the last line of standard output,
// {"correct":…,"attempted":…,"failed":…,"metrics":{…}}: every end-to-end
// metric with --trace 0, every per-layer metric with --trace 1. See
// README.md in this directory for the catalogue and how to read the output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// Trace modes of -trace.
const (
	traceBoth = -1 // end-to-end run, then traced pass and layer timings
	traceOff  = 0  // end-to-end metrics only
	traceOn   = 1  // per-layer metrics (needs a socket run for the scrapes)
)

// driverDeadline keeps a single-workload run inside the driver's 180 s cap.
const driverDeadline = 170 * time.Second

func main() {
	workload := flag.String("workload", "all", "workload to run: all, or one of single_hot, batch_scan, topk_pool, ingest_mix")
	seed := flag.Int64("seed", 1, "seed of the generated request streams (the only thing it moves)")
	seconds := flag.Float64("seconds", 30, "length of the measured window in seconds")
	trace := flag.Int("trace", traceBoth, "0: end-to-end metrics only; 1: per-layer metrics; -1: both")
	quick := flag.Bool("quick", false, "tiny database, model and pools and a 1 s window: a smoke of the whole flow")
	validateOnly := flag.Bool("validate-only", false, "check that BENCHMARK.json and the catalogue in the code agree; launch nothing")
	compareMode := flag.Bool("compare", false, "compare two report files: crnbench -compare BASE.json CAND.json")
	out := flag.String("out", "", "append this run's full report to a JSON file (the input of -compare)")
	flag.Parse()

	switch {
	case *validateOnly:
		os.Exit(runValidate())
	case *compareMode:
		os.Exit(runCompare(flag.Args()))
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "crnbench: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}

	sz := fullSizes
	if *quick {
		sz = quickSizes
		explicit := false
		flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "seconds" })
		if !explicit {
			*seconds = 1
		}
	}
	var selected []workloadSpec
	if *workload == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*workload); ok {
		selected = []workloadSpec{w}
	} else {
		fmt.Fprintf(os.Stderr, "crnbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if len(selected) == 1 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, driverDeadline)
		defer cancel()
	}
	// Whatever ends the run — interrupt, deadline, error — no child outlives
	// it: kill and reap every server before exiting.
	code := make(chan int, 1)
	go func() { code <- run(ctx, sz, *seed, *seconds, *trace, selected, *out) }()
	select {
	case c := <-code:
		killChildren()
		os.Exit(c)
	case <-ctx.Done():
		killChildren()
		fmt.Fprintf(os.Stderr, "crnbench: %v\n", ctx.Err())
		os.Exit(1)
	}
}

func runValidate() int {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "crnbench: %v\n", err)
		return 1
	}
	problems := validateCatalog(filepath.Join(root, "BENCHMARK.json"))
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "crnbench:", p)
	}
	if len(problems) > 0 {
		return 1
	}
	fmt.Printf("BENCHMARK.json and the catalogue agree: %d workloads, %d end-to-end metrics, %d per-layer metrics\n",
		len(workloads), len(endToEnd), len(perLayer))
	return 0
}

func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: crnbench -compare BASE.json CAND.json")
		return 2
	}
	base, err := readReport(args[0])
	if err == nil {
		var cand *report
		if cand, err = readReport(args[1]); err == nil {
			fmt.Printf("baseline %s: %d runs; candidate %s: %d runs\n", args[0], len(base.Runs), args[1], len(cand.Runs))
			if printVerdicts(os.Stdout, compare(base, cand)) > 0 {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(os.Stderr, "crnbench: %v\n", err)
	return 1
}

// run prepares once, runs the selected workloads, prints every metric by
// name, and returns the process exit code: 0 only if no request failed and
// every correctness check held.
func run(ctx context.Context, sz sizes, seed int64, seconds float64, trace int, selected []workloadSpec, outPath string) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "crnbench: %v\n", err)
		return 1
	}
	// The traced pass reports crn.train_s, so it trains even when a cached
	// model exists (and checks the two blobs are identical).
	p, err := prepare(ctx, sz, seed, trace != traceOff)
	if err != nil {
		return fail(err)
	}
	rep := &runReport{Seed: seed, Seconds: seconds, Sizes: sz, PrepS: p.prepS,
		Ledgers: map[string]*ledger{}, Info: map[string]string{}}
	fmt.Printf("crnbench seed=%d seconds=%g trace=%d constants=%+v\n", seed, seconds, trace, sz)
	fmt.Printf("preparation %.2fs (model training %.2fs; 0 = cached)\n", p.prepS, p.trainS)

	// The per-layer lines that need calls to overlap are taken now, while
	// the harness still has every CPU.
	layers := newRunResult(workloadSpec{Name: "layers"}, 0)
	if trace != traceOff {
		if err := parallelMetrics(ctx, layers, p); err != nil {
			return fail(fmt.Errorf("parallel layer timings: %w", err))
		}
	}

	// From here on the load generator and every server it launches share
	// one CPU (see "Pinning" in workloads.go); preparation used them all.
	if cpu, err := pinProcess(); err == nil {
		rep.Info["pinned_cpu"] = fmt.Sprint(cpu)
	} else {
		rep.Info["pinned_cpu"] = fmt.Sprintf("none (%v): expect wider run-to-run spread", err)
	}
	fmt.Printf("load generator and servers pinned to cpu: %s\n", rep.Info["pinned_cpu"])

	allOK := true
	for _, w := range selected {
		w = w.scaled(sz)
		if trace == traceOn || sz.PoolScale > 1 {
			w.Setups = 1 // setup_s is not reported (trace 1) or not meaningful (-quick)
		}
		res, err := runWorkload(ctx, p, w, seconds)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name, err))
		}
		if trace != traceOff {
			lg, path, err := tracedPass(ctx, res, p, w)
			if err != nil {
				return fail(fmt.Errorf("%s traced pass: %w", w.Name, err))
			}
			rep.Ledgers[w.Name] = lg
			if rel, err := filepath.Rel(p.root, path); err == nil {
				path = rel
			}
			res.Info["trace_file"] = path
		}
		rep.Workloads = append(rep.Workloads, res)
		printWorkload(res)
		if lg := rep.Ledgers[w.Name]; lg != nil {
			lg.print(os.Stdout, w.Name)
		}
		if _, failed := res.totals(); failed > 0 {
			allOK = false
		}
	}
	if trace != traceOff {
		if err := layerMetrics(ctx, layers, p); err != nil {
			return fail(fmt.Errorf("layer timings: %w", err))
		}
		rep.Layers = layers.Layer
		for k, v := range layers.Info {
			rep.Info[k] = v
		}
		fmt.Println("== layers (timed from outside, workload-independent)")
		printValues(rep.Layers, perLayer)
		for _, k := range slices.Sorted(maps.Keys(rep.Info)) {
			fmt.Printf("  info %-34s %s\n", k, rep.Info[k])
		}
	}
	if outPath != "" {
		if err := appendRun(outPath, rep); err != nil {
			return fail(err)
		}
	}
	if len(selected) == 1 {
		printResultLine(rep, trace)
	}
	if !allOK {
		return 1
	}
	return 0
}

// printValues prints the metrics of one map in catalogue order.
func printValues(vals map[string]value, specs []metricSpec) {
	for _, m := range specs {
		v, ok := vals[m.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-38s %14.4f %-6s n=%-6d spread=%.3f\n", m.Name, v.V, m.Unit, v.N, v.Spread)
	}
}

func printWorkload(res *runResult) {
	fmt.Printf("== %s (window %gs)\n", res.Workload, res.Seconds)
	printValues(res.E2E, endToEnd)
	attempted, failed := res.totals()
	fmt.Printf("  %-38s %14.6f %-6s n=%d\n", "failed_share", ratio(float64(failed), float64(attempted)), "ratio", attempted)
	for _, name := range slices.Sorted(maps.Keys(res.Phases)) {
		ph := res.Phases[name]
		fmt.Printf("  phase %-22s sent=%-7d succeeded=%-7d failed=%d\n", name, ph.Sent, ph.Succeeded, ph.Failed)
	}
	for _, f := range res.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	printValues(res.Layer, perLayer)
	for _, k := range slices.Sorted(maps.Keys(res.Info)) {
		fmt.Printf("  info %-34s %s\n", k, res.Info[k])
	}
}

// printResultLine prints the driver's result object as the last line of
// standard output: every end-to-end metric for -trace 0, every per-layer
// metric for -trace 1 (a line a workload does not define reads 0).
func printResultLine(rep *runReport, trace int) {
	res := rep.Workloads[0]
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	if trace == traceOn {
		for _, m := range perLayer {
			v, ok := res.Layer[m.Name]
			if !ok {
				v = rep.Layers[m.Name]
			}
			metrics[m.Name] = metric{v.V, m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = metric{res.E2E[m.Name].V, m.Unit}
		}
	}
	attempted, failed := res.totals()
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		panic(err) // numbers and strings always marshal
	}
	fmt.Println(string(line))
}
