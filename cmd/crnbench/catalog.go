package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// This file is the benchmark's catalogue: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics with the
// layer they belong to and the end-to-end number each is predicted to move.
// BENCHMARK.json at the repo root repeats the names, units, directions and
// bounds for the driver; -validate-only proves the two agree.

// workloadSpec is one traffic mix and the deployment it runs against. The
// fields below Why become crnserve flags (serverFlags) and, identically, the
// facade options of the in-process rebuild (buildInproc).
type workloadSpec struct {
	Name          string
	Why           string
	Pool          int  // -pool: seeded queries-pool size
	PoolCap       int  // -pool-cap (0: unbounded)
	MaxCandidates int  // -max-candidates (0: full FROM-clause scan)
	Guarded       bool // admission gate, deadline wheel and breaker armed
	Durable       bool // -data-dir + WAL; has the write stream and a restart
	// Setups is how many fresh servers are launched and warmed for setup_s
	// (their median is reported; the last one serves the window).
	Setups int
}

// Workload names. Each is its own server launch, so every workload can run
// alone (the driver runs one per invocation).
const (
	wlSingleHot = "single_hot"
	wlBatchScan = "batch_scan"
	wlTopKPool  = "topk_pool"
	wlIngestMix = "ingest_mix"
)

var workloads = []workloadSpec{
	{
		Name: wlSingleHot,
		Why:  "one planner session asking for one hot sub-plan at a time: request path (HTTP, JSON, sqlparse, solo coalescer) dominates, NN gains show at a third",
		Pool: 300, Setups: 3,
	},
	{
		Name: wlBatchScan,
		Why:  "plan enumeration posting 64 hot probes per request, JSON and binary alternating: pair head and kernels dominate, request-path gains do not show",
		Pool: 300, Setups: 3,
	},
	{
		Name: wlTopKPool,
		Why:  "bounded top-K selection over a larger pool, 3 hot probes then 1 never-repeating cold probe: signature ranking plus the steady rep-cache miss path",
		// At this size selection is a tenth of the socket p50 and the 64-pair
		// head half of it (README, ledger); at a pool of 600 with K=8 selection
		// is 4% and every number sits within 5% of single_hot's. One set-up,
		// because one takes ~15 s: seeding 5000 entries, then the promotion
		// storm of warming a 5000-entry resident set.
		Pool: 5000, MaxCandidates: 32, Setups: 1,
	},
	{
		Name: wlIngestMix,
		Why:  "durable guarded deployment: paced 200/s feedback+record writes beside a closed estimate loop, so an ingest gain that costs estimates shows",
		// No -max-candidates here: bounded top-K selection is not stable
		// across a restart at this commit (a reloaded pool re-assigns entry
		// IDs in recency order, and ties in the ranking break by ID), so the
		// restart check could not hold. topk_pool covers bounded selection.
		Pool: 600, PoolCap: 600, Guarded: true, Durable: true, Setups: 3,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec declares one metric. Bound is set for end-to-end metrics (and
// for the ingest-only lines -compare also gates); Layer and Moves are set
// for per-layer metrics.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median the metric may worsen by
	// FixedSeedBound, when set, is the bound -compare applies instead of
	// Bound. Bound is what BENCHMARK.json declares, and the driver tests it
	// across seeds; -compare is run at one seed, where a metric that does not
	// depend on timing repeats exactly and can be held much tighter.
	FixedSeedBound float64
	Layer          string
	Moves          string // end-to-end metric @ workload this should move
	// Only restricts a metric to one workload; elsewhere it reports 0.
	Only string
}

// endToEnd are the metrics a client of the socket sees, reported for every
// workload. failed_share travels as the attempted/failed pair of the result
// line. Five more client-visible numbers are per-layer lines that keep a
// bound for -compare (see gated): the three ingest-only ones, because the
// driver contract wants every end-to-end metric defined and non-zero on
// every workload, and tail.est_p99_us and card.qerr_p90, because their
// run-to-run or seed-to-seed spread exceeds any bound the contract allows.
var endToEnd = []metricSpec{
	{Name: "est_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "est_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_query", Unit: "us", Better: "lower", Bound: 0.25},
	// The guard on every speed-for-accuracy trade, -max-candidates above all.
	// It repeats exactly at one seed, so -compare holds it to the issue's 2%.
	// BENCHMARK.json has to declare 20%: the driver takes ten runs at ten
	// seeds, and the median q-error of ten different evaluation sets spreads
	// 3–9% with no change to the code at all.
	{Name: "qerr_p50", Unit: "ratio", Better: "lower", Bound: 0.2, FixedSeedBound: 0.02},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer lists every per-layer metric. "scrape" in Moves' sibling comment
// means a delta over the measured window of the socket run; everything else
// comes from the in-process traced pass or a timing loop around the layer's
// exported functions.
var perLayer = []metricSpec{
	// crnserve: what the process adds around the estimator.
	{Name: "crnserve.http_overhead_us", Unit: "us", Better: "lower", Layer: "crnserve", Moves: "est_p50_us, cpu_us_per_query @ single_hot"},
	{Name: "crnserve.allocs_per_query", Unit: "count", Better: "lower", Layer: "crnserve", Moves: "est_p50_us, cpu_us_per_query @ single_hot"},
	{Name: "crnserve.alloc_bytes_per_query", Unit: "B", Better: "lower", Layer: "crnserve", Moves: "est_p99_us @ all; setup_s @ topk_pool"},
	{Name: "crnserve.gc_cycles_per_s", Unit: "1/s", Better: "lower", Layer: "crnserve", Moves: "est_p99_us @ all"},
	{Name: "crnserve.gc_pause_ms", Unit: "ms", Better: "lower", Layer: "crnserve", Moves: "est_p99_us @ all"},

	// wire: request and response codecs.
	{Name: "wire.json_single_decode_us", Unit: "us", Better: "lower", Layer: "wire", Moves: "est_p50_us @ single_hot"},
	{Name: "wire.json_batch_decode_us", Unit: "us", Better: "lower", Layer: "wire", Moves: "est_p50_us @ batch_scan (<=5%)"},
	{Name: "wire.binary_batch_decode_us", Unit: "us", Better: "lower", Layer: "wire", Moves: "est_p50_us @ batch_scan (<=5%)"},
	{Name: "wire.json_batch_encode_us", Unit: "us", Better: "lower", Layer: "wire", Moves: "est_p50_us @ batch_scan (<=5%)"},
	{Name: "wire.binary_batch_encode_us", Unit: "us", Better: "lower", Layer: "wire", Moves: "est_p50_us @ batch_scan (<=5%)"},
	{Name: "wire.json_batch_allocs", Unit: "count", Better: "lower", Layer: "wire", Moves: "cpu_us_per_query @ batch_scan"},
	{Name: "wire.binary_batch_allocs", Unit: "count", Better: "lower", Layer: "wire", Moves: "cpu_us_per_query @ batch_scan"},
	{Name: "wire.json_batch_e2e_p50_us", Unit: "us", Better: "lower", Layer: "wire", Moves: "est_p50_us @ batch_scan (per-codec split)"},
	{Name: "wire.binary_batch_e2e_p50_us", Unit: "us", Better: "lower", Layer: "wire", Moves: "est_p50_us @ batch_scan (per-codec split)"},

	// sqlparse
	{Name: "sqlparse.parse_us", Unit: "us", Better: "lower", Layer: "sqlparse", Moves: "est_p50_us @ single_hot; est_qps @ batch_scan (~7%)"},
	{Name: "sqlparse.parse_allocs", Unit: "count", Better: "lower", Layer: "sqlparse", Moves: "cpu_us_per_query @ single_hot"},

	// guard: armed on ingest_mix only.
	{Name: "guard.gate_ns", Unit: "ns", Better: "lower", Layer: "guard", Moves: "est_p50_us @ ingest_mix"},
	{Name: "guard.deadline_ctx_ns", Unit: "ns", Better: "lower", Layer: "guard", Moves: "est_p50_us @ ingest_mix"},
	{Name: "guard.breaker_ns", Unit: "ns", Better: "lower", Layer: "guard", Moves: "est_p50_us @ ingest_mix"},
	{Name: "guard.shed", Unit: "count", Better: "lower", Layer: "guard", Moves: "failed share @ ingest_mix"},

	// serve: the request coalescer.
	{Name: "serve.coalesce_solo_ns", Unit: "ns", Better: "lower", Layer: "serve", Moves: "est_p50_us @ single_hot"},
	{Name: "serve.coalesce_parallel_ns", Unit: "ns", Better: "lower", Layer: "serve", Moves: "none at one connection"},
	{Name: "serve.coalesce_avg_batch", Unit: "count", Better: "higher", Layer: "serve", Moves: "none at one connection"},
	{Name: "serve.solo_share", Unit: "ratio", Better: "higher", Layer: "serve", Moves: "est_p50_us @ single_hot"},

	// pool: candidate selection and maintenance.
	{Name: "pool.match_us", Unit: "us", Better: "lower", Layer: "pool", Moves: "est_p50_us @ single_hot"},
	{Name: "pool.topk_us", Unit: "us", Better: "lower", Layer: "pool", Moves: "est_p50_us @ topk_pool"},
	{Name: "pool.add_evict_us", Unit: "us", Better: "lower", Layer: "pool", Moves: "ingest.record_ack_p50_us @ ingest_mix"},
	{Name: "pool.scanned_per_selection", Unit: "count", Better: "lower", Layer: "pool", Moves: "est_p50_us @ topk_pool"},
	{Name: "pool.index_fallback_share", Unit: "ratio", Better: "lower", Layer: "pool", Moves: "est_p50_us @ topk_pool"},
	{Name: "pool.evictions", Unit: "count", Better: "lower", Layer: "pool", Moves: "ingest.record_ack_p50_us @ ingest_mix"},

	// feature
	{Name: "feature.encode_us", Unit: "us", Better: "lower", Layer: "feature", Moves: "est_p50_us @ topk_pool (cold quarter)"},

	// crn: containment-rate model, rep cache, training.
	{Name: "crn.rates_hit_us", Unit: "us", Better: "lower", Layer: "crn", Moves: "est_p50_us @ single_hot, topk_pool"},
	{Name: "crn.rates_miss_us", Unit: "us", Better: "lower", Layer: "crn", Moves: "est_p50_us @ topk_pool (cold quarter)"},
	{Name: "crn.setmodule_us_per_query", Unit: "us", Better: "lower", Layer: "crn", Moves: "est_p50_us, setup_s @ topk_pool"},
	{Name: "crn.pairhead_ns_per_pair", Unit: "ns", Better: "lower", Layer: "crn", Moves: "est_qps @ batch_scan"},
	{Name: "crn.rates_allocs", Unit: "count", Better: "lower", Layer: "crn", Moves: "cpu_us_per_query @ single_hot"},
	{Name: "crn.repcache_hit_share", Unit: "ratio", Better: "higher", Layer: "crn", Moves: "est_p50_us @ topk_pool"},
	{Name: "crn.repcache_resident", Unit: "count", Better: "higher", Layer: "crn", Moves: "rss_peak_mb @ topk_pool"},
	{Name: "crn.repcache_promote_count", Unit: "count", Better: "lower", Layer: "crn", Moves: "setup_s @ topk_pool"},
	{Name: "crn.repcache_promote_bytes_per_query", Unit: "B", Better: "lower", Layer: "crn", Moves: "setup_s @ topk_pool"},
	{Name: "crn.train_s", Unit: "s", Better: "lower", Layer: "crn", Moves: "none (preparation)"},

	// nn: kernels.
	{Name: "nn.matmul128_us", Unit: "us", Better: "lower", Layer: "nn", Moves: "crn.train_s; est_qps @ batch_scan"},
	{Name: "nn.axpy2_ns", Unit: "ns", Better: "lower", Layer: "nn", Moves: "est_qps @ batch_scan"},
	{Name: "nn.bias_relu_dot_ns", Unit: "ns", Better: "lower", Layer: "nn", Moves: "est_qps @ batch_scan"},

	// card: the Figure 8 algorithm around the rate model.
	{Name: "card.estimate_us", Unit: "us", Better: "lower", Layer: "card", Moves: "est_p50_us @ single_hot"},
	{Name: "card.estimate_batch64_us", Unit: "us", Better: "lower", Layer: "card", Moves: "est_qps @ batch_scan"},
	{Name: "card.self_us", Unit: "us", Better: "lower", Layer: "card", Moves: "est_qps @ batch_scan"},
	{Name: "card.pairs_per_query", Unit: "count", Better: "lower", Layer: "card", Moves: "est_qps @ batch_scan; qerr_* everywhere"},
	{Name: "card.fallback_share", Unit: "ratio", Better: "lower", Layer: "card", Moves: "qerr_* everywhere"},
	// The tail of the socket's q-error. It repeats exactly at one seed, so
	// -compare gates it at 2%; across seeds it swings by a third, which is
	// why it is not an end-to-end metric of the driver contract.
	{Name: "card.qerr_p90", Unit: "ratio", Better: "lower", Layer: "card", Bound: 0.02, Moves: "is the tail of qerr_p50 (every -max-candidates trade)"},

	// pg: the fallback baseline.
	{Name: "pg.estimate_us", Unit: "us", Better: "lower", Layer: "pg", Moves: "est_p50_us only where card.fallback_share > 0"},

	// facade: package crn.
	{Name: "facade.estimate_us", Unit: "us", Better: "lower", Layer: "facade", Moves: "est_p50_us @ single_hot"},
	{Name: "facade.batch64_us", Unit: "us", Better: "lower", Layer: "facade", Moves: "est_qps @ batch_scan"},
	{Name: "facade.estimate_allocs", Unit: "count", Better: "lower", Layer: "facade", Moves: "cpu_us_per_query @ single_hot"},
	{Name: "facade.overhead_us", Unit: "us", Better: "lower", Layer: "facade", Moves: "est_p50_us @ single_hot"},
	{Name: "facade.parallel_estimate_us", Unit: "us", Better: "lower", Layer: "facade", Moves: "none at one connection"},
	{Name: "facade.telemetry_overhead_share", Unit: "ratio", Better: "lower", Layer: "facade", Moves: "est_p50_us @ single_hot"},

	// online: feedback collection and retraining.
	{Name: "online.offer_us", Unit: "us", Better: "lower", Layer: "online", Moves: "ingest.fb_ack_p50_us @ ingest_mix"},
	{Name: "online.feedback_us", Unit: "us", Better: "lower", Layer: "online", Moves: "ingest.fb_ack_p50_us @ ingest_mix"},
	{Name: "online.retrain_cycle_ms", Unit: "ms", Better: "lower", Layer: "online", Moves: "none (retraining is off in ingest_mix)"},
	{Name: "online.accept_share", Unit: "ratio", Better: "higher", Layer: "online", Moves: "failed share @ ingest_mix"},

	// durable: WAL and checkpoints.
	{Name: "durable.wal_append_us", Unit: "us", Better: "lower", Layer: "durable", Moves: "ingest.fb_ack_p50_us @ ingest_mix"},
	{Name: "durable.wal_append_always_us", Unit: "us", Better: "lower", Layer: "durable", Moves: "none (interval sync is the served policy)"},
	{Name: "durable.wal_bytes_per_record", Unit: "B", Better: "lower", Layer: "durable", Moves: "ingest.restart_ready_s @ ingest_mix"},
	{Name: "durable.replay_records_per_s", Unit: "1/s", Better: "higher", Layer: "durable", Moves: "ingest.restart_ready_s @ ingest_mix"},
	{Name: "durable.checkpoint_ms", Unit: "ms", Better: "lower", Layer: "durable", Moves: "ingest.restart_ready_s @ ingest_mix"},
	{Name: "durable.fsyncs", Unit: "count", Better: "lower", Layer: "durable", Moves: "ingest.fb_ack_p50_us @ ingest_mix"},
	{Name: "durable.fsync_p99_ms", Unit: "ms", Better: "lower", Layer: "durable", Moves: "ingest.fb_ack_p50_us @ ingest_mix"},

	// exec: the exact executor behind /record.
	{Name: "exec.cardinality_us", Unit: "us", Better: "lower", Layer: "exec", Moves: "ingest.record_ack_p50_us @ ingest_mix"},
	{Name: "exec.cardinality_j0_us", Unit: "us", Better: "lower", Layer: "exec", Moves: "ingest.record_ack_p50_us @ ingest_mix"},
	{Name: "exec.cardinality_j1_us", Unit: "us", Better: "lower", Layer: "exec", Moves: "ingest.record_ack_p50_us @ ingest_mix"},
	{Name: "exec.cardinality_j2_us", Unit: "us", Better: "lower", Layer: "exec", Moves: "ingest.record_ack_p50_us @ ingest_mix"},

	// telemetry: does the server's own stage ledger close?
	{Name: "telemetry.stage_sum_share", Unit: "ratio", Better: "lower", Layer: "telemetry", Moves: "none (check that the stage spans partition the estimate)"},

	// ingest: what the writer connection sees (ingest_mix only). These three
	// carry bounds and are gated by -compare like end-to-end metrics.
	{Name: "ingest.fb_ack_p50_us", Unit: "us", Better: "lower", Layer: "ingest", Bound: 0.20, Only: wlIngestMix, Moves: "is an end-to-end number of ingest_mix"},
	{Name: "ingest.record_ack_p50_us", Unit: "us", Better: "lower", Layer: "ingest", Bound: 0.20, Only: wlIngestMix, Moves: "is an end-to-end number of ingest_mix"},
	{Name: "ingest.restart_ready_s", Unit: "s", Better: "lower", Layer: "ingest", Bound: 0.30, Only: wlIngestMix, Moves: "is an end-to-end number of ingest_mix"},

	// tail: the client-observed p99 of one estimation request. On the sandbox
	// its run-to-run spread (IQR/median 0.27–0.33 on three workloads) exceeds
	// any bound the driver contract allows, so it is a per-layer line; -compare
	// still gates it at 25% and answers "unresolved" when the runs overlap.
	{Name: "tail.est_p99_us", Unit: "us", Better: "lower", Layer: "tail", Bound: 0.25, Moves: "is an end-to-end number (GC, promotion and scheduling stalls land here)"},

	// ledger: what the decomposition of socket p50 leaves unexplained.
	{Name: "ledger.residual_us", Unit: "us", Better: "lower", Layer: "ledger", Moves: "none (socket p50 minus every attributed line)"},

	// environment (not compared).
	{Name: "env.nproc", Unit: "count", Better: "higher", Layer: "env", Moves: "none"},
	{Name: "env.sleep_overshoot_p50_us", Unit: "us", Better: "lower", Layer: "env", Moves: "none (why the writer is paced, not spun)"},
	{Name: "env.gen_late_p50_us", Unit: "us", Better: "lower", Layer: "env", Only: wlIngestMix, Moves: "none (open-loop generator lateness)"},
	{Name: "env.gen_late_p99_us", Unit: "us", Better: "lower", Layer: "env", Only: wlIngestMix, Moves: "none (open-loop generator lateness)"},
	{Name: "trace.span_overhead_ns", Unit: "ns", Better: "lower", Layer: "env", Moves: "none (cost of one harness span)"},
}

// gated returns every metric -compare applies a bound to, with that bound in
// Bound: the end-to-end metrics (at their fixed-seed bound where they have
// one) plus the bounded per-layer lines.
func gated() []metricSpec {
	var out []metricSpec
	for _, m := range endToEnd {
		if m.FixedSeedBound > 0 {
			m.Bound = m.FixedSeedBound
		}
		out = append(out, m)
	}
	for _, m := range perLayer {
		if m.Bound > 0 {
			out = append(out, m)
		}
	}
	return out
}

// --- BENCHMARK.json ----------------------------------------------------------

// benchmarkFile mirrors BENCHMARK.json's exact key set.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Contract limits on BENCHMARK.json.
const (
	maxWorkloads = 8
	maxEndToEnd  = 16
	maxPerLayer  = 128
	maxBound     = 0.25 // end-to-end bounds (the driver's limit)
	maxGated     = 0.30 // bounds of per-layer lines only -compare gates
)

// validateCatalog checks the code's own catalogue, then — when path names a
// file — that BENCHMARK.json declares exactly the same workloads and
// metrics. It launches nothing. Every problem is returned, not just the
// first.
func validateCatalog(path string) []string {
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			bad("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			bad("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > maxWorkloads {
		bad("%d workloads, want 2..%d", n, maxWorkloads)
	}
	if n := len(endToEnd); n < 1 || n > maxEndToEnd {
		bad("%d end-to-end metrics, want 1..%d", n, maxEndToEnd)
	}
	if n := len(perLayer); n < 1 || n > maxPerLayer {
		bad("%d per-layer metrics, want 1..%d", n, maxPerLayer)
	}
	for _, w := range workloads {
		checkName("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			bad("workload %s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	checkMetric := func(kind string, m metricSpec) {
		checkName(kind, m.Name)
		if !unitRE.MatchString(m.Unit) {
			bad("%s %s: unit %q does not match %s", kind, m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			bad("%s %s: better is %q, want lower or higher", kind, m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > maxGated || m.FixedSeedBound < 0 || m.FixedSeedBound > m.Bound {
			bad("%s %s: bounds %g / %g (fixed seed) out of range", kind, m.Name, m.Bound, m.FixedSeedBound)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		checkMetric("end-to-end metric", m)
		if m.Bound <= 0 || m.Bound > maxBound {
			bad("end-to-end metric %s: bound %g, want (0, %g]", m.Name, m.Bound, maxBound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		bad(`end-to-end metrics lack setup_s with unit "s" and better "lower"`)
	}
	for _, m := range perLayer {
		checkMetric("per-layer metric", m)
		if m.Layer == "" || m.Moves == "" {
			bad("per-layer metric %s: needs a layer and the metric/workload it should move", m.Name)
		}
		if m.Only != "" {
			if _, ok := workloadByName(m.Only); !ok {
				bad("per-layer metric %s: restricted to unknown workload %q", m.Name, m.Only)
			}
		}
	}
	if path == "" {
		return problems
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		bad("read %s: %v", path, err)
		return problems
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		bad("parse %s: %v", path, err)
		return problems
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		bad("%s: run_seconds %d out of 1..60", path, bf.RunSeconds)
	}
	fileW := map[string]string{}
	for _, w := range bf.Workloads {
		fileW[w.Name] = w.Why
	}
	codeW := map[string]string{}
	for _, w := range workloads {
		codeW[w.Name] = w.Why
	}
	diffKeys("workload", path, codeW, fileW, bad)

	fileE, codeE := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		fileE[m.Name] = fmt.Sprintf("%s %s %g", m.Unit, m.Better, m.Bound)
	}
	for _, m := range endToEnd {
		codeE[m.Name] = fmt.Sprintf("%s %s %g", m.Unit, m.Better, m.Bound)
	}
	diffKeys("end-to-end metric", path, codeE, fileE, bad)

	fileL, codeL := map[string]string{}, map[string]string{}
	for _, m := range bf.PerLayer {
		fileL[m.Name] = m.Unit + " " + m.Better
	}
	for _, m := range perLayer {
		codeL[m.Name] = m.Unit + " " + m.Better
	}
	diffKeys("per-layer metric", path, codeL, fileL, bad)
	return problems
}

// diffKeys reports names present on one side only and names whose
// attributes differ.
func diffKeys(kind, path string, code, file map[string]string, bad func(string, ...any)) {
	names := map[string]bool{}
	for n := range code {
		names[n] = true
	}
	for n := range file {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		c, inCode := code[n]
		f, inFile := file[n]
		switch {
		case !inFile:
			bad("%s %s is in the code but not in %s", kind, n, path)
		case !inCode:
			bad("%s %s is in %s but not in the code", kind, n, path)
		case c != f:
			bad("%s %s: code says %q, %s says %q", kind, n, c, path, f)
		}
	}
}
