package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crn"
	"crn/internal/telemetry"
)

func TestSupportedTail(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {99, 0}, {100, 900}, {199, 900}, {200, 950}, {999, 950},
		{1000, 990}, {9999, 990}, {10000, 999}, {1 << 20, 999},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		permille int
		want     float64
	}{{500, 50}, {900, 90}, {990, 99}, {999, 100}, {1000, 100}, {0, 1}} {
		if got := quantile(s, tc.permille); got != tc.want {
			t.Errorf("quantile(1..100, %d) = %v, want %v", tc.permille, got, tc.want)
		}
	}
	// Exactly ten samples lie beyond the supported tail of 100 samples.
	if beyond := 100 - int(quantile(s, supportedTail(100))); beyond != 10 {
		t.Errorf("%d samples beyond the supported tail, want 10", beyond)
	}
	if quantile(nil, 500) != 0 {
		t.Error("quantile of an empty sample is not 0")
	}
}

func TestSummarize(t *testing.T) {
	v := summarize([]float64{12, 10, 11})
	if v.V != 11 || v.N != 3 || v.Min != 10 || v.Max != 12 {
		t.Fatalf("summarize = %+v", v)
	}
	if want := 2.0 / 11; v.Spread != want {
		t.Errorf("spread = %v, want (max-min)/median = %v", v.Spread, want)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// quickPrepared opens the tiny database and draws the request streams of one
// seed, without training a model or building the server.
func quickPrepared(t *testing.T, seed int64) (*prepared, *plan) {
	t.Helper()
	ctx := context.Background()
	sys, err := crn.OpenSynthetic(ctx, crn.WithTitles(quickSizes.Titles), crn.WithDataSeed(quickSizes.DBSeed))
	if err != nil {
		t.Fatal(err)
	}
	p := &prepared{sz: quickSizes, seed: seed, sys: sys}
	if err := p.generateProbes(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.generateCold(300); err != nil {
		t.Fatal(err)
	}
	initial := sys.NewQueriesPool()
	if err := sys.SeedPool(ctx, initial, 40, quickSizes.PoolSeed); err != nil {
		t.Fatal(err)
	}
	if err := p.generateWrites(ctx, 40, initial); err != nil {
		t.Fatal(err)
	}
	for _, w := range p.writes {
		if initial.Contains(w.Q) {
			t.Fatalf("write %q is in the initial pool", w.SQL)
		}
	}
	batch, _ := workloadByName(wlBatchScan)
	return p, buildPlan(p, batch)
}

// planBytes concatenates every request a plan would send.
func planBytes(pl *plan) []byte {
	var b bytes.Buffer
	for _, set := range [][][]byte{pl.single, pl.cold, pl.fb, pl.rec} {
		for _, r := range set {
			b.Write(r)
		}
	}
	for _, br := range pl.batches {
		b.Write(br.json)
		b.Write(br.bin)
	}
	return b.Bytes()
}

func TestSeedDeterminesRequests(t *testing.T) {
	p1, pl1 := quickPrepared(t, 1)
	_, pl1again := quickPrepared(t, 1)
	_, pl2 := quickPrepared(t, 2)
	a, b, c := planBytes(pl1), planBytes(pl1again), planBytes(pl2)
	if len(a) == 0 || len(pl1.batches) == 0 {
		t.Fatal("empty plan")
	}
	if !bytes.Equal(a, b) {
		t.Error("the same seed rendered different request bytes")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds rendered identical request bytes")
	}
	// No query appears in two streams, and none twice in one.
	seen := map[string]string{}
	claim := func(stream, key string) {
		if prev, dup := seen[key]; dup {
			t.Errorf("%s query also drawn by %s: %s", stream, prev, key)
		}
		seen[key] = stream
	}
	for _, pr := range p1.hot {
		claim("hot", pr.Q.Key())
	}
	for _, pr := range p1.eval {
		claim("eval", pr.Q.Key())
	}
	for _, pr := range p1.cold {
		claim("cold", pr.Q.Key())
	}
	// Requests are real HTTP: SQL operators travel unescaped.
	if !bytes.HasPrefix(pl1.single[0], []byte("POST /estimate HTTP/1.1\r\nHost: crnbench\r\n")) {
		t.Errorf("unexpected request head: %q", pl1.single[0][:60])
	}
	if bytes.Contains(a, []byte(`\u003c`)) || bytes.Contains(a, []byte(`\u003e`)) {
		t.Error("request bodies HTML-escape SQL comparison operators")
	}
}

func TestDescribeSequences(t *testing.T) {
	topk, _ := workloadByName(wlTopKPool)
	// Three hot probes then one cold probe; hot indices advance without gaps
	// and cold indices never repeat.
	var hot, cold []int
	for i := 0; i < 16; i++ {
		d := describe(topk, i, 1000, 0)
		if (i%4 == 3) != (d.kind == reqCold) {
			t.Fatalf("request %d: kind %v", i, d.kind)
		}
		if d.kind == reqCold {
			cold = append(cold, d.idx)
		} else {
			hot = append(hot, d.idx)
		}
	}
	for k, h := range hot {
		if h != k {
			t.Fatalf("hot indices %v are not consecutive", hot)
		}
	}
	for k, c := range cold {
		if c != k {
			t.Fatalf("cold indices %v are not consecutive", cold)
		}
	}
	// Running out of cold probes is a harness sizing error reported before the
	// request is made, never a failed request.
	st := &stepper{w: topk, pl: &plan{single: make([][]byte, 1000), cold: make([][]byte, 2)}}
	for i, wantErr := range map[int]bool{0: false, 3: false, 7: false, 10: false, 11: true, 15: true} {
		if err := st.exhausted(i); (err != nil) != wantErr {
			t.Errorf("exhausted(%d) = %v, want error %v", i, err, wantErr)
		}
	}
	batch, _ := workloadByName(wlBatchScan)
	for i := 0; i < 8; i += 2 {
		j, b := describe(batch, i, 1000, 3), describe(batch, i+1, 1000, 3)
		if j.kind != reqBatchJSON || b.kind != reqBatchBinary || j.idx != b.idx {
			t.Fatalf("requests %d,%d: %+v %+v, want a JSON/binary pair of one batch", i, i+1, j, b)
		}
	}
	if got := cycleLen(topk, 999, 0); got != 1332 {
		t.Errorf("topk cycle = %d, want 1332", got)
	}
}

const expoBefore = `# HELP crn_coalesce_calls_total x
# TYPE crn_coalesce_calls_total counter
crn_coalesce_calls_total{kind="call"} 100
crn_coalesce_calls_total{kind="solo"} 90
# HELP crn_pool_evictions_total x
# TYPE crn_pool_evictions_total counter
crn_pool_evictions_total 5
# HELP crn_estimate_duration_seconds x
# TYPE crn_estimate_duration_seconds histogram
crn_estimate_duration_seconds_bucket{le="0.0001"} 10
crn_estimate_duration_seconds_bucket{le="0.0002"} 20
crn_estimate_duration_seconds_bucket{le="+Inf"} 20
crn_estimate_duration_seconds_sum 0.002
crn_estimate_duration_seconds_count 20
`

const expoAfter = `# HELP crn_coalesce_calls_total x
# TYPE crn_coalesce_calls_total counter
crn_coalesce_calls_total{kind="call"} 300
crn_coalesce_calls_total{kind="solo"} 240
# HELP crn_pool_evictions_total x
# TYPE crn_pool_evictions_total counter
crn_pool_evictions_total 12
# HELP crn_estimate_duration_seconds x
# TYPE crn_estimate_duration_seconds histogram
crn_estimate_duration_seconds_bucket{le="0.0001"} 60
crn_estimate_duration_seconds_bucket{le="0.0002"} 120
crn_estimate_duration_seconds_bucket{le="+Inf"} 120
crn_estimate_duration_seconds_sum 0.012
crn_estimate_duration_seconds_count 120
`

func TestMetricsDeltas(t *testing.T) {
	parse := func(text string) families {
		f, err := telemetry.ParseText(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	b, a := parse(expoBefore), parse(expoAfter)
	if got := delta(b, a, "crn_coalesce_calls_total", "kind", "solo"); got != 150 {
		t.Errorf("solo delta = %v, want 150", got)
	}
	if got := delta(b, a, "crn_pool_evictions_total", "", ""); got != 7 {
		t.Errorf("unlabeled delta = %v, want 7", got)
	}
	if got := sumLabels(b, a, "crn_coalesce_calls_total", "kind", "call", "solo"); got != 350 {
		t.Errorf("summed delta = %v, want 350", got)
	}
	if got := delta(b, a, "crn_absent_total", "", ""); got != 0 {
		t.Errorf("absent family delta = %v, want 0", got)
	}
	h := histDelta(b, a, "crn_estimate_duration_seconds", "", "")
	if h.Count != 100 || h.Sum < 0.0099 || h.Sum > 0.0101 {
		t.Errorf("histogram delta count=%d sum=%v, want 100 and 0.01", h.Count, h.Sum)
	}
	if got := histDelta(b, a, "crn_absent_seconds", "", ""); got.Count != 0 {
		t.Errorf("absent histogram delta = %+v", got)
	}
	if ratio(1, 0) != 0 {
		t.Error("ratio over zero is not 0")
	}
}

func TestParseMemStatsAndProc(t *testing.T) {
	pauses := make([]string, 256)
	for i := range pauses {
		pauses[i] = "0"
	}
	pauses[0], pauses[1], pauses[2] = "1000000", "3000000", "5000000"
	footer := "heap profile: 1: 2 [3: 4] @ heap/1048576\n\n# runtime.MemStats\n# Alloc = 1\n# TotalAlloc = 9000\n# Mallocs = 700\n" +
		"# PauseNs = [" + strings.Join(pauses, " ") + "]\n# NumGC = 3\n"
	ms, err := parseMemStats([]byte(footer))
	if err != nil {
		t.Fatal(err)
	}
	if ms.TotalAlloc != 9000 || ms.Mallocs != 700 || ms.NumGC != 3 || len(ms.PauseNs) != 256 {
		t.Fatalf("parsed %+v", ms)
	}
	// Cycles 2 and 3 completed after a snapshot taken at NumGC = 1.
	if got := ms.pauseMsSince(memStats{NumGC: 1}); got != 4 {
		t.Errorf("mean pause = %v ms, want 4", got)
	}
	if got := ms.pauseMsSince(ms); got != 0 {
		t.Errorf("mean pause over no cycles = %v", got)
	}
	if _, err := parseMemStats([]byte("nothing here")); err == nil {
		t.Error("a profile without MemStats parsed")
	}

	stat := []byte("4242 (crn serve) S 1 4242 4242 0 -1 4194560 900 0 0 0 150 50 0 0 20 0 9 0 100 200 300\n")
	cpu, err := parseProcStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if cpu != 2.0 {
		t.Errorf("cpu seconds = %v, want (150+50)/100", cpu)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Request: 7, Name: "request", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Request: 7, Name: "wire.decode", StartNs: 5, EndNs: 15},
		{ID: 3, Parent: 1, Request: 7, Name: "facade.estimate", StartNs: 20, EndNs: 80},
		{ID: 4, Request: 7, Name: "card.estimate", StartNs: 100, EndNs: 150},
		{ID: 5, Parent: 4, Request: 7, Name: "crn.rates", StartNs: 110, EndNs: 140},
		// A replayed child lies outside its parent's interval; only its
		// duration counts.
		{ID: 6, Parent: 4, Request: 7, Name: "pool.select", StartNs: 150, EndNs: 155},
	}
	self := selfTimes(spans)
	for name, want := range map[string]int64{
		"request": 30, "wire.decode": 10, "facade.estimate": 60, "card.estimate": 15, "crn.rates": 30, "pool.select": 5,
	} {
		if got := self[name]; len(got) != 1 || got[0] != want {
			t.Errorf("self time of %s = %v, want [%d]", name, got, want)
		}
	}
	if got := durations(spans)["card.estimate"][0]; got != 50 {
		t.Errorf("duration = %d, want 50", got)
	}

	tr := newTracer(4)
	root := tr.begin(1, "a", 0)
	child := tr.begin(1, "b", root)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].EndNs < tr.spans[1].EndNs {
		t.Errorf("tracer recorded %+v", tr.spans)
	}
}

// reportOf builds a report whose every run holds one workload with the given
// end-to-end p50 values.
func reportOf(workload string, p50s ...float64) *report {
	r := &report{}
	for _, v := range p50s {
		res := newRunResult(workloadSpec{Name: workload}, 10)
		res.E2E["est_p50_us"] = single(v)
		res.Phases["window.estimate"] = &phase{Sent: 1000, Succeeded: 1000}
		r.Runs = append(r.Runs, &runReport{Workloads: []*runResult{res}})
	}
	return r
}

func TestCompareVerdicts(t *testing.T) {
	find := func(vs []verdict, metric string) verdict {
		for _, v := range vs {
			if v.Metric == metric && v.Workload == wlSingleHot {
				return v
			}
		}
		t.Fatalf("no verdict for %s", metric)
		return verdict{}
	}
	base := reportOf(wlSingleHot, 100, 102, 98)
	for _, tc := range []struct {
		name string
		cand *report
		want string
	}{
		{"same", reportOf(wlSingleHot, 101, 99, 100), verdictOK},
		{"within the bound", reportOf(wlSingleHot, 110, 111, 109), verdictOK},
		{"better", reportOf(wlSingleHot, 60, 61, 59), verdictOK},
		{"beyond the bound", reportOf(wlSingleHot, 140, 141, 139), verdictRegressed},
		{"noisy and overlapping", reportOf(wlSingleHot, 80, 130, 101), verdictUnresolved},
		{"noisy but every run worse", reportOf(wlSingleHot, 150, 250, 200), verdictRegressed},
	} {
		if got := find(compare(base, tc.cand), "est_p50_us"); got.Verdict != tc.want {
			t.Errorf("%s: verdict %s (worse %.2f), want %s", tc.name, got.Verdict, got.Worse, tc.want)
		}
	}
	// A higher-is-better metric regresses downward.
	up := metricSpec{Name: "est_qps", Better: "higher", Bound: 0.15}
	if v := judge(up, value{V: 100, Min: 99, Max: 101, Spread: 0.02}, value{V: 70, Min: 69, Max: 71, Spread: 0.03}); v.Verdict != verdictRegressed {
		t.Errorf("qps 100→70: %s", v.Verdict)
	}
	if v := judge(up, value{V: 100, Min: 99, Max: 101, Spread: 0.02}, value{V: 130, Min: 129, Max: 131, Spread: 0.02}); v.Verdict != verdictOK {
		t.Errorf("qps 100→130: %s", v.Verdict)
	}
	// Any increase of the failed share regresses.
	cand := reportOf(wlSingleHot, 100, 100, 100)
	cand.Runs[0].Workloads[0].Phases["window.estimate"].Failed = 1
	if got := find(compare(base, cand), "failed_share"); got.Verdict != verdictRegressed {
		t.Errorf("one failed request: %s", got.Verdict)
	}
	if got := find(compare(base, base), "failed_share"); got.Verdict != verdictOK {
		t.Errorf("no failures: %s", got.Verdict)
	}

	// A zero baseline has no share to take: any move the wrong way regresses.
	down := metricSpec{Name: "guard.shed", Better: "lower", Bound: 0.1}
	if v := judge(down, single(0), single(3)); v.Verdict != verdictRegressed {
		t.Errorf("shed 0→3: %s", v.Verdict)
	}
	if v := judge(down, single(0), single(0)); v.Verdict != verdictOK {
		t.Errorf("shed 0→0: %s", v.Verdict)
	}
	// qerr_p50 is held to its fixed-seed bound, not the cross-seed one of
	// BENCHMARK.json: +5% regresses although the driver allows 20%.
	withQerr := func(q float64) *report {
		r := reportOf(wlSingleHot, 100, 100, 100)
		for _, run := range r.Runs {
			run.Workloads[0].E2E["qerr_p50"] = single(q)
		}
		return r
	}
	if got := find(compare(withQerr(3.00), withQerr(3.15)), "qerr_p50"); got.Verdict != verdictRegressed || got.Bound != 0.02 {
		t.Errorf("qerr_p50 3.00→3.15: %s at bound %g, want regressed at 0.02", got.Verdict, got.Bound)
	}
	if got := find(compare(withQerr(3.00), withQerr(3.00)), "qerr_p50"); got.Verdict != verdictOK {
		t.Errorf("qerr_p50 unchanged: %s", got.Verdict)
	}
	// A candidate that lost a gated metric, or a whole workload, is told so
	// and fails the comparison.
	if got := find(compare(withQerr(3.00), base), "qerr_p50"); got.Verdict != verdictMissing {
		t.Errorf("candidate without qerr_p50: %s, want missing", got.Verdict)
	}
	lost := compare(base, reportOf(wlBatchScan, 100, 100, 100))
	if got := find(lost, "est_p50_us"); got.Verdict != verdictMissing {
		t.Errorf("candidate without single_hot: est_p50_us %s, want missing", got.Verdict)
	}
	if got := find(lost, "failed_share"); got.Verdict != verdictMissing {
		t.Errorf("candidate without single_hot: failed_share %s, want missing", got.Verdict)
	}
	var sink bytes.Buffer
	if n := printVerdicts(&sink, lost); n != 4 { // est_p50_us and failed_share, on both workloads
		t.Errorf("printVerdicts counted %d failing lines, want 4:\n%s", n, sink.String())
	}
	if n := printVerdicts(&sink, compare(base, base)); n != 0 {
		t.Errorf("a report against itself has %d failing lines", n)
	}

	// The report format round-trips through -out.
	path := filepath.Join(t.TempDir(), "r.json")
	for _, run := range base.Runs {
		if err := appendRun(path, run); err != nil {
			t.Fatal(err)
		}
	}
	back, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Runs) != 3 || back.Runs[2].Workloads[0].E2E["est_p50_us"].V != 98 {
		t.Errorf("report did not round-trip: %+v", back.Runs)
	}
}

func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	if problems := validateCatalog(""); len(problems) > 0 {
		t.Fatalf("catalogue: %v", problems)
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "BENCHMARK.json")
	if problems := validateCatalog(path); len(problems) > 0 {
		t.Fatalf("BENCHMARK.json: %v", problems)
	}

	// A file that drifted from the code is caught, name by name.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["workloads"] = doc["workloads"].([]any)[1:]
	e2e := doc["end_to_end"].([]any)
	e2e[0].(map[string]any)["bound"] = 0.01
	layers := doc["per_layer"].([]any)
	layers[0].(map[string]any)["name"] = "crnserve.renamed"
	drifted := filepath.Join(t.TempDir(), "BENCHMARK.json")
	out, _ := json.Marshal(doc)
	if err := os.WriteFile(drifted, out, 0o644); err != nil {
		t.Fatal(err)
	}
	problems := strings.Join(validateCatalog(drifted), "\n")
	for _, want := range []string{
		"workload single_hot is in the code but not in",
		"end-to-end metric est_p50_us: code says",
		"per-layer metric crnserve.renamed is in",
		"per-layer metric crnserve.http_overhead_us is in the code but not in",
	} {
		if !strings.Contains(problems, want) {
			t.Errorf("drifted file: missing problem %q in:\n%s", want, problems)
		}
	}
}

// TestQuickSmoke runs the whole benchmark at -quick size: real crnserve
// children, all four workloads, the traced pass and the layer timings.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches crnserve processes")
	}
	out := filepath.Join(t.TempDir(), "quick.json")
	if code := run(context.Background(), quickSizes, 1, 1, traceBoth, workloads, out); code != 0 {
		t.Fatalf("quick run exited %d", code)
	}
	killChildren()
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	run := rep.Runs[0]
	if len(run.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the report, want %d", len(run.Workloads), len(workloads))
	}
	for _, res := range run.Workloads {
		if attempted, failed := res.totals(); attempted == 0 || failed != 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", res.Workload, attempted, failed, res.Failures)
		}
		for _, m := range endToEnd {
			if res.E2E[m.Name].V <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", res.Workload, m.Name, res.E2E[m.Name].V)
			}
		}
		for _, m := range perLayer {
			_, inRun := res.Layer[m.Name]
			_, inLayers := run.Layers[m.Name]
			if !inRun && !inLayers && (m.Only == "" || m.Only == res.Workload) {
				t.Errorf("%s: per-layer metric %s was not measured", res.Workload, m.Name)
			}
		}
		if run.Ledgers[res.Workload] == nil {
			t.Errorf("%s: no ledger", res.Workload)
		}
	}
}
