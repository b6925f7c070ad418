package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"crn"
	"crn/internal/telemetry"
	"crn/internal/wire"
)

// drive pushes a little traffic through every instrumented route so the
// metric families below have samples: single estimates, a JSON batch, and
// a /record append.
func drive(t *testing.T, url string) {
	t.Helper()
	for i := 0; i < 3; i++ {
		status, body, err := postJSONErr(url+"/estimate",
			map[string]string{"query": "SELECT * FROM title WHERE title.production_year > 1975"})
		if err != nil || status != http.StatusOK {
			t.Fatalf("estimate: status %d err %v body %s", status, err, body)
		}
	}
	status, body, err := postJSONErr(url+"/estimate/batch", map[string]any{"queries": []string{
		"SELECT * FROM title WHERE title.kind_id = 1",
		"SELECT * FROM title WHERE title.production_year > 1960",
	}})
	if err != nil || status != http.StatusOK {
		t.Fatalf("batch: status %d err %v body %s", status, err, body)
	}
	status, body, err = postJSONErr(url+"/record",
		map[string]string{"query": "SELECT * FROM title WHERE title.kind_id = 3"})
	if err != nil || status != http.StatusOK {
		t.Fatalf("record: status %d err %v body %s", status, err, body)
	}
}

// TestMetricsExposition is the /metrics acceptance: the endpoint serves
// lint-clean Prometheus text exposition whose families cover the guard,
// serve, pool, and wire subsystems plus the estimate path, and the moving
// counters actually moved.
func TestMetricsExposition(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	parsedBefore := srv.parseDur.Snapshot().Total()
	drive(t, ts.URL)
	parsed := uint64(4) // drive posts three singles and one batch of two
	// Stage spans are sampled — each pass independently, 1 in
	// telemetry.SampleRate — so a handful of requests may record none: post
	// more until every per-pass stage has (P(500 misses) ≈ 1e-29). Each is a
	// probe not posted before, which the estimate memo cannot answer, so its
	// pass reaches the rate model's cache_lookup and nn_forward stages.
	st := srv.tel.Stages
	for i := 0; i < 500 && (st.Admission.Snapshot().Total() == 0 || st.CacheLookup.Snapshot().Total() == 0 ||
		st.CandidateSelection.Snapshot().Total() == 0 || st.NNForward.Snapshot().Total() == 0 ||
		st.Finalize.Snapshot().Total() == 0); i++ {
		status, body, err := postJSONErr(ts.URL+"/estimate",
			map[string]string{"query": fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1400+i)})
		if err != nil || status != http.StatusOK {
			t.Fatalf("estimate: status %d err %v body %s", status, err, body)
		}
		parsed++
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != crn.MetricsContentType {
		t.Errorf("Content-Type = %q, want %q", ct, crn.MetricsContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	if problems := telemetry.Lint(strings.NewReader(text)); len(problems) != 0 {
		t.Fatalf("exposition lint: %v", problems)
	}
	fams, err := telemetry.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	// One family per instrumented subsystem, by name: estimate path,
	// guard, serve (coalescer), pool, cache, wire, HTTP front end.
	for _, name := range []string{
		"crn_estimate_requests_total",
		"crn_estimate_duration_seconds",
		"crn_estimate_stage_duration_seconds",
		"crn_parse_duration_seconds",
		"crn_stmtcache_lookups_total",
		"crn_stmtcache_entries",
		"crn_gate_inflight",
		"crn_breaker_state",
		"crn_coalesce_batches_total",
		"crn_pool_entries",
		"crn_repcache_lookups_total",
		"crn_estimate_memo_lookups_total",
		"crn_estimate_memo_entries",
		"crn_accuracy_qerror",
		"crn_wire_requests_total",
		"crn_http_requests_total",
	} {
		if fams[name] == nil {
			t.Errorf("family %s missing from /metrics", name)
		}
	}
	if v, ok := fams["crn_estimate_requests_total"].Sample("outcome", "ok"); !ok || v < 3 {
		t.Errorf("crn_estimate_requests_total{outcome=ok} = %v (ok=%v), want >= 3", v, ok)
	}
	if v, ok := fams["crn_wire_requests_total"].Sample("codec", "json"); !ok || v < 1 {
		t.Errorf("crn_wire_requests_total{codec=json} = %v (ok=%v), want >= 1", v, ok)
	}
	if h := fams["crn_estimate_duration_seconds"].Hist("", ""); h == nil || h.Count < 3 {
		t.Errorf("crn_estimate_duration_seconds count = %+v, want >= 3", h)
	}
	// Parse time is observed once per /estimate or /estimate/batch request,
	// not per query.
	if h := fams["crn_parse_duration_seconds"].Hist("", ""); h == nil || h.Count != parsedBefore+parsed {
		t.Errorf("crn_parse_duration_seconds count = %+v, want %d", h, parsedBefore+parsed)
	}
	// drive posts one estimate text three times: parsed at most once.
	if v, ok := fams["crn_stmtcache_lookups_total"].Sample("result", "hit"); !ok || v < 2 {
		t.Errorf("crn_stmtcache_lookups_total{result=hit} = %v (ok=%v), want >= 2", v, ok)
	}
	if v, ok := fams["crn_stmtcache_lookups_total"].Sample("result", "miss"); !ok || v < 1 {
		t.Errorf("crn_stmtcache_lookups_total{result=miss} = %v (ok=%v), want >= 1", v, ok)
	}
	if v, ok := fams["crn_stmtcache_entries"].Sample("", ""); !ok || v < 1 {
		t.Errorf("crn_stmtcache_entries = %v (ok=%v), want >= 1", v, ok)
	}
	// drive posts one estimate text three times: its repeats are the
	// estimate memo's.
	if v, ok := fams["crn_estimate_memo_lookups_total"].Sample("result", "hit"); !ok || v < 2 {
		t.Errorf("crn_estimate_memo_lookups_total{result=hit} = %v (ok=%v), want >= 2", v, ok)
	}
	if v, ok := fams["crn_estimate_memo_entries"].Sample("", ""); !ok || v < 1 {
		t.Errorf("crn_estimate_memo_entries = %v (ok=%v), want >= 1", v, ok)
	}
	// The stage decomposition: the per-pass stages must have recorded at
	// least one span each by now.
	for _, stage := range []string{
		telemetry.StageAdmission, telemetry.StageCacheLookup,
		telemetry.StageCandidateSelection, telemetry.StageNNForward,
		telemetry.StageFinalize,
	} {
		if h := fams["crn_estimate_stage_duration_seconds"].Hist("stage", stage); h == nil || h.Count == 0 {
			t.Errorf("stage %s never recorded", stage)
		}
	}
}

// TestHealthzTelemetrySection: the estimate telemetry — request outcomes,
// stage latencies, per-arm q-error, end-to-end latency — is served by
// /metrics, its only surface (/healthz has no "telemetry" section; see
// TestHealthzKeySet).
func TestHealthzTelemetrySection(t *testing.T) {
	srv := newTestServer(t, seededPool(t))
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	drive(t, ts.URL)
	// Stage spans are sampled: post until nn_forward has recorded one. Each
	// probe is new, so the estimate memo cannot answer it and its pass runs
	// the rate model.
	for i := 0; i < 500 && srv.tel.Stages.NNForward.Snapshot().Total() == 0; i++ {
		postJSON(t, ts.URL+"/estimate", map[string]string{
			"query": fmt.Sprintf("SELECT * FROM title WHERE title.kind_id = 1 AND title.production_year > %d", 1400+i)})
	}

	fams := scrape(t, ts.URL)
	if v := sampleOf(t, fams, "crn_estimate_requests_total", "outcome", telemetry.OutcomeOK); v < 3 {
		t.Errorf("crn_estimate_requests_total{outcome=ok} = %v, want >= 3", v)
	}
	st := fams["crn_estimate_stage_duration_seconds"].Hist("stage", telemetry.StageNNForward)
	if st == nil || st.Count == 0 || st.Quantile(0.99) < st.Quantile(0.50) {
		t.Errorf("nn_forward stage histogram wrong: %+v", st)
	}
	if fams["crn_accuracy_qerror"].Hist("arm", telemetry.ArmCRN.String()) == nil {
		t.Errorf("crn_accuracy_qerror{arm=crn} missing")
	}
	if h := fams["crn_estimate_duration_seconds"].Hist("", ""); h == nil || h.Count < 3 || h.Sum <= 0 {
		t.Errorf("crn_estimate_duration_seconds = %+v, want >= 3 observations", h)
	}
}

// TestMetricsAddrSplit: with metricsOnMain off (the -metrics-addr
// configuration), the public mux stops serving /metrics and never serves
// /debug/pprof, while the operational mux serves both. The server gets its
// own estimator and bundle: family names are unique per registry.
func TestMetricsAddrSplit(t *testing.T) {
	split := newTestServer(t, testServer(t).sys.NewQueriesPool())
	split.metricsOnMain = false

	pub := httptest.NewServer(split.handler())
	defer pub.Close()
	for _, path := range []string{"/metrics", "/debug/pprof/"} {
		resp, err := http.Get(pub.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("public %s with -metrics-addr: status %d, want 404", path, resp.StatusCode)
		}
	}

	ops := httptest.NewServer(split.metricsHandler())
	defer ops.Close()
	for _, path := range []string{"/metrics", "/debug/pprof/"} {
		resp, err := http.Get(ops.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("operational %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestHealthzMatchesMetrics: after traffic over every counted route —
// single estimates, a JSON and a binary batch, /record, /feedback and one
// 400 — the server's own crn_http_*, crn_wire_* and recorded counters
// (served by /metrics only) read exactly what was sent, and the /healthz
// sections that /metrics also exports agree with it.
func TestHealthzMatchesMetrics(t *testing.T) {
	fb, err := testServer(t).sys.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, seededPool(t), crn.WithFallback(fb))
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	drive(t, ts.URL) // three estimates, one JSON batch, one /record
	if status, body := postBinary(t, ts.URL+"/estimate/batch",
		wire.AppendRequest(nil, []string{"SELECT * FROM title WHERE title.kind_id = 2"})); status != http.StatusOK {
		t.Fatalf("binary batch: status %d body %s", status, body)
	}
	if status, body, err := postJSONErr(ts.URL+"/feedback", map[string]any{
		"query": "SELECT * FROM title WHERE title.production_year > 1944", "cardinality": 12,
	}); err != nil || status != http.StatusOK {
		t.Fatalf("feedback: status %d err %v body %s", status, err, body)
	}
	if status, _, err := postJSONErr(ts.URL+"/estimate", map[string]string{}); err != nil || status != http.StatusBadRequest {
		t.Fatalf("empty estimate: status %d err %v, want 400", status, err)
	}

	fams := scrape(t, ts.URL)
	type routeCounts struct{ Requests, Shed, Failed float64 }
	want := map[string]routeCounts{
		"estimate":       {Requests: 4, Failed: 1},
		"estimate_batch": {Requests: 2},
		"record":         {Requests: 1},
		"feedback":       {Requests: 1},
	}
	for route, w := range want {
		got := routeCounts{
			Requests: sampleOf(t, fams, "crn_http_requests_total", "route", route),
			Shed:     sampleOf(t, fams, "crn_http_shed_total", "route", route),
			Failed:   sampleOf(t, fams, "crn_http_failures_total", "route", route),
		}
		if got != w {
			t.Errorf("route %s: metrics %+v, want %+v", route, got, w)
		}
	}
	if n := len(fams["crn_http_requests_total"].Samples); n != len(want) {
		t.Errorf("crn_http_requests_total has %d routes, want the %d counted routes", n, len(want))
	}
	for _, codec := range []string{"json", "binary"} {
		requests := sampleOf(t, fams, "crn_wire_requests_total", "codec", codec)
		in := sampleOf(t, fams, "crn_wire_in_bytes_total", "codec", codec)
		out := sampleOf(t, fams, "crn_wire_out_bytes_total", "codec", codec)
		if requests != 1 || in == 0 || out == 0 {
			t.Errorf("wire %s: requests %v, bytes in %v out %v, want one request with bytes both ways",
				codec, requests, in, out)
		}
	}
	if got := sampleOf(t, fams, "crn_wire_buffer_ops_total", "op", "get"); got == 0 {
		t.Errorf("buffer gets = %v, want > 0", got)
	}
	if got := sampleOf(t, fams, "crn_recorded_queries_total", "", ""); got != 1 {
		t.Errorf("crn_recorded_queries_total = %v, want 1", got)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr healthzResponse
	err = json.NewDecoder(resp.Body).Decode(&hr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		healthz  uint64
		family   string
		key, val string
	}{
		{"pool.entries", uint64(hr.Pool.Entries), "crn_pool_entries", "", ""},
		{"stmt_cache.hits", hr.StmtCache.Hits, "crn_stmtcache_lookups_total", "result", "hit"},
		{"stmt_cache.misses", hr.StmtCache.Misses, "crn_stmtcache_lookups_total", "result", "miss"},
		{"rep_cache.estimate_hits", hr.RepCache.EstimateHits, "crn_estimate_memo_lookups_total", "result", "hit"},
		{"rep_cache.estimate_misses", hr.RepCache.EstimateMisses, "crn_estimate_memo_lookups_total", "result", "miss"},
		{"rep_cache.estimate_entries", uint64(hr.RepCache.EstimateEntries), "crn_estimate_memo_entries", "", ""},
		{"ingest_gate.admitted", hr.IngestGate.Admitted, "crn_ingest_requests_total", "decision", "admitted"},
	} {
		if got := sampleOf(t, fams, c.family, c.key, c.val); got != float64(c.healthz) {
			t.Errorf("healthz %s = %d, metrics %s = %v", c.name, c.healthz, c.family, got)
		}
	}
}

// scrape fetches and parses the /metrics exposition served at url.
func scrape(t *testing.T, url string) map[string]*telemetry.ParsedFamily {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return fams
}

// sampleOf returns the sample of family labelled key=value (key "": the
// unlabelled one), failing the test when it is missing.
func sampleOf(t *testing.T, fams map[string]*telemetry.ParsedFamily, family, key, value string) float64 {
	t.Helper()
	v, ok := fams[family].Sample(key, value)
	if !ok {
		t.Fatalf("%s{%s=%q} missing from /metrics", family, key, value)
	}
	return v
}
