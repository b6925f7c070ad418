package main

import (
	"encoding/json"
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
	// more until every per-pass stage has (P(500 misses) ≈ 1e-29).
	st := srv.tel.Stages
	for i := 0; i < 500 && (st.Admission.Snapshot().Total() == 0 || st.CacheLookup.Snapshot().Total() == 0 ||
		st.CandidateSelection.Snapshot().Total() == 0 || st.NNForward.Snapshot().Total() == 0 ||
		st.Finalize.Snapshot().Total() == 0); i++ {
		status, body, err := postJSONErr(ts.URL+"/estimate",
			map[string]string{"query": "SELECT * FROM title WHERE title.production_year > 1975"})
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
		"crn_ratememo_lookups_total",
		"crn_ratememo_entries",
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

// TestHealthzTelemetrySection: /healthz carries the registry-snapshot
// section — request outcomes, stage quantiles, q-error arms — and its
// latency snapshots come from the same histograms /metrics serves.
func TestHealthzTelemetrySection(t *testing.T) {
	ts := httptest.NewServer(testServer(t).handler())
	defer ts.Close()
	drive(t, ts.URL)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Telemetry.Requests["ok"] < 3 {
		t.Errorf("telemetry.requests.ok = %d, want >= 3", hr.Telemetry.Requests["ok"])
	}
	st, ok := hr.Telemetry.Stages[telemetry.StageNNForward]
	if !ok || st.Count == 0 || st.P99Micros < st.P50Micros {
		t.Errorf("nn_forward stage quantiles wrong: %+v (ok=%v)", st, ok)
	}
	if _, ok := hr.Telemetry.QError["crn"]; !ok {
		t.Errorf("qerror arms missing: %+v", hr.Telemetry.QError)
	}
	if hr.EstimateLatency.Count < 3 || hr.EstimateLatency.AvgMicros <= 0 {
		t.Errorf("snapshot-derived estimate latency wrong: %+v", hr.EstimateLatency)
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

// TestHealthzMatchesMetrics: /healthz "endpoints", "wire" and "recorded"
// read the very counters /metrics exposes, so after traffic over every
// counted route — single estimates, a JSON and a binary batch, /record,
// /feedback and one 400 — the two agree exactly.
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
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	sample := func(family, key, value string) uint64 {
		t.Helper()
		f := fams[family]
		if f == nil {
			t.Fatalf("family %s missing from /metrics", family)
		}
		v, ok := f.Sample(key, value)
		if !ok {
			t.Fatalf("%s{%s=%q} missing from /metrics", family, key, value)
		}
		return uint64(v)
	}

	want := map[string]endpointSnapshot{
		"estimate":       {Requests: 4, Failed: 1},
		"estimate_batch": {Requests: 2},
		"record":         {Requests: 1},
		"feedback":       {Requests: 1},
	}
	for route, ep := range hr.Endpoints {
		scraped := endpointSnapshot{
			Requests: sample("crn_http_requests_total", "route", route),
			Shed:     sample("crn_http_shed_total", "route", route),
			Failed:   sample("crn_http_failures_total", "route", route),
		}
		if ep != scraped || ep != want[route] {
			t.Errorf("endpoints[%s]: healthz %+v, metrics %+v, want %+v", route, ep, scraped, want[route])
		}
	}
	if len(hr.Endpoints) != len(want) {
		t.Errorf("healthz endpoints = %v, want the %d counted routes", hr.Endpoints, len(want))
	}
	for codec, c := range map[string]wireCodecSnapshot{"json": hr.Wire.JSON, "binary": hr.Wire.Binary} {
		scraped := wireCodecSnapshot{
			Requests: sample("crn_wire_requests_total", "codec", codec),
			BytesIn:  sample("crn_wire_in_bytes_total", "codec", codec),
			BytesOut: sample("crn_wire_out_bytes_total", "codec", codec),
		}
		if c != scraped || c.Requests != 1 || c.BytesIn == 0 || c.BytesOut == 0 {
			t.Errorf("wire.%s: healthz %+v, metrics %+v, want one request with bytes both ways", codec, c, scraped)
		}
	}
	if got := sample("crn_wire_buffer_ops_total", "op", "get"); got != hr.Wire.BufferGets || got == 0 {
		t.Errorf("buffer gets: healthz %d, metrics %d", hr.Wire.BufferGets, got)
	}
	if got := sample("crn_recorded_queries_total", "", ""); got != hr.Recorded {
		t.Errorf("recorded: healthz %d, metrics %d", hr.Recorded, got)
	}
}
