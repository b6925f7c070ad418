package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"crn"
	"crn/internal/telemetry"
)

var (
	envOnce  sync.Once
	envSys   *crn.System
	envModel *crn.ContainmentModel
	envSrv   *server
	envErr   error
)

// testServer builds one tiny trained serving stack for the whole test
// package; individual tests get fresh httptest servers over its handler but
// share the model (training dominates setup time). Benchmarks share it too
// (TB), which is why BenchmarkServeStages reports quantiles from a windowed
// snapshot delta rather than the cumulative histograms. The shared server
// lives as long as the test binary, so its estimator is never closed.
func testServer(t testing.TB) *server {
	t.Helper()
	envOnce.Do(func() {
		ctx := context.Background()
		if envSys, envErr = crn.OpenSynthetic(ctx, crn.WithTitles(300), crn.WithDataSeed(7)); envErr != nil {
			return
		}
		mcfg := crn.DefaultModelConfig()
		mcfg.Hidden = 8
		mcfg.Epochs = 2
		mcfg.Patience = 1
		if envModel, envErr = envSys.TrainContainmentModel(ctx,
			crn.WithPairs(150), crn.WithSeed(3), crn.WithModelConfig(mcfg)); envErr != nil {
			return
		}
		pool := envSys.NewQueriesPool()
		if envErr = envSys.SeedPool(ctx, pool, 30, 11); envErr != nil {
			return
		}
		base, err := envSys.AnalyzeBaseline()
		if err != nil {
			envErr = err
			return
		}
		// Coalescing on, as in the default serving configuration: the
		// equivalence assertions below (batch == single) therefore also pin
		// the coalesced path to the batched path through the HTTP surface.
		envSrv, envErr = openServer(pool, crn.WithFallback(base), crn.WithCoalescing(16, 0))
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envSrv
}

// openServer builds a server over pool the way main does — an adaptive
// estimator on the shared model recording into its own telemetry bundle —
// with scheduled retraining off, so tests drive promotion explicitly.
func openServer(pool *crn.QueriesPool, opts ...crn.EstimatorOption) (*server, error) {
	tel := crn.NewTelemetry()
	est, err := envSys.OpenAdaptiveEstimator(envModel, pool,
		append([]crn.EstimatorOption{crn.WithTelemetry(tel), crn.WithRetrainInterval(-1)}, opts...)...)
	if err != nil {
		return nil, err
	}
	return newServer(envSys, pool, est, tel, nil), nil
}

// newTestServer is openServer for one test: its estimator closes when the
// test ends.
func newTestServer(t testing.TB, pool *crn.QueriesPool, opts ...crn.EstimatorOption) *server {
	t.Helper()
	testServer(t) // trains the shared model
	srv, err := openServer(pool, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.est.Close)
	return srv
}

func postJSONErr(url string, body any) (int, []byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out.Bytes(), nil
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	status, out, err := postJSONErr(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return &http.Response{StatusCode: status}, out
}

func TestEstimateEndpoints(t *testing.T) {
	ts := httptest.NewServer(testServer(t).handler())
	defer ts.Close()

	// Cardinality mode.
	resp, body := postJSON(t, ts.URL+"/estimate",
		map[string]string{"query": "SELECT * FROM title WHERE title.production_year > 1980"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/estimate: status %d body %s", resp.StatusCode, body)
	}
	var er estimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Cardinality == nil || *er.Cardinality < 0 {
		t.Errorf("cardinality = %v", er.Cardinality)
	}

	// Containment mode.
	resp, body = postJSON(t, ts.URL+"/estimate", map[string]string{
		"q1": "SELECT * FROM title WHERE title.production_year > 1990",
		"q2": "SELECT * FROM title WHERE title.production_year > 1980",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/estimate containment: status %d body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Containment == nil || *er.Containment < 0 || *er.Containment > 1 {
		t.Errorf("containment = %v", er.Containment)
	}

	// Batch matches single-call estimates exactly.
	queries := []string{
		"SELECT * FROM title WHERE title.production_year > 1980",
		"SELECT * FROM title WHERE title.kind_id = 2",
		"SELECT * FROM title",
	}
	resp, body = postJSON(t, ts.URL+"/estimate/batch", map[string]any{"queries": queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/estimate/batch: status %d body %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Count != len(queries) || len(br.Cardinalities) != len(queries) {
		t.Fatalf("batch response = %+v", br)
	}
	for i, q := range queries {
		_, single := postJSON(t, ts.URL+"/estimate", map[string]string{"query": q})
		var sr estimateResponse
		if err := json.Unmarshal(single, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Cardinality == nil || *sr.Cardinality != br.Cardinalities[i] {
			t.Errorf("query %d: batch %v != single %v", i, br.Cardinalities[i], sr.Cardinality)
		}
	}
}

func TestErrorMapping(t *testing.T) {
	ts := httptest.NewServer(testServer(t).handler())
	defer ts.Close()

	// Dialect errors are 400.
	resp, _ := postJSON(t, ts.URL+"/estimate", map[string]string{"query": "SELECT count(*) FROM title"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad dialect: status %d, want 400", resp.StatusCode)
	}
	// Missing fields are 400.
	resp, _ = postJSON(t, ts.URL+"/estimate", map[string]string{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty request: status %d, want 400", resp.StatusCode)
	}
	// Containment over different FROM clauses is a client error, not a 500.
	resp, _ = postJSON(t, ts.URL+"/estimate", map[string]string{
		"q1": "SELECT * FROM title",
		"q2": "SELECT * FROM cast_info",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("incomparable FROM clauses: status %d, want 400", resp.StatusCode)
	}
	// Unknown routes are 404.
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown route: status %d, want 404", resp.StatusCode)
	}
}

func TestNoPoolMatchMapsTo422(t *testing.T) {
	// An estimator without fallback over an empty pool: every estimate
	// misses.
	bare := newTestServer(t, testServer(t).sys.NewQueriesPool())
	ts := httptest.NewServer(bare.handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/estimate", map[string]string{"query": "SELECT * FROM title"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("pool miss: status %d body %s, want 422", resp.StatusCode, body)
	}
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(testServer(t).handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.PoolSize <= 0 {
		t.Errorf("healthz = %+v", hr)
	}
}

// TestHealthzKeySet pins the /healthz JSON contract: the exact top-level
// keys, and the numbers crnbench reads (rep_cache.resident,
// rep_cache.promoted, and with a data dir durable.replayed_records).
// Counters that live on the metrics registry are served by /metrics only.
func TestHealthzKeySet(t *testing.T) {
	keys := []string{"status", "pool_size", "pool", "rep_cache", "stmt_cache",
		"coalescer", "online", "guard", "ingest_gate"}
	for _, tc := range []struct {
		name string
		srv  *server
		keys []string
	}{
		{"memory", testServer(t), keys},
		{"data-dir", newTestServer(t, seededPool(t), crn.WithDataDir(t.TempDir())), append(keys, "durable")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.srv.handler())
			defer ts.Close()
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var hz map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
				t.Fatal(err)
			}
			got := slices.Sorted(maps.Keys(hz))
			if want := slices.Sorted(slices.Values(tc.keys)); !slices.Equal(got, want) {
				t.Errorf("healthz keys = %v, want %v", got, want)
			}
			number := func(section, key string) {
				t.Helper()
				m, _ := hz[section].(map[string]any)
				if _, ok := m[key].(float64); !ok {
					t.Errorf("healthz %s.%s = %v, want a number", section, key, m[key])
				}
			}
			number("rep_cache", "resident")
			number("rep_cache", "promoted")
			if slices.Contains(tc.keys, "durable") {
				number("durable", "replayed_records")
			}
		})
	}
}

// TestHealthzServingStats checks the serving counters of the
// high-concurrency pipeline: /healthz exposes the coalescer stats and
// /metrics the estimate/batch latency histograms, and both move under
// traffic.
func TestHealthzServingStats(t *testing.T) {
	ts := httptest.NewServer(testServer(t).handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		status, body, err := postJSONErr(ts.URL+"/estimate",
			map[string]string{"query": "SELECT * FROM title WHERE title.production_year > 1970"})
		if err != nil || status != http.StatusOK {
			t.Fatalf("estimate %d: status %d err %v body %s", i, status, err, body)
		}
	}
	status, body, err := postJSONErr(ts.URL+"/estimate/batch", map[string]any{"queries": []string{
		"SELECT * FROM title WHERE title.kind_id = 2",
	}})
	if err != nil || status != http.StatusOK {
		t.Fatalf("batch: status %d err %v body %s", status, err, body)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Coalescer.Calls == 0 || hr.Coalescer.Batches == 0 {
		t.Errorf("coalescer counters never moved: %+v", hr.Coalescer)
	}
	if hr.Coalescer.BatchedItems < hr.Coalescer.Batches {
		t.Errorf("inconsistent coalescer stats: %+v", hr.Coalescer)
	}
	// The request latencies live on /metrics only.
	fams := scrape(t, ts.URL)
	e2e := fams["crn_estimate_duration_seconds"].Hist("", "")
	if e2e == nil || e2e.Count < 3 || e2e.Sum <= 0 || histMax(e2e) < e2e.Sum/float64(e2e.Count) {
		t.Errorf("estimate latency histogram wrong: %+v", e2e)
	}
	if h := fams["crn_estimate_batch_duration_seconds"].Hist("", ""); h == nil || h.Count < 1 || h.Sum <= 0 {
		t.Errorf("batch latency histogram wrong: %+v", h)
	}
}

// histMax is the upper bound of the lowest bucket holding every
// observation of h.
func histMax(h *telemetry.ParsedHist) float64 {
	for _, b := range h.Buckets {
		if b.Cum == h.Count {
			return b.LE
		}
	}
	return math.Inf(1)
}

// TestConcurrentRecordAndEstimate is the serving scenario of §5.2 under the
// race detector: /record appends to the pool while /estimate/batch reads it
// from concurrent goroutines.
func TestConcurrentRecordAndEstimate(t *testing.T) {
	ts := httptest.NewServer(testServer(t).handler())
	defer ts.Close()

	const workers = 8
	const perWorker = 5
	var wg sync.WaitGroup
	errs := make(chan string, workers*perWorker*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				year := 1900 + (w*perWorker+i)%100
				record := fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", year)
				status, body, err := postJSONErr(ts.URL+"/record", map[string]string{"query": record})
				if err != nil {
					errs <- fmt.Sprintf("/record: %v", err)
				} else if status != http.StatusOK {
					errs <- fmt.Sprintf("/record: status %d body %s", status, body)
				}
				status, body, err = postJSONErr(ts.URL+"/estimate/batch", map[string]any{"queries": []string{
					fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", year+1),
					"SELECT * FROM title WHERE title.kind_id = 2",
				}})
				if err != nil {
					errs <- fmt.Sprintf("/estimate/batch: %v", err)
				} else if status != http.StatusOK {
					errs <- fmt.Sprintf("/estimate/batch: status %d body %s", status, body)
				}
				// Single-query estimates exercise the request coalescer
				// concurrently with the pool mutations above.
				status, body, err = postJSONErr(ts.URL+"/estimate", map[string]string{
					"query": fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", year+2),
				})
				if err != nil {
					errs <- fmt.Sprintf("/estimate: %v", err)
				} else if status != http.StatusOK {
					errs <- fmt.Sprintf("/estimate: status %d body %s", status, body)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// The pool grew during the hammering.
	if sampleOf(t, scrape(t, ts.URL), "crn_recorded_queries_total", "", "") == 0 {
		t.Error("no queries were recorded")
	}
}

// TestBoundedPoolConfigAndHealthz drives the -pool-cap / -max-candidates
// serving configuration end to end: /record pushes a capacity-bounded pool
// into LRU eviction, bounded estimates run signature-indexed top-K
// selection, and /healthz exposes the index and eviction counters.
func TestBoundedPoolConfigAndHealthz(t *testing.T) {
	base := testServer(t)
	bounded := base.sys.NewQueriesPool(crn.WithPoolCap(4))
	fb, err := base.sys.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, bounded, crn.WithFallback(fb), crn.WithMaxCandidates(2))
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// Six recordings into a 4-entry pool: two LRU evictions.
	for i := 0; i < 6; i++ {
		status, body, err := postJSONErr(ts.URL+"/record", map[string]string{
			"query": fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1900+i),
		})
		if err != nil || status != http.StatusOK {
			t.Fatalf("record %d: status %d err %v body %s", i, status, err, body)
		}
	}
	// A bounded estimate over the 4 pooled "title" candidates: top-2
	// selection must truncate.
	status, body, err := postJSONErr(ts.URL+"/estimate",
		map[string]string{"query": "SELECT * FROM title WHERE title.production_year > 1950"})
	if err != nil || status != http.StatusOK {
		t.Fatalf("bounded estimate: status %d err %v body %s", status, err, body)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.PoolSize != 4 || hr.Pool.Entries != 4 {
		t.Errorf("pool size = %d / %d, want 4 (capacity held)", hr.PoolSize, hr.Pool.Entries)
	}
	if hr.Pool.Capacity != 4 {
		t.Errorf("pool capacity = %d, want 4", hr.Pool.Capacity)
	}
	if hr.Pool.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", hr.Pool.Evictions)
	}
	if hr.Pool.TopKCalls == 0 || hr.Pool.ScannedCandidates == 0 || hr.Pool.TruncatedCalls == 0 {
		t.Errorf("top-K selection counters never moved: %+v", hr.Pool)
	}
}

// seededPool returns a fresh 10-entry pool, so a test's feedback and
// retraining leave the shared server's pool alone.
func seededPool(t testing.TB) *crn.QueriesPool {
	t.Helper()
	sys := testServer(t).sys
	pool := sys.NewQueriesPool()
	if err := sys.SeedPool(context.Background(), pool, 10, 13); err != nil {
		t.Fatal(err)
	}
	return pool
}

// retrainOpts make a manual retrain cheap and its promotion certain.
var retrainOpts = []crn.EstimatorOption{
	crn.WithRetrainEpochs(1), crn.WithFeedbackPairs(2), crn.WithPromoteTolerance(10),
}

// adaptiveServer builds a server over a fresh seeded pool whose manual
// retrains promote.
func adaptiveServer(t *testing.T) *server {
	t.Helper()
	return newTestServer(t, seededPool(t), retrainOpts...)
}

// TestFeedbackEndpoint drives /feedback end to end: ingestion, validation
// errors, duplicate handling, a manually driven retrain promoting a new
// model generation, and the /healthz "online" section reflecting it all.
func TestFeedbackEndpoint(t *testing.T) {
	srv := adaptiveServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// Valid feedback is staged.
	sql := "SELECT * FROM title WHERE title.production_year > 1961"
	status, body, err := postJSONErr(ts.URL+"/feedback",
		map[string]any{"query": sql, "cardinality": 40})
	if err != nil || status != http.StatusOK {
		t.Fatalf("feedback: status %d err %v body %s", status, err, body)
	}
	var fr feedbackResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if !fr.Accepted || fr.Staged != 1 || fr.Generation != 1 {
		t.Fatalf("feedback response = %+v", fr)
	}

	// The same query again is a duplicate, not an error.
	status, body, err = postJSONErr(ts.URL+"/feedback",
		map[string]any{"query": sql, "cardinality": 40})
	if err != nil || status != http.StatusOK {
		t.Fatalf("duplicate feedback: status %d err %v", status, err)
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Accepted || fr.Staged != 1 {
		t.Fatalf("duplicate must not re-stage: %+v", fr)
	}

	// Validation failures map to 400.
	for name, req := range map[string]map[string]any{
		"missing cardinality": {"query": sql},
		"negative":            {"query": sql, "cardinality": -3},
		"bad dialect":         {"query": "DELETE FROM title", "cardinality": 1},
		"missing query":       {"cardinality": 4},
	} {
		status, _, err := postJSONErr(ts.URL+"/feedback", req)
		if err != nil || status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (err %v)", name, status, err)
		}
	}

	// A second record, then a manual retrain: the generous tolerance gate
	// promotes generation 2 and the pool grew by the feedback.
	poolBefore := srv.pool.Len()
	if status, _, err := postJSONErr(ts.URL+"/feedback", map[string]any{
		"query": "SELECT * FROM title WHERE title.production_year > 1987", "cardinality": 11,
	}); err != nil || status != http.StatusOK {
		t.Fatalf("second feedback: status %d err %v", status, err)
	}
	promoted, err := srv.est.Retrain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !promoted {
		t.Fatalf("retrain did not promote: %+v", srv.est.AdaptationStats())
	}
	if got := srv.pool.Len(); got != poolBefore+2 {
		t.Errorf("pool size = %d, want %d (feedback becomes pool entries)", got, poolBefore+2)
	}

	// Estimates keep working on the promoted generation.
	status, body, err = postJSONErr(ts.URL+"/estimate", map[string]string{"query": sql})
	if err != nil || status != http.StatusOK {
		t.Fatalf("post-promotion estimate: status %d err %v body %s", status, err, body)
	}

	// /healthz surfaces the whole loop.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Online.Generation != 2 {
		t.Errorf("generation = %d, want 2", hr.Online.Generation)
	}
	if hr.Online.Trainer.Promotions != 1 || hr.Online.Trainer.Retrains != 1 {
		t.Errorf("trainer stats = %+v", hr.Online.Trainer)
	}
	if hr.Online.Collector.Accepted != 2 || hr.Online.Collector.Duplicates == 0 {
		t.Errorf("collector stats = %+v", hr.Online.Collector)
	}
	if hr.Online.Collector.Staged != 0 {
		t.Errorf("retrain must drain staged feedback: %+v", hr.Online.Collector)
	}
	if hr.Online.Drift.QError.Total == 0 {
		t.Errorf("drift monitor never observed: %+v", hr.Online.Drift)
	}
}

// TestHealthzDurableSection drives a durable adaptive server through the
// HTTP surface: /feedback journals to the WAL, /healthz exposes the
// "durable" section, and a non-durable server omits it.
func TestHealthzDurableSection(t *testing.T) {
	srv := newTestServer(t, seededPool(t), append(retrainOpts,
		crn.WithDataDir(t.TempDir()), crn.WithWALSync("always"))...)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	if status, _, err := postJSONErr(ts.URL+"/feedback", map[string]any{
		"query": "SELECT * FROM title WHERE title.production_year > 1973", "cardinality": 21,
	}); err != nil || status != http.StatusOK {
		t.Fatalf("feedback: status %d err %v", status, err)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Durable == nil {
		t.Fatal("healthz must report the durable section with a data dir")
	}
	if hr.Durable.WAL.Appends != 1 {
		t.Errorf("wal appends = %d, want 1 (the accepted feedback)", hr.Durable.WAL.Appends)
	}
	if hr.Durable.DataDir == "" {
		t.Errorf("durable stats missing data_dir: %+v", hr.Durable)
	}

	// A server without a data dir omits the section.
	srv2 := adaptiveServer(t)
	ts2 := httptest.NewServer(srv2.handler())
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var hr2 healthzResponse
	if err := json.NewDecoder(resp2.Body).Decode(&hr2); err != nil {
		t.Fatal(err)
	}
	if hr2.Durable != nil {
		t.Errorf("durable section must be omitted without a data dir: %+v", hr2.Durable)
	}
}
