package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"crn/internal/wire"
)

// TestRecordInvalidatesAndEstimateSeesNewEntry drives the serving-side
// cache-correctness scenario end to end: over an empty pool the estimator
// has nothing to match (422), a /record adds the first pool entry (and
// flushes the representation cache), and the very next /estimate must
// reflect that entry (200 with a cardinality).
func TestRecordInvalidatesAndEstimateSeesNewEntry(t *testing.T) {
	srv := newTestServer(t, testServer(t).sys.NewQueriesPool())
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	probe := "SELECT * FROM title WHERE title.production_year > 1960"

	status, _, err := postJSONErr(ts.URL+"/estimate", map[string]string{"query": probe})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("empty pool estimate: status %d, want 422", status)
	}

	status, body, err := postJSONErr(ts.URL+"/record",
		map[string]string{"query": "SELECT * FROM title WHERE title.production_year > 1950"})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("/record: status %d body %s", status, body)
	}

	status, body, err = postJSONErr(ts.URL+"/estimate", map[string]string{"query": probe})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("estimate after record: status %d body %s (new pool entry not visible)", status, body)
	}
	var er estimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Cardinality == nil || *er.Cardinality < 0 {
		t.Fatalf("cardinality after record = %v", er.Cardinality)
	}

	// The batch path must agree with the single path over the mutated pool.
	status, body, err = postJSONErr(ts.URL+"/estimate/batch", map[string]any{"queries": []string{probe}})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("/estimate/batch after record: status %d body %s", status, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Cardinalities) != 1 || br.Cardinalities[0] != *er.Cardinality {
		t.Fatalf("batch %v != single %v after record", br.Cardinalities, *er.Cardinality)
	}
}

// TestHealthzReportsRepCache checks the cache counters surface on /healthz
// and move under load.
func TestHealthzReportsRepCache(t *testing.T) {
	ts := httptest.NewServer(testServer(t).handler())
	defer ts.Close()

	// Identical batch estimates: the second hits the cache and promotes the
	// probe's row, and the estimate memo keeps its candidates' rates, so the
	// third computes only the pairs of the entry recorded before it. A
	// /record on the probe's FROM clause before each of them changes its
	// candidates, so the estimate memo answers none of the three outright;
	// the fourth, with no /record before it, is the estimate memo's.
	for i := 0; i < 4; i++ {
		if i < 3 {
			status, body, err := postJSONErr(ts.URL+"/record", map[string]string{
				"query": fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1981+i),
			})
			if err != nil || status != http.StatusOK {
				t.Fatalf("record %d: status %d err %v body %s", i, status, err, body)
			}
		}
		status, body, err := postJSONErr(ts.URL+"/estimate/batch", map[string]any{"queries": []string{
			"SELECT * FROM title WHERE title.production_year > 1980",
		}})
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusOK {
			t.Fatalf("batch %d: status %d body %s", i, status, body)
		}
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
	if hr.RepCache.Capacity == 0 {
		t.Errorf("healthz rep_cache missing: %+v", hr.RepCache)
	}
	if hr.RepCache.Hits+hr.RepCache.Misses == 0 {
		t.Errorf("rep_cache counters never moved: %+v", hr.RepCache)
	}
	if hr.RepCache.EstimateHits == 0 || hr.RepCache.EstimateMisses < 3 || hr.RepCache.EstimateEntries == 0 {
		t.Errorf("rep_cache estimate memo counters: %+v", hr.RepCache)
	}
}

// TestHealthzReportsStatementCache: a request text posted twice is parsed
// once — over either codec, since both go through System.ParseQuery — a
// malformed one is parsed every time, and /healthz says so under stmt_cache.
func TestHealthzReportsStatementCache(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	before := srv.sys.StatementCacheStats()

	text := "SELECT   *   FROM title WHERE title.production_year > 1983" // a spelling no other test posts
	if status, body, err := postJSONErr(ts.URL+"/estimate", map[string]string{"query": text}); err != nil || status != http.StatusOK {
		t.Fatalf("estimate: status %d err %v body %s", status, err, body)
	}
	if status, body := postBinary(t, ts.URL+"/estimate/batch", wire.AppendRequest(nil, []string{text, text})); status != http.StatusOK {
		t.Fatalf("binary batch: status %d body %s", status, body)
	}
	for i := 0; i < 2; i++ {
		if status, _, err := postJSONErr(ts.URL+"/estimate", map[string]string{"query": "SELECT * FROM ghost"}); err != nil || status != http.StatusBadRequest {
			t.Fatalf("malformed estimate: status %d err %v", status, err)
		}
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
	got := hr.StmtCache
	if got.Hits-before.Hits != 2 || got.Misses-before.Misses != 3 || got.Entries-before.Entries != 1 ||
		got.Capacity == 0 || got.RejectedOversize != before.RejectedOversize {
		t.Errorf("stmt_cache moved from %+v to %+v, want +2 hits, +3 misses, +1 entry", before, got)
	}
}
