package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"crn/internal/wire"
)

func postBinary(t *testing.T, url string, frame []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, wire.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestBinaryBatchMatchesJSON pins the tentpole contract: the binary protocol
// returns bit-identical cardinalities to the JSON path for the same batch.
func TestBinaryBatchMatchesJSON(t *testing.T) {
	ts := httptest.NewServer(testServer(t).handler())
	defer ts.Close()

	queries := []string{
		"SELECT * FROM title WHERE title.production_year > 1980",
		"SELECT * FROM title WHERE title.kind_id = 2",
		"SELECT * FROM title",
	}

	_, jsonBody := postJSON(t, ts.URL+"/estimate/batch", map[string]any{"queries": queries})
	var jr batchResponse
	if err := json.Unmarshal(jsonBody, &jr); err != nil {
		t.Fatal(err)
	}

	status, body := postBinary(t, ts.URL+"/estimate/batch", wire.AppendRequest(nil, queries))
	if status != http.StatusOK {
		t.Fatalf("binary batch: status %d body %s", status, body)
	}
	cards, err := wire.DecodeResponse(body)
	if err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if len(cards) != len(queries) {
		t.Fatalf("got %d cardinalities, want %d", len(cards), len(queries))
	}
	for i := range cards {
		if math.Float64bits(cards[i]) != math.Float64bits(jr.Cardinalities[i]) {
			t.Errorf("query %d: binary %v != json %v", i, cards[i], jr.Cardinalities[i])
		}
	}
}

func TestBinaryBatchErrors(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// Malformed frame.
	if status, _ := postBinary(t, ts.URL+"/estimate/batch", []byte{0x42, 1, 2}); status != http.StatusBadRequest {
		t.Errorf("malformed frame: status %d", status)
	}
	// Empty batch.
	if status, _ := postBinary(t, ts.URL+"/estimate/batch", wire.AppendRequest(nil, nil)); status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", status)
	}
	// Unparseable dialect maps through statusFor like the JSON path.
	status, body := postBinary(t, ts.URL+"/estimate/batch",
		wire.AppendRequest(nil, []string{"SELECT count(*) FROM title"}))
	if status != http.StatusBadRequest {
		t.Errorf("dialect error: status %d body %s", status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Errorf("error body not JSON: %s (%v)", body, err)
	}
}

// TestHealthzWireSection: /estimate/batch traffic per codec and the pooled
// body buffers' reuse are counted by the crn_wire_* families of /metrics,
// their only surface (/healthz has no "wire" section; see TestHealthzKeySet).
func TestHealthzWireSection(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, seededPool(t)).handler())
	defer ts.Close()

	queries := []string{"SELECT * FROM title WHERE title.production_year > 1985"}
	frame := wire.AppendRequest(nil, queries)
	for i := 0; i < 3; i++ {
		if status, body := postBinary(t, ts.URL+"/estimate/batch", frame); status != http.StatusOK {
			t.Fatalf("binary batch %d: status %d body %s", i, status, body)
		}
	}
	postJSON(t, ts.URL+"/estimate/batch", map[string]any{"queries": queries})

	fams := scrape(t, ts.URL)
	codec := func(family, name string) float64 { return sampleOf(t, fams, family, "codec", name) }
	if b, j := codec("crn_wire_requests_total", "binary"), codec("crn_wire_requests_total", "json"); b < 3 || j < 1 {
		t.Errorf("request counts: binary=%v json=%v", b, j)
	}
	if in, out := codec("crn_wire_in_bytes_total", "binary"), codec("crn_wire_out_bytes_total", "binary"); in < float64(3*len(frame)) || out == 0 {
		t.Errorf("binary bytes: in=%v out=%v", in, out)
	}
	if in, out := codec("crn_wire_in_bytes_total", "json"), codec("crn_wire_out_bytes_total", "json"); in == 0 || out == 0 {
		t.Errorf("json bytes: in=%v out=%v", in, out)
	}
	// Three binary requests = six buffer gets (body + response each); after
	// the first request warmed the pool the rest must reuse.
	gets := sampleOf(t, fams, "crn_wire_buffer_ops_total", "op", "get")
	misses := sampleOf(t, fams, "crn_wire_buffer_ops_total", "op", "miss")
	if gets < 6 {
		t.Errorf("buffer gets = %v, want >= 6", gets)
	}
	if misses >= gets {
		t.Errorf("buffer misses = %v of %v gets, want some reuse", misses, gets)
	}
}
