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

func TestHealthzWireSection(t *testing.T) {
	ts := httptest.NewServer(testServer(t).handler())
	defer ts.Close()

	queries := []string{"SELECT * FROM title WHERE title.production_year > 1985"}
	frame := wire.AppendRequest(nil, queries)
	for i := 0; i < 3; i++ {
		if status, body := postBinary(t, ts.URL+"/estimate/batch", frame); status != http.StatusOK {
			t.Fatalf("binary batch %d: status %d body %s", i, status, body)
		}
	}
	postJSON(t, ts.URL+"/estimate/batch", map[string]any{"queries": queries})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Wire wireSnapshot `json:"wire"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	w := hz.Wire
	if w.Binary.Requests < 3 || w.JSON.Requests < 1 {
		t.Errorf("request counts: binary=%d json=%d", w.Binary.Requests, w.JSON.Requests)
	}
	if w.Binary.BytesIn < uint64(3*len(frame)) || w.Binary.BytesOut == 0 {
		t.Errorf("binary bytes: in=%d out=%d", w.Binary.BytesIn, w.Binary.BytesOut)
	}
	if w.JSON.BytesIn == 0 || w.JSON.BytesOut == 0 {
		t.Errorf("json bytes: in=%d out=%d", w.JSON.BytesIn, w.JSON.BytesOut)
	}
	// Three binary requests = six buffer gets (body + response each); after
	// the first request warmed the pool the rest must reuse.
	if w.BufferGets < 6 {
		t.Errorf("buffer gets = %d, want >= 6", w.BufferGets)
	}
	if w.BufferReuseRate <= 0 {
		t.Errorf("buffer reuse rate = %v, want > 0", w.BufferReuseRate)
	}
}
