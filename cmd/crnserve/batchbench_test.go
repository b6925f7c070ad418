package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"crn/internal/wire"
)

// BenchmarkBatchHandler64 is one plan enumeration's request — 64 probes the
// server has seen before — through the whole handler stack without a socket:
// decode, statement cache, batched estimate, encode, per codec. With
// -benchmem it reads what a recurring batch still allocates per request.
func BenchmarkBatchHandler64(b *testing.B) {
	h := testServer(b).handler()
	queries := make([]string, 64)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", 1900+i)
	}
	jsonBody, err := json.Marshal(batchRequest{Queries: queries})
	if err != nil {
		b.Fatal(err)
	}
	for _, codec := range []struct {
		name, contentType string
		body              []byte
	}{
		{"json", "application/json", jsonBody},
		{"binary", wire.ContentType, wire.AppendRequest(nil, queries)},
	} {
		b.Run(codec.name, func(b *testing.B) {
			post := func() {
				req := httptest.NewRequest(http.MethodPost, "/estimate/batch", bytes.NewReader(codec.body))
				req.Header.Set("Content-Type", codec.contentType)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			for i := 0; i < 3; i++ { // parse, promote, memoize
				post()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
		})
	}
}
