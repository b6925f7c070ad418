package wire

import (
	"encoding/json"
	"fmt"
	"testing"
)

// jsonBatchRequest / jsonBatchResponse mirror crnserve's /estimate/batch
// JSON shapes, so the benchmark compares exactly what the two content types
// cost on the server: decode the request body, encode the response body.
type jsonBatchRequest struct {
	Queries []string `json:"queries"`
}

type jsonBatchResponse struct {
	Cardinalities []float64 `json:"cardinalities"`
	Count         int       `json:"count"`
}

func benchQueries(n int) []string {
	qs := make([]string, n)
	for i := range qs {
		qs[i] = fmt.Sprintf("SELECT * FROM movies, directors WHERE movies.did = directors.id AND movies.year > %d", 1900+i)
	}
	return qs
}

// BenchmarkBatchWire measures one server round of body work for a 64-query
// batch under each codec. The binary path reuses pooled buffers exactly as
// the handler does; the JSON path pays the reflection-driven decode/encode
// it always pays. The CI wire gate pins binary allocs/op at ≤20% of
// JSON's.
func BenchmarkBatchWire(b *testing.B) {
	queries := benchQueries(64)
	ests := make([]float64, len(queries))
	for i := range ests {
		ests[i] = float64(i) * 1234.5
	}

	b.Run("codec=json", func(b *testing.B) {
		body, err := json.Marshal(jsonBatchRequest{Queries: queries})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var req jsonBatchRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
			out, err := json.Marshal(jsonBatchResponse{Cardinalities: ests, Count: len(ests)})
			if err != nil {
				b.Fatal(err)
			}
			_ = out
		}
	})

	b.Run("codec=binary", func(b *testing.B) {
		body := AppendRequest(nil, queries)
		var pool BufferPool
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req, err := DecodeRequest(body, 0)
			if err != nil {
				b.Fatal(err)
			}
			if len(req) != len(queries) {
				b.Fatal("bad decode")
			}
			buf := pool.Get()
			buf = AppendResponse(buf, ests)
			pool.Put(buf)
		}
	})
}
