package wire

import (
	"encoding/json"
	"fmt"
	"testing"
)

// jsonBatchRequest / jsonBatchResponse mirror crnserve's /estimate/batch
// JSON shapes as encoding/json decodes and encodes them.
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

// BenchmarkBatchWire measures one round of body work for a 64-query batch:
// the binary frame, with pooled buffers exactly as the handler uses them,
// against reflective encoding/json. crnserve answers a canonical JSON body
// without reflection (BenchmarkBatchJSON) and keeps encoding/json only as
// the fallback for other bodies, so codec=json is that fallback's cost, not
// what a canonical JSON request costs the server. The CI wire gate pins
// binary allocs/op at ≤20% of encoding/json's.
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

// BenchmarkBatchJSON is BenchmarkBatchWire's round for the canonical JSON
// body, which crnserve answers without reflection: the strict reader
// decodes the 64-query request into one arena (a json.Marshal body, so
// every '>' arrives as a \u escape) and the response is appended into a
// pooled buffer.
func BenchmarkBatchJSON(b *testing.B) {
	queries := benchQueries(64)
	ests := make([]float64, len(queries))
	for i := range ests {
		ests[i] = float64(i) * 1234.5
	}
	body, err := json.Marshal(jsonBatchRequest{Queries: queries})
	if err != nil {
		b.Fatal(err)
	}
	var pool BufferPool
	var dst []string
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var ok bool
			if dst, ok = AppendJSONQueries(dst[:0], body); !ok || len(dst) != len(queries) {
				b.Fatal("bad decode")
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			buf, ok := AppendJSONCardinalities(pool.Get(), ests)
			if !ok {
				b.Fatal("refused")
			}
			pool.Put(buf)
		}
	})
}
