package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// jsonEstimateRequest / jsonBatchRequest are the shapes crnserve's
// reflective fallback decodes /estimate and /estimate/batch bodies into.
type jsonEstimateRequest struct {
	Query string `json:"query,omitempty"`
	Q1    string `json:"q1,omitempty"`
	Q2    string `json:"q2,omitempty"`
}

type jsonCardinalityResponse struct {
	Cardinality *float64 `json:"cardinality,omitempty"`
}

// reflectDecode is the reference the strict reader is held to: the
// decoder crnserve falls back to, over the same bytes.
func reflectDecode(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// reflectEncode is json.Encoder's rendering of v, newline included.
func reflectEncode(t testing.TB, v any) ([]byte, error) {
	t.Helper()
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(v)
	return b.Bytes(), err
}

// checkStrictAgrees fails t when the strict reader accepts body but
// encoding/json decodes it differently (or not at all), and reports
// whether the strict reader accepted the batch and the single shape.
func checkStrictAgrees(t *testing.T, body []byte) (batchOK, singleOK bool) {
	t.Helper()
	qs, batchOK := AppendJSONQueries(nil, body)
	if batchOK {
		var ref jsonBatchRequest
		if err := reflectDecode(body, &ref); err != nil {
			t.Fatalf("strict reader accepted %q, encoding/json refused it: %v", body, err)
		}
		if len(qs) != len(ref.Queries) {
			t.Fatalf("%q: %d strings, encoding/json %d", body, len(qs), len(ref.Queries))
		}
		for i := range qs {
			if qs[i] != ref.Queries[i] {
				t.Fatalf("%q: string %d = %q, encoding/json %q", body, i, qs[i], ref.Queries[i])
			}
		}
	}
	q, singleOK := DecodeJSONQuery(body)
	if singleOK {
		var ref jsonEstimateRequest
		if err := reflectDecode(body, &ref); err != nil {
			t.Fatalf("strict reader accepted %q, encoding/json refused it: %v", body, err)
		}
		if q != ref.Query || ref.Q1 != "" || ref.Q2 != "" {
			t.Fatalf("%q: query %q, encoding/json %+v", body, q, ref)
		}
	}
	return batchOK, singleOK
}

func TestJSONQueriesMatchEncodingJSON(t *testing.T) {
	canonical := []string{
		`{"queries":["SELECT * FROM t WHERE t.a > 3","SELECT * FROM t"]}`,
		" \t\r\n{ \"queries\" :\n[ \"a\" ,\t\"b\" ] }\r\n",
		`{"queries":[]}`,
		`{"queries":[""]}`,
		`{"queries":["\"\\\/\b\f\n\r\t"]}`,
		`{"queries":["é世😀 é世😀"]}`,
		`{"queries":["lone \ud83d high","lone \ude00 low","reversed \ude00\ud83d","high then bmp \ud83dA"]}`,
		"{\"queries\":[\"invalid \xff\xfe \xc3 \xed\xa0\x80 utf8\"]}",
		`{"queries":["\u0000\u001f�￿"]}`,
		`{"query":"SELECT * FROM t WHERE t.a > 3"}`,
		`{"query":""}`,
		"{\"query\":\"\xff\"}\n",
	}
	for _, body := range canonical {
		batchOK, singleOK := checkStrictAgrees(t, []byte(body))
		if !batchOK && !singleOK {
			t.Errorf("strict reader refused canonical body %q", body)
		}
	}
	// encoding/json answers these (some successfully, some with an error);
	// the strict reader must leave every one of them to it.
	fallback := []string{
		``, ` `, `null`, `{}`, `[]`, `"x"`,
		`{"Queries":["a"]}`, `{"QUERY":"a"}`, `{"query" "a"}`,
		`{"queries":["a"],"queries":["b"]}`, `{"query":"a","query":"b"}`,
		`{"queries":null}`, `{"query":null}`, `{"queries":["a",null]}`,
		`{"queries":["a"],"limit":1}`, `{"q1":"a","q2":"b"}`, `{"query":"a","q1":"b"}`,
		`{"queries":["a"]} trailing`, `{"query":"a"}{"query":"b"}`,
		`{"queries":["a",]}`, `{"queries":["a""b"]}`, `{"queries":["a"`, `{"query":"a`,
		`{"query":"bad \x escape"}`, `{"query":"short \u12"}`, "{\"query\":\"raw \n newline\"}",
		"\xef\xbb\xbf{\"query\":\"bom\"}", `{"query":1}`, `{"queries":"a"}`,
	}
	for _, body := range fallback {
		if batchOK, singleOK := checkStrictAgrees(t, []byte(body)); batchOK || singleOK {
			t.Errorf("strict reader accepted non-canonical body %q", body)
		}
	}
}

// TestJSONQueriesArenaIsolated pins the aliasing contract: decoded strings
// survive the body being overwritten, and a refused body leaves a recycled
// dst pinning nothing.
func TestJSONQueriesArenaIsolated(t *testing.T) {
	body := []byte(`{"queries":["SELECT 1","SELECT 2"]}`)
	got, ok := AppendJSONQueries(nil, body)
	if !ok {
		t.Fatal("canonical body refused")
	}
	for i := range body {
		body[i] = 'x'
	}
	if got[0] != "SELECT 1" || got[1] != "SELECT 2" {
		t.Fatalf("decoded strings alias the body: %q", got)
	}

	dst := make([]string, 1, 4)
	dst[0] = "kept"
	dst, ok = AppendJSONQueries(dst, []byte(`{"queries":["a","b",7]}`))
	if ok || len(dst) != 1 || dst[0] != "kept" {
		t.Fatalf("refused body changed dst: %q ok=%v", dst, ok)
	}
	if rest := dst[1:3]; rest[0] != "" || rest[1] != "" {
		t.Fatalf("refused body left strings behind dst: %q", rest)
	}
}

// jsonFloatCases are the values at encoding/json's float rule boundaries.
var jsonFloatCases = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1234.5, 123456789.125, 1e20, 1e21, -1e21, 9.999999999999999e20,
	1e-6, 9.99999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 1e-100, 1e100, 5e-324, math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64, 1 << 53, 1<<53 + 1,
}

func TestJSONCardinalitiesMatchEncoder(t *testing.T) {
	for _, v := range jsonFloatCases {
		want, err := reflectEncode(t, jsonCardinalityResponse{Cardinality: &v})
		if err != nil {
			t.Fatal(err)
		}
		got, ok := AppendJSONCardinality([]byte("prefix"), v)
		if !ok || string(got) != "prefix"+string(want) {
			t.Errorf("%v: got %q ok=%v, want %q", v, got, ok, want)
		}
	}
	for _, vs := range [][]float64{nil, {}, {1}, jsonFloatCases} {
		want, err := reflectEncode(t, jsonBatchResponse{Cardinalities: vs, Count: len(vs)})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := AppendJSONCardinalities(nil, vs); !ok || !bytes.Equal(got, want) {
			t.Errorf("%v: got %q ok=%v, want %q", vs, got, ok, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, ok := AppendJSONCardinality([]byte("x"), bad); ok || string(got) != "x" {
			t.Errorf("%v: got %q ok=%v, want refusal", bad, got, ok)
		}
		if got, ok := AppendJSONCardinalities([]byte("x"), []float64{1, bad}); ok || string(got) != "x" {
			t.Errorf("[1 %v]: got %q ok=%v, want refusal", bad, got, ok)
		}
	}
}

// FuzzJSONRequest feeds arbitrary bytes to the strict reader and to
// encoding/json with unknown fields disallowed. Whenever the strict reader
// accepts a body, encoding/json must accept it too and decode the very same
// strings.
func FuzzJSONRequest(f *testing.F) {
	for _, seed := range []string{
		`{"queries":["SELECT * FROM t WHERE t.a > 3","SELECT * FROM t"]}`,
		`{"query":"SELECT * FROM t WHERE t.a > 3"}`,
		` { "queries" : [ "a" , "\"\\\/\b\f\n\r\t" ] } `,
		`{"queries":["😀 \ud83d \ude00 \ud83dA"]}`,
		"{\"query\":\"\xff\xc3\xed\xa0\x80\"}",
		`{"Queries":["a"],"queries":["b"]} x`,
		strings.Repeat(`{"queries":[`, 3),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkStrictAgrees(t, body)
	})
}

// FuzzJSONResponse holds the response encoders to json.Encoder for
// fuzzer-chosen float64 bits: the same bytes for a finite value, and a
// refusal exactly where encoding/json refuses.
func FuzzJSONResponse(f *testing.F) {
	for _, v := range jsonFloatCases {
		f.Add(math.Float64bits(v), math.Float64bits(-v))
	}
	f.Add(math.Float64bits(math.NaN()), uint64(0))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		want, err := reflectEncode(t, jsonCardinalityResponse{Cardinality: &x})
		got, ok := AppendJSONCardinality(nil, x)
		if ok != (err == nil) || (ok && !bytes.Equal(got, want)) {
			t.Fatalf("%v: got %q ok=%v, encoding/json %q err=%v", x, got, ok, want, err)
		}
		vs := []float64{x, y}
		want, err = reflectEncode(t, jsonBatchResponse{Cardinalities: vs, Count: len(vs)})
		got, ok = AppendJSONCardinalities(nil, vs)
		if ok != (err == nil) || (ok && !bytes.Equal(got, want)) {
			t.Fatalf("%v: got %q ok=%v, encoding/json %q err=%v", vs, got, ok, want, err)
		}
	})
}
