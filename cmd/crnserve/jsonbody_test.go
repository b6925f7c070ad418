package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"crn"
)

// TestJSONEstimateBodies pins what /estimate and /estimate/batch answer
// for each kind of JSON body a client can send: canonical bodies with and
// without HTML escaping, every string escape, invalid UTF-8 and surrogates,
// the bodies encoding/json accepts that a strict reader would not
// (case-variant and duplicate keys, null, trailing bytes, a valid object
// before an over-limit tail) and the ones it refuses. For each body the
// status, the exact response bytes and the estimate bits must match: a
// success body is what json.Encoder renders for the estimator's own answer
// to the texts the body denotes, an error body the exact error text.
func TestJSONEstimateBodies(t *testing.T) {
	srv := testServer(t)
	h := srv.handler()
	const (
		qa = "SELECT * FROM title WHERE title.production_year > 1980"
		qb = "SELECT * FROM title WHERE title.kind_id = 2"
		qc = "SELECT * FROM title"
	)
	marshal := func(v any, escapeHTML bool) string {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(escapeHTML)
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	tooLarge := strings.Repeat("a", maxBodyBytes)
	overLimitTail := strings.Repeat(" ", maxBodyBytes)

	type bodyCase struct {
		name, body string
		// queries are the texts a success body denotes; wantErr is the
		// error text of a failure.
		queries []string
		status  int
		wantErr string
	}
	batch := []bodyCase{
		{name: "canonical escaped", body: marshal(map[string]any{"queries": []string{qa, qb, qc}}, true),
			queries: []string{qa, qb, qc}, status: 200},
		{name: "canonical raw", body: marshal(map[string]any{"queries": []string{qa, qb, qc}}, false),
			queries: []string{qa, qb, qc}, status: 200},
		{name: "whitespace everywhere", body: " \t\r\n{ \"queries\" :\n[ \"" + qa + "\" ,\t\"" + qc + "\" ] }\r\n",
			queries: []string{qa, qc}, status: 200},
		{name: "escapes in text", body: `{"queries":["SELECT\t*\nFROM title WHERE title.production_year > 1980\r","SELECT * FROM title"]}`,
			queries: []string{"SELECT\t*\nFROM title WHERE title.production_year > 1980\r", qc}, status: 200},
		{name: "quote escape", body: `{"queries":["SELECT * FROM \"title\""]}`, status: 400,
			wantErr: `queries[0]: sqlparse: unsupported SQL dialect: expected table name at position 14, got "\""`},
		{name: "backslash escape", body: `{"queries":["SELECT * FROM title\\"]}`, status: 400,
			wantErr: `queries[0]: sqlparse: unsupported SQL dialect: unexpected trailing input "\\" at position 19`},
		{name: "solidus escape", body: `{"queries":["SELECT * FROM title\/"]}`, status: 400,
			wantErr: `queries[0]: sqlparse: unsupported SQL dialect: unexpected trailing input "/" at position 19`},
		{name: "surrogate pair", body: `{"queries":["SELECT * FROM title \ud83d\ude00"]}`, status: 400,
			wantErr: `queries[0]: sqlparse: unsupported SQL dialect: unexpected trailing input "\xf0" at position 20`},
		{name: "lone surrogate", body: `{"queries":["SELECT * FROM title \ud83d x"]}`, status: 400,
			wantErr: `queries[0]: sqlparse: unsupported SQL dialect: unexpected trailing input "\xef" at position 20`},
		{name: "invalid utf8", body: "{\"queries\":[\"SELECT * FROM title \xff\xfe\"]}", status: 400,
			wantErr: `queries[0]: sqlparse: unsupported SQL dialect: unexpected trailing input "\xef" at position 20`},
		{name: "case-variant key", body: `{"Queries":["` + qb + `"]}`, queries: []string{qb}, status: 200},
		{name: "escaped key", body: `{"\u0071ueries":["` + qb + `"]}`, queries: []string{qb}, status: 200},
		{name: "duplicate key", body: `{"queries":["` + qa + `"],"queries":["` + qb + `","` + qc + `"]}`,
			queries: []string{qb, qc}, status: 200},
		{name: "null body", body: `null`, status: 400, wantErr: `"queries" must be non-empty`},
		{name: "null queries", body: `{"queries":null}`, status: 400, wantErr: `"queries" must be non-empty`},
		{name: "empty queries", body: `{"queries":[]}`, status: 400, wantErr: `"queries" must be non-empty`},
		{name: "unknown field", body: `{"queries":["` + qa + `"],"limit":3}`, status: 400,
			wantErr: `invalid JSON body: json: unknown field "limit"`},
		{name: "empty body", body: ``, status: 400, wantErr: `invalid JSON body: EOF`},
		{name: "whitespace body", body: " \n\t ", status: 400, wantErr: `invalid JSON body: EOF`},
		{name: "trailing bytes", body: `{"queries":["` + qa + `"]} trailing`, queries: []string{qa}, status: 200},
		{name: "over the limit", body: `{"queries":["` + tooLarge + `"]}`, status: 400,
			wantErr: `invalid JSON body: http: request body too large`},
		{name: "valid before an over-limit tail", body: `{"queries":["` + qa + `"]}` + overLimitTail,
			queries: []string{qa}, status: 200},
	}
	single := []bodyCase{
		{name: "canonical escaped", body: marshal(map[string]string{"query": qa}, true), queries: []string{qa}, status: 200},
		{name: "canonical raw", body: marshal(map[string]string{"query": qa}, false), queries: []string{qa}, status: 200},
		{name: "whitespace everywhere", body: "\n{ \"query\"\t: \"" + qb + "\" }\n", queries: []string{qb}, status: 200},
		{name: "escapes in text", body: `{"query":"SELECT\t*\nFROM title WHERE title.production_year > 1980"}`,
			queries: []string{"SELECT\t*\nFROM title WHERE title.production_year > 1980"}, status: 200},
		{name: "quote escape", body: `{"query":"SELECT * FROM \"title\""}`, status: 400, wantErr: `sqlparse: unsupported SQL dialect: expected table name at position 14, got "\""`},
		{name: "surrogate pair", body: `{"query":"SELECT * FROM title \ud83d\ude00"}`, status: 400, wantErr: `sqlparse: unsupported SQL dialect: unexpected trailing input "\xf0" at position 20`},
		{name: "lone surrogate", body: `{"query":"SELECT * FROM title \udc00"}`, status: 400, wantErr: `sqlparse: unsupported SQL dialect: unexpected trailing input "\xef" at position 20`},
		{name: "invalid utf8", body: "{\"query\":\"SELECT * FROM title \xc3\"}", status: 400, wantErr: `sqlparse: unsupported SQL dialect: unexpected trailing input "\xef" at position 20`},
		{name: "case-variant key", body: `{"QUERY":"` + qc + `"}`, queries: []string{qc}, status: 200},
		{name: "escaped key", body: `{"quer\u0079":"` + qc + `"}`, queries: []string{qc}, status: 200},
		{name: "backslash escape", body: `{"query":"SELECT * FROM title\\"}`, status: 400,
			wantErr: `sqlparse: unsupported SQL dialect: unexpected trailing input "\\" at position 19`},
		{name: "solidus escape", body: `{"query":"SELECT * FROM title\/"}`, status: 400,
			wantErr: `sqlparse: unsupported SQL dialect: unexpected trailing input "/" at position 19`},
		{name: "duplicate key", body: `{"query":"` + qa + `","query":"` + qb + `"}`, queries: []string{qb}, status: 200},
		{name: "null body", body: `null`, status: 400, wantErr: `provide either "query" (cardinality) or "q1"+"q2" (containment)`},
		{name: "null query", body: `{"query":null}`, status: 400, wantErr: `provide either "query" (cardinality) or "q1"+"q2" (containment)`},
		{name: "empty query", body: `{"query":""}`, status: 400, wantErr: `provide either "query" (cardinality) or "q1"+"q2" (containment)`},
		{name: "unknown field", body: `{"query":"` + qa + `","k":1}`, status: 400, wantErr: `invalid JSON body: json: unknown field "k"`},
		{name: "empty body", body: ``, status: 400, wantErr: `invalid JSON body: EOF`},
		{name: "whitespace body", body: "\r\n", status: 400, wantErr: `invalid JSON body: EOF`},
		{name: "trailing bytes", body: `{"query":"` + qa + `"}{"query":"x"}`, queries: []string{qa}, status: 200},
		{name: "over the limit", body: `{"query":"` + tooLarge + `"}`, status: 400,
			wantErr: `invalid JSON body: http: request body too large`},
		{name: "valid before an over-limit tail", body: `{"query":"` + qa + `"}` + overLimitTail,
			queries: []string{qa}, status: 200},
	}

	post := func(path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	estimate := func(t *testing.T, sqls []string) []float64 {
		t.Helper()
		qs := make([]crn.Query, len(sqls))
		for i, sql := range sqls {
			q, err := srv.sys.ParseQuery(sql)
			if err != nil {
				t.Fatalf("parse %q: %v", sql, err)
			}
			qs[i] = q
		}
		cards, err := srv.est.EstimateCardinalityBatch(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		return cards
	}
	check := func(t *testing.T, path string, c bodyCase, want string, cards []float64, got func([]byte) []float64) {
		t.Helper()
		rec := post(path, c.body)
		if rec.Code != c.status {
			t.Fatalf("status %d, want %d (body %s)", rec.Code, c.status, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type %q", ct)
		}
		if rec.Body.String() != want {
			t.Fatalf("body\n got %q\nwant %q", rec.Body, want)
		}
		if cards == nil {
			return
		}
		gotCards := got(rec.Body.Bytes())
		for i := range cards {
			if math.Float64bits(gotCards[i]) != math.Float64bits(cards[i]) {
				t.Errorf("estimate %d: bits %x, want %x", i, math.Float64bits(gotCards[i]), math.Float64bits(cards[i]))
			}
		}
	}
	errBody := func(msg string) string { return marshal(errorResponse{Error: msg}, true) }

	for _, c := range batch {
		t.Run("batch/"+c.name, func(t *testing.T) {
			if c.status != http.StatusOK {
				check(t, "/estimate/batch", c, errBody(c.wantErr), nil, nil)
				return
			}
			cards := estimate(t, c.queries)
			check(t, "/estimate/batch", c, marshal(batchResponse{Cardinalities: cards, Count: len(cards)}, true), cards,
				func(b []byte) []float64 {
					var br batchResponse
					if err := json.Unmarshal(b, &br); err != nil || br.Count != len(cards) {
						t.Fatalf("response %s: %v", b, err)
					}
					return br.Cardinalities
				})
		})
	}
	for _, c := range single {
		t.Run("single/"+c.name, func(t *testing.T) {
			if c.status != http.StatusOK {
				check(t, "/estimate", c, errBody(c.wantErr), nil, nil)
				return
			}
			cards := estimate(t, c.queries)
			check(t, "/estimate", c, marshal(estimateResponse{Cardinality: &cards[0]}, true), cards,
				func(b []byte) []float64 {
					var er estimateResponse
					if err := json.Unmarshal(b, &er); err != nil || er.Cardinality == nil {
						t.Fatalf("response %s: %v", b, err)
					}
					return []float64{*er.Cardinality}
				})
		})
	}
	// Containment requests keep the reflective path: the same status, bytes
	// and rate bits as the facade's own answer.
	t.Run("single/containment", func(t *testing.T) {
		q1, err := srv.sys.ParseQuery(qa)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := srv.sys.ParseQuery(qc)
		if err != nil {
			t.Fatal(err)
		}
		rate, err := srv.est.EstimateContainment(context.Background(), q1, q2)
		if err != nil {
			t.Fatal(err)
		}
		c := bodyCase{body: marshal(map[string]string{"q1": qa, "q2": qc}, true), status: 200}
		check(t, "/estimate", c, marshal(estimateResponse{Containment: &rate}, true), []float64{rate},
			func(b []byte) []float64 {
				var er estimateResponse
				if err := json.Unmarshal(b, &er); err != nil || er.Containment == nil {
					t.Fatalf("response %s: %v", b, err)
				}
				return []float64{*er.Containment}
			})
	})
}
