package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"crn/internal/wire"
)

// This file is the load generator's side of the socket: one keep-alive TCP
// connection per client, requests written as pre-rendered bytes, responses
// parsed with net/http's reader. A full http.Client would spend more CPU per
// request than the server does on a hot estimate, and on two cores the
// generator's CPU is the server's noise.

// conn is one client connection. It is not safe for concurrent use: a
// closed-loop client sends its next request only after the previous reply.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// requestTimeout bounds one exchange; a server that stalls longer counts as
// a failed request, not a hung benchmark.
const requestTimeout = 30 * time.Second

// do sends one pre-rendered request and reads the whole reply. The returned
// body is valid until the next call.
func (c *conn) do(req []byte) (status int, body []byte, err error) {
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if n := resp.ContentLength; n >= 0 {
		if int64(cap(c.body)) < n {
			c.body = make([]byte, n)
		}
		c.body = c.body[:n]
		_, err = io.ReadFull(resp.Body, c.body)
	} else {
		c.body, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.body, nil
}

// checkEstimate validates one estimate: finite and non-negative.
func checkEstimate(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("estimate %v is not a finite non-negative number", v)
	}
	return nil
}

var cardinalityPrefix = []byte(`{"cardinality":`)

// parseCardinality reads {"cardinality":X} without reflection — it runs once
// per closed-loop request.
func parseCardinality(body []byte) (float64, error) {
	rest, ok := bytes.CutPrefix(body, cardinalityPrefix)
	if !ok {
		return 0, fmt.Errorf("unexpected estimate body %q", truncate(body))
	}
	end := bytes.IndexByte(rest, '}')
	if end < 0 {
		return 0, fmt.Errorf("unterminated estimate body %q", truncate(body))
	}
	v, err := strconv.ParseFloat(string(rest[:end]), 64)
	if err != nil {
		return 0, fmt.Errorf("estimate body %q: %w", truncate(body), err)
	}
	return v, checkEstimate(v)
}

func truncate(b []byte) []byte {
	if len(b) > 120 {
		return b[:120]
	}
	return b
}

// estimate runs one single-query exchange.
func (c *conn) estimate(req []byte) (float64, error) {
	status, body, err := c.do(req)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", status, truncate(body))
	}
	return parseCardinality(body)
}

// batchRequest renders one /estimate/batch request in the given codec.
func batchRequest(queries []string, binary bool) []byte {
	if binary {
		return httpRequest("/estimate/batch", wire.ContentType, wire.AppendRequest(nil, queries))
	}
	return httpRequest("/estimate/batch", "application/json", jsonBody(map[string][]string{"queries": queries}))
}

// estimateBatch runs one batch exchange and decodes it per its codec.
func (c *conn) estimateBatch(req []byte, binary bool, want int) ([]float64, error) {
	status, body, err := c.do(req)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, truncate(body))
	}
	var cards []float64
	if binary {
		if cards, err = wire.DecodeResponse(body); err != nil {
			return nil, err
		}
	} else {
		var resp struct {
			Cardinalities []float64 `json:"cardinalities"`
			Count         int       `json:"count"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, fmt.Errorf("batch body %q: %w", truncate(body), err)
		}
		if resp.Count != len(resp.Cardinalities) {
			return nil, fmt.Errorf("batch count %d but %d cardinalities", resp.Count, len(resp.Cardinalities))
		}
		cards = resp.Cardinalities
	}
	if len(cards) != want {
		return nil, fmt.Errorf("batch of %d answered with %d estimates", want, len(cards))
	}
	for _, v := range cards {
		if err := checkEstimate(v); err != nil {
			return nil, err
		}
	}
	return cards, nil
}

// sameBits reports whether two estimate vectors are identical bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func feedbackRequest(w write) []byte {
	return httpRequest("/feedback", "application/json",
		jsonBody(struct {
			Query       string `json:"query"`
			Cardinality int64  `json:"cardinality"`
		}{w.SQL, w.Truth}))
}

func recordRequest(w write) []byte {
	return httpRequest("/record", "application/json", jsonBody(map[string]string{"query": w.SQL}))
}

// feedback posts one execution-feedback record; a fresh query must be
// accepted.
func (c *conn) feedback(req []byte) error {
	status, body, err := c.do(req)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, truncate(body))
	}
	var resp struct {
		Accepted bool `json:"accepted"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("feedback body %q: %w", truncate(body), err)
	}
	if !resp.Accepted {
		return fmt.Errorf("feedback for a fresh query was not accepted: %s", truncate(body))
	}
	return nil
}

// record posts one query for exact execution; the server must return the
// harness's own exact truth and add the query to the pool.
func (c *conn) record(req []byte, truth int64) error {
	status, body, err := c.do(req)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, truncate(body))
	}
	var resp struct {
		Cardinality int64 `json:"cardinality"`
		Added       bool  `json:"added"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("record body %q: %w", truncate(body), err)
	}
	if resp.Cardinality != truth {
		return fmt.Errorf("record returned cardinality %d, exact truth is %d", resp.Cardinality, truth)
	}
	if !resp.Added {
		return fmt.Errorf("record of a fresh query was not added: %s", truncate(body))
	}
	return nil
}
