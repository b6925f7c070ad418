package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"crn/internal/card"
	"crn/internal/contain"
	icrn "crn/internal/crn"
	"crn/internal/feature"
	"crn/internal/pool"
	"crn/internal/query"
	"crn/internal/wire"
)

// This file is the traced pass: the workload's request sequence replayed
// serially against the same system rebuilt in process, with a span recorded
// by the harness around every call into a layer. End-to-end numbers are
// taken with none of this running (it is a separate pass), so tracing costs
// them nothing by construction; spans inside the program are a later change.
//
// Two chains are traced per request. The request chain is what crnserve
// does — decode, parse, facade estimate, encode. Beside it the decomposed
// chain rebuilds the estimate from exported pieces — card.Estimator over a
// timed icrn.Rates, with the pool selection replayed on the same probe — and
// must return the facade's answer bit for bit: that equality is what makes
// the decomposition's timings trustworthy.

// span is one timed interval. Spans of one request share Request; Parent is
// the ID of the span that caused this one (0: none).
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Request int32  `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans in memory; nothing is written until the pass ends.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(request int, name string, parent int32) int32 {
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: int32(request), Name: name,
		StartNs: int64(time.Since(t.base))})
	return id
}

func (t *tracer) end(id int32) { t.spans[id-1].EndNs = int64(time.Since(t.base)) }

// selfTimes returns, per span name, each span's self time in nanoseconds:
// its duration minus the durations of the spans naming it as parent.
func selfTimes(spans []span) map[string][]int64 {
	child := make(map[int32]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string][]int64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.EndNs-s.StartNs-child[s.ID])
	}
	return out
}

// durations returns, per span name, every span's full duration.
func durations(spans []span) map[string][]int64 {
	out := map[string][]int64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.EndNs-s.StartNs)
	}
	return out
}

func p50us(ns []int64) float64 { return quantile(sortedCopy(nsToUs(ns)), 500) }

// timedRates wraps the rate model of the decomposed chain: every rate pass
// becomes a crn.rates span under the card.estimate span that caused it.
type timedRates struct {
	inner   *icrn.Rates
	tr      *tracer
	request int   // request whose card.estimate span is open
	parent  int32 // that span
	pairs   int   // rate pairs evaluated, for card.pairs_per_query
}

func (r *timedRates) EstimateRate(q1, q2 query.Query) (float64, error) {
	return r.inner.EstimateRate(q1, q2)
}

func (r *timedRates) EstimateRatesIndexed(ctx context.Context, queries []query.Query, idx [][2]int) ([]float64, error) {
	r.pairs += len(idx)
	id := r.tr.begin(r.request, "crn.rates", r.parent)
	out, err := r.inner.EstimateRatesIndexed(ctx, queries, idx)
	r.tr.end(id)
	return out, err
}

// countingFallback counts how often the decomposed chain had no usable pool
// match and fell back to the baseline.
type countingFallback struct {
	inner contain.CardEstimator
	calls *int
}

func (f countingFallback) EstimateCard(q query.Query) (float64, error) {
	*f.calls++
	return f.inner.EstimateCard(q)
}

// serverDecode mirrors crnserve's decodeJSON: a streaming decoder that
// rejects unknown fields.
func serverDecode(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// Wire shapes of crnserve's JSON bodies.
type (
	estimateBody struct {
		Query string `json:"query,omitempty"`
		Q1    string `json:"q1,omitempty"`
		Q2    string `json:"q2,omitempty"`
	}
	estimateReply struct {
		Cardinality *float64 `json:"cardinality,omitempty"`
	}
	batchBody struct {
		Queries []string `json:"queries"`
	}
	batchReply struct {
		Cardinalities []float64 `json:"cardinalities"`
		Count         int       `json:"count"`
	}
	feedbackBody struct {
		Query       string `json:"query"`
		Cardinality *int64 `json:"cardinality"`
	}
)

// tracedRequests is how many requests the traced pass records, after an
// untraced warm-up of two hot-set cycles.
const tracedRequests = 2000

// ledger is the decomposition of one workload's socket p50.
type ledger struct {
	SocketP50    float64 `json:"socket_p50_us"`
	HTTPOverhead float64 `json:"http_overhead_us"`
	Decode       float64 `json:"decode_us"`
	Parse        float64 `json:"parse_us"`
	FacadeOver   float64 `json:"facade_overhead_us"`
	Pool         float64 `json:"pool_us"`
	Rates        float64 `json:"crn_rates_us"`
	CardSelf     float64 `json:"card_self_us"`
	Encode       float64 `json:"encode_us"`
	Residual     float64 `json:"residual_us"`
	ServerMean   float64 `json:"server_estimate_mean_us"`
	Facade       float64 `json:"facade_estimate_us"`
	Card         float64 `json:"card_estimate_us"`
}

// tracedPass replays the workload in process and fills the traced per-layer
// lines and the ledger of res. The spans are written to the returned file.
func tracedPass(ctx context.Context, res *runResult, p *prepared, w workloadSpec) (*ledger, string, error) {
	var dataDir string
	if w.Durable {
		var err error
		if dataDir, err = os.MkdirTemp(p.work, "trace-data-"); err != nil {
			return nil, "", err
		}
		defer os.RemoveAll(dataDir)
	}
	in, err := buildInproc(ctx, p, w, dataDir, true)
	if err != nil {
		return nil, "", err
	}
	defer in.close()

	// The decomposed chain: its own model instance and rep cache over the
	// facade's pool, so both chains see every pool mutation.
	model, err := icrn.Load(p.modelBlob)
	if err != nil {
		return nil, "", err
	}
	enc, err := feature.NewEncoder(p.sys.Schema(), p.sys.DB())
	if err != nil {
		return nil, "", err
	}
	cache := icrn.NewRepCache(icrn.DefaultRepCacheSize)
	in.pool.Subscribe(cache)
	defer in.pool.Unsubscribe(cache)
	tr := newTracer(tracedRequests * 8)
	rates := &timedRates{inner: &icrn.Rates{M: model, Enc: enc, Cache: cache}, tr: tr}
	fallbacks := 0
	dec := &card.Estimator{Rates: rates, Pool: in.pool, Final: pool.Median, Epsilon: card.DefaultEpsilon,
		Workers: 1, MaxCandidates: w.MaxCandidates, Fallback: countingFallback{in.base, &fallbacks}}

	pl := buildPlan(p, w)
	hot, batches := len(p.hot), len(pl.batches)
	warm := 2 * cycleLen(w, hot, batches)
	queriesTraced, mismatches := 0, 0 // mismatches counts warm-up requests too
	var arena []pool.Entry
	var buf bytes.Buffer

	// decomposed runs the probes through the chain built from exported
	// pieces, under one card.estimate span, then replays the pool selection
	// that span just made so it can be timed on its own (it counts as a
	// child of that span).
	decomposed := func(req int, probes []query.Query) ([]float64, error) {
		cid := tr.begin(req, "card.estimate", 0)
		rates.request, rates.parent = req, cid
		cache.Validate(in.pool.Version()) // the facade's revalidate step
		out, err := dec.EstimateCards(ctx, probes)
		tr.end(cid)
		if err != nil {
			return nil, err
		}
		sid := tr.begin(req, "pool.select", cid)
		for _, q := range probes {
			if w.MaxCandidates > 0 {
				arena = in.pool.AppendTopK(arena[:0], q, w.MaxCandidates)
			} else {
				arena = in.pool.AppendMatching(arena[:0], q)
			}
		}
		tr.end(sid)
		queriesTraced += len(probes)
		return out, nil
	}

	// estimateOne runs one single-query request through both chains.
	estimateOne := func(req int, sql string) error {
		body := jsonBody(map[string]string{"query": sql})
		root := tr.begin(req, "request", 0)
		id := tr.begin(req, "wire.decode", root)
		var in1 estimateBody
		if err := serverDecode(body, &in1); err != nil {
			return err
		}
		tr.end(id)
		id = tr.begin(req, "sqlparse.parse", root)
		q, err := p.sys.ParseQuery(in1.Query)
		if err != nil {
			return err
		}
		tr.end(id)
		id = tr.begin(req, "facade.estimate", root)
		v1, err := in.est.EstimateCardinality(ctx, q)
		if err != nil {
			return err
		}
		tr.end(id)
		id = tr.begin(req, "wire.encode", root)
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(estimateReply{Cardinality: &v1}); err != nil {
			return err
		}
		tr.end(id)
		tr.end(root)
		v2, err := decomposed(req, []query.Query{q})
		if err != nil {
			return err
		}
		if math.Float64bits(v1) != math.Float64bits(v2[0]) {
			mismatches++
		}
		return nil
	}

	// estimateBatch runs one batch request through both chains.
	estimateBatch := func(req int, b batchReq, binary bool) error {
		qs := sqls(p.hot[b.lo : b.lo+p.sz.Batch])
		var body []byte
		if binary {
			body = wire.AppendRequest(nil, qs)
		} else {
			body = jsonBody(map[string][]string{"queries": qs})
		}
		root := tr.begin(req, "request", 0)
		id := tr.begin(req, "wire.decode", root)
		var list []string
		if binary {
			var err error
			if list, err = wire.DecodeRequest(body, 1<<16); err != nil {
				return err
			}
		} else {
			var in1 batchBody
			if err := serverDecode(body, &in1); err != nil {
				return err
			}
			list = in1.Queries
		}
		tr.end(id)
		id = tr.begin(req, "sqlparse.parse", root)
		parsed := make([]query.Query, len(list))
		for k, sql := range list {
			q, err := p.sys.ParseQuery(sql)
			if err != nil {
				return err
			}
			parsed[k] = q
		}
		tr.end(id)
		id = tr.begin(req, "facade.estimate", root)
		v1, err := in.est.EstimateCardinalityBatch(ctx, parsed)
		if err != nil {
			return err
		}
		tr.end(id)
		id = tr.begin(req, "wire.encode", root)
		if binary {
			body = wire.AppendResponse(body[:0], v1)
		} else {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(batchReply{Cardinalities: v1, Count: len(v1)}); err != nil {
				return err
			}
		}
		tr.end(id)
		tr.end(root)
		v2, err := decomposed(req, parsed)
		if err != nil {
			return err
		}
		if !sameBits(v1, v2) {
			mismatches++
		}
		return nil
	}

	// writeOne replays one write of the durable workload: three feedback
	// records, then one /record.
	writeOne := func(req, k int) error {
		wr := p.writes[k]
		if k%4 == 3 {
			root := tr.begin(req, "request.record", 0)
			id := tr.begin(req, "exec.record", root)
			_, added, err := p.sys.RecordExecuted(ctx, in.pool, wr.Q)
			if err == nil && !added {
				err = fmt.Errorf("in-process record of a fresh query was not added")
			}
			tr.end(id)
			tr.end(root)
			return err
		}
		body := jsonBody(struct {
			Query       string `json:"query"`
			Cardinality int64  `json:"cardinality"`
		}{wr.SQL, wr.Truth})
		root := tr.begin(req, "request.feedback", 0)
		id := tr.begin(req, "wire.decode", root)
		var fb feedbackBody
		if err := serverDecode(body, &fb); err != nil {
			return err
		}
		tr.end(id)
		id = tr.begin(req, "online.feedback", root)
		accepted, err := in.adaptive.RecordFeedback(ctx, fb.Query, *fb.Cardinality)
		if err == nil && !accepted {
			err = fmt.Errorf("in-process feedback for a fresh query was not accepted")
		}
		tr.end(id)
		tr.end(root)
		return err
	}

	writes := 0
	for i := 0; i < warm+tracedRequests; i++ {
		if i == warm {
			// Everything so far only warmed both chains' caches.
			tr.spans = tr.spans[:0]
			rates.pairs, fallbacks, queriesTraced = 0, 0, 0
		}
		d := describe(w, i, hot, batches)
		var err error
		switch d.kind {
		case reqHot:
			err = estimateOne(i, p.hot[d.idx].SQL)
		case reqCold:
			if d.idx >= len(p.cold) {
				return nil, "", fmt.Errorf("cold stream exhausted in the traced pass")
			}
			err = estimateOne(i, p.cold[d.idx].SQL)
		default:
			err = estimateBatch(i, pl.batches[d.idx], d.kind == reqBatchBinary)
		}
		if err != nil {
			return nil, "", fmt.Errorf("traced request %d: %w", i, err)
		}
		// The durable workload interleaves its writes at the socket run's
		// nominal mix: about one write per eight estimates.
		if w.Durable && i >= warm && i%8 == 7 && writes < len(p.writes) {
			if err := writeOne(i, writes); err != nil {
				return nil, "", fmt.Errorf("traced write %d: %w", writes, err)
			}
			writes++
		}
	}
	var same error
	if mismatches > 0 {
		same = fmt.Errorf("decomposed chain differs from the facade on %d traced requests", mismatches)
	}
	res.note("check.decomposed", same)

	// Reduce the spans.
	dur := durations(tr.spans)
	self := selfTimes(tr.spans)
	lg := &ledger{
		SocketP50:  res.E2E["est_p50_us"].V,
		Decode:     p50us(dur["wire.decode"]),
		Parse:      p50us(dur["sqlparse.parse"]),
		Encode:     p50us(dur["wire.encode"]),
		Facade:     p50us(dur["facade.estimate"]),
		Card:       p50us(dur["card.estimate"]),
		Rates:      p50us(dur["crn.rates"]),
		Pool:       p50us(dur["pool.select"]),
		CardSelf:   p50us(self["card.estimate"]),
		ServerMean: res.serverMeanUs,
	}
	lg.FacadeOver = lg.Facade - lg.Card
	lg.HTTPOverhead = lg.SocketP50 - lg.ServerMean - lg.Decode - lg.Parse - lg.Encode
	lg.Residual = lg.SocketP50 - (lg.HTTPOverhead + lg.Decode + lg.Parse + lg.FacadeOver + lg.Pool + lg.Rates + lg.CardSelf + lg.Encode)
	res.Layer["crnserve.http_overhead_us"] = single(lg.HTTPOverhead)
	res.Layer["ledger.residual_us"] = single(lg.Residual)
	res.Layer["card.self_us"] = single(lg.CardSelf)
	res.Layer["card.pairs_per_query"] = single(ratio(float64(rates.pairs), float64(queriesTraced)))
	res.Layer["card.fallback_share"] = single(ratio(float64(fallbacks), float64(queriesTraced)))

	// What one harness span costs: the difference the two passes cannot
	// show, since the end-to-end pass runs without any.
	probe := newTracer(2048)
	t0 := time.Now()
	for k := 0; k < 1024; k++ {
		probe.end(probe.begin(k, "probe", 0))
	}
	res.Layer["trace.span_overhead_ns"] = single(float64(time.Since(t0)) / 1024)

	path := filepath.Join(p.work, fmt.Sprintf("trace-%s-seed%d.json", w.Name, p.seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return nil, "", err
	}
	return lg, path, nil
}

// writeSpans writes the recorded spans as one JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// print renders the ledger as the sum it claims to be.
func (lg *ledger) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "ledger %s (us): socket p50 %.1f = http_overhead %.1f + decode %.1f + parse %.1f + facade.overhead %.1f + pool %.1f + crn.rates %.1f + card.self %.1f + encode %.1f + residual %.1f\n",
		workload, lg.SocketP50, lg.HTTPOverhead, lg.Decode, lg.Parse, lg.FacadeOver, lg.Pool, lg.Rates, lg.CardSelf, lg.Encode, lg.Residual)
	fmt.Fprintf(w, "       server-side estimate mean %.1f (scraped), in-process facade.estimate p50 %.1f, card.estimate p50 %.1f\n",
		lg.ServerMean, lg.Facade, lg.Card)
}
