package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"crn/internal/metrics"
)

// This file drives the four workloads against real crnserve processes and
// turns what the sockets return into the end-to-end metrics.
//
// Traffic model. The estimator's caller is a planner session that waits for
// each reply, so estimate traffic is a closed loop on ONE connection.
// Execution feedback comes from independently finishing queries, so the
// write stream of ingest_mix is an open loop paced on a schedule, timed from
// each request's due time. The sandbox has two cores: a second closed-loop
// client widened run-to-run spread from ±5% to ±12%, time.Sleep overshoots
// by more than a whole /estimate round trip, and a spinning pacer provoked
// 300–700 ms host stalls — hence one estimate connection, at most one
// writer connection, sleeping (never spinning) pacing, and no rate sweep.
//
// Pinning. A closed loop never needs two CPUs — the client waits while the
// server works — but left to the scheduler the pair wanders between cores,
// and every cross-core wake-up of an idle vCPU costs a VM exit: identical
// runs of single_hot spread 15% (IQR/median) unpinned and 7% with the
// generator and its servers pinned to one CPU, at 12% lower latency. So after
// preparation the harness narrows its whole process to one CPU (pinProcess);
// the servers it launches inherit the mask and run with GOMAXPROCS 1.

// windowSlices is how many equal parts the measured window is cut into; every
// end-to-end value is the median of the per-slice values. Ten, because the
// sandbox's disturbances come in bursts of one to five seconds (often right
// after warm-up, when the server's heap is re-faulted): the median of ten
// one-second slices ignores them, the median of three long slices does not.
const windowSlices = 10

// phase counts one phase's requests. Failed covers transport errors,
// non-200 replies and outputs failing a correctness check.
type phase struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// runResult is everything one workload run produced.
type runResult struct {
	Workload string            `json:"workload"`
	Seconds  float64           `json:"seconds"`
	E2E      map[string]value  `json:"end_to_end"`
	Layer    map[string]value  `json:"per_layer,omitempty"`
	Phases   map[string]*phase `json:"phases"`
	Failures []string          `json:"failures,omitempty"`
	Info     map[string]string `json:"info,omitempty"`

	// serverMeanUs is the server's own mean estimate duration over the
	// window (scraped); the ledger needs it for the HTTP-overhead line.
	serverMeanUs float64

	mu sync.Mutex // the writer goroutine records into Phases/Failures too
}

func newRunResult(w workloadSpec, seconds float64) *runResult {
	return &runResult{Workload: w.Name, Seconds: seconds, E2E: map[string]value{},
		Layer: map[string]value{}, Phases: map[string]*phase{}, Info: map[string]string{}}
}

// note records one request's outcome; the first few failures keep their
// description for the report.
func (r *runResult) note(phaseName string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ph := r.Phases[phaseName]
	if ph == nil {
		ph = &phase{}
		r.Phases[phaseName] = ph
	}
	ph.Sent++
	if err == nil {
		ph.Succeeded++
		return
	}
	ph.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, phaseName+": "+err.Error())
	}
}

// totals sums attempted and failed over every phase.
func (r *runResult) totals() (attempted, failed int) {
	for _, ph := range r.Phases {
		attempted += ph.Sent
		failed += ph.Failed
	}
	return attempted, failed
}

// plan holds a workload's pre-rendered requests.
type plan struct {
	single  [][]byte // one /estimate per hot probe
	cold    [][]byte // one /estimate per cold probe
	batches []batchReq
	fb, rec [][]byte // aligned with prepared.writes
}

type batchReq struct {
	lo        int // first hot index of the batch
	json, bin []byte
}

func buildPlan(p *prepared, w workloadSpec) *plan {
	pl := &plan{}
	for _, pr := range p.hot {
		pl.single = append(pl.single, estimateRequest(pr.SQL))
	}
	for _, pr := range p.cold {
		pl.cold = append(pl.cold, estimateRequest(pr.SQL))
	}
	if w.Name == wlBatchScan {
		for lo := 0; lo+p.sz.Batch <= len(p.hot); lo += p.sz.Batch {
			qs := sqls(p.hot[lo : lo+p.sz.Batch])
			pl.batches = append(pl.batches, batchReq{lo: lo, json: batchRequest(qs, false), bin: batchRequest(qs, true)})
		}
	}
	for _, wr := range p.writes {
		pl.fb = append(pl.fb, feedbackRequest(wr))
		pl.rec = append(pl.rec, recordRequest(wr))
	}
	return pl
}

// prepareStreams generates the workload-specific request streams sized for
// the window.
func prepareStreams(ctx context.Context, p *prepared, w workloadSpec, seconds float64) error {
	switch w.Name {
	case wlTopKPool:
		// One request in four is cold and must never repeat: enough for the
		// warm-up cycles plus a window at four times ColdRate requests/s — a
		// rate no server can reach (see sizes.ColdRate).
		return p.generateCold(len(p.hot)*2 + int(float64(p.sz.ColdRate)*seconds))
	case wlIngestMix:
		initial, err := p.seededPool(ctx, w.Pool)
		if err != nil {
			return err
		}
		return p.generateWrites(ctx, int(float64(p.sz.WriteRate)*seconds)+8, initial)
	}
	return nil
}

// reqKind says what one estimation request asks for.
type reqKind int

const (
	reqHot         reqKind = iota // /estimate of hot probe idx
	reqCold                       // /estimate of cold probe idx (never repeats)
	reqBatchJSON                  // /estimate/batch of batch idx, JSON
	reqBatchBinary                // the same batch as a binary frame
)

// reqDesc is one request of a workload's sequence.
type reqDesc struct {
	kind reqKind
	idx  int
}

// describe maps the i-th estimation request since server launch to what it
// asks, so the socket run and the in-process traced pass replay the same
// sequence. hot and batches are the sizes of the hot set and batch list.
func describe(w workloadSpec, i, hot, batches int) reqDesc {
	switch w.Name {
	case wlBatchScan:
		// Even requests post a batch as JSON, odd requests the same batch as
		// a binary frame.
		if i%2 == 0 {
			return reqDesc{reqBatchJSON, (i / 2) % batches}
		}
		return reqDesc{reqBatchBinary, (i / 2) % batches}
	case wlTopKPool:
		// Three hot probes, then one cold probe.
		if i%4 == 3 {
			return reqDesc{reqCold, i / 4}
		}
		return reqDesc{reqHot, (i - (i+1)/4) % hot}
	}
	return reqDesc{reqHot, i % hot}
}

// cycleLen is how many requests walk the hot set once.
func cycleLen(w workloadSpec, hot, batches int) int {
	switch w.Name {
	case wlBatchScan:
		return 2 * batches
	case wlTopKPool:
		return hot * 4 / 3
	}
	return hot
}

// stepper issues the workload's i-th estimation request on its connection
// and validates the reply. i counts requests since the server was launched,
// so warm-up and window walk one continuous sequence.
type stepper struct {
	w      workloadSpec
	pl     *plan
	c      *conn
	batch  int
	static bool // the pool cannot change: a repeated probe must repeat its bits

	seen     []bool // per hot probe: estimate recorded
	first    []float64
	lastJSON []float64 // batch_scan: the JSON answer the next binary answer must equal
}

func newStepper(p *prepared, w workloadSpec, pl *plan, c *conn) *stepper {
	return &stepper{w: w, pl: pl, c: c, batch: p.sz.Batch, static: !w.Durable,
		seen: make([]bool, len(p.hot)), first: make([]float64, len(p.hot))}
}

func (s *stepper) cycle() int { return cycleLen(s.w, len(s.pl.single), len(s.pl.batches)) }

// stable checks that a hot probe's estimate repeats bit for bit while the
// pool is static.
func (s *stepper) stable(h int, v float64) error {
	if !s.static {
		return nil
	}
	if !s.seen[h] {
		s.seen[h], s.first[h] = true, v
		return nil
	}
	if math.Float64bits(s.first[h]) != math.Float64bits(v) {
		return fmt.Errorf("hot probe %d answered %v, earlier %v", h, v, s.first[h])
	}
	return nil
}

// exhausted reports a harness sizing error: request i needs a cold probe
// beyond the generated stream. It is never counted as a failed request — a
// server fast enough to drain the stream did nothing wrong.
func (s *stepper) exhausted(i int) error {
	if d := describe(s.w, i, len(s.pl.single), len(s.pl.batches)); d.kind == reqCold && d.idx >= len(s.pl.cold) {
		return fmt.Errorf("harness: cold stream of %d probes exhausted at request %d; raise sizes.ColdRate", len(s.pl.cold), i)
	}
	return nil
}

// step performs request i, returning its client-observed latency and how
// many queries it estimated. The caller has checked exhausted(i).
func (s *stepper) step(i int) (lat time.Duration, n int, err error) {
	d := describe(s.w, i, len(s.pl.single), len(s.pl.batches))
	switch d.kind {
	case reqCold:
		t0 := time.Now()
		_, err := s.c.estimate(s.pl.cold[d.idx])
		return time.Since(t0), 1, err
	case reqHot:
		t0 := time.Now()
		v, err := s.c.estimate(s.pl.single[d.idx])
		lat = time.Since(t0)
		if err != nil {
			return lat, 1, err
		}
		return lat, 1, s.stable(d.idx, v)
	}
	b := s.pl.batches[d.idx]
	binary := d.kind == reqBatchBinary
	req := b.json
	if binary {
		req = b.bin
	}
	t0 := time.Now()
	cards, err := s.c.estimateBatch(req, binary, s.batch)
	lat = time.Since(t0)
	if err != nil {
		return lat, s.batch, err
	}
	if binary {
		// Every JSON/binary pair of one batch must agree bit for bit.
		if s.lastJSON != nil && !sameBits(cards, s.lastJSON) {
			return lat, s.batch, fmt.Errorf("batch at hot %d: binary and JSON answers differ", b.lo)
		}
		s.lastJSON = nil
	} else {
		s.lastJSON = append(s.lastJSON[:0], cards...)
	}
	for k, v := range cards {
		if err := s.stable(b.lo+k, v); err != nil {
			return lat, s.batch, err
		}
	}
	return lat, s.batch, nil
}

// windowSample is what one measured window collected.
type windowSample struct {
	lat     [windowSlices][]int64 // ns per estimation request
	queries [windowSlices]int
	durS    [windowSlices]float64
	cpuS    [windowSlices]float64
}

// runWorkload executes one workload end to end: timed set-ups, warm-up,
// correctness pass, measured window, and — for the durable workload — the
// restart check. An error means the harness itself failed (a server did not
// start, a request stream ran out); failed requests and checks are counted in
// the result instead.
func runWorkload(ctx context.Context, p *prepared, w workloadSpec, seconds float64) (*runResult, error) {
	res := newRunResult(w, seconds)
	if err := prepareStreams(ctx, p, w, seconds); err != nil {
		return nil, err
	}
	pl := buildPlan(p, w)

	// Timed set-ups: launch → ready → warm. Every launch is a fresh process
	// (and a fresh data directory); the last one stays up for the window.
	var (
		srv      *server
		c        *conn
		st       *stepper
		next     int
		setupS   []float64
		warmInfo warmStats
		err      error
	)
	for rep := 0; rep < w.Setups; rep++ {
		start := time.Now()
		if srv, err = launch(ctx, p, w, ""); err != nil {
			return nil, err
		}
		if c, err = dial(srv.addr); err != nil {
			srv.kill()
			return nil, err
		}
		st = newStepper(p, w, pl, c)
		next, warmInfo, err = warmUp(res, srv, st)
		if err != nil {
			c.close()
			srv.kill()
			return nil, fmt.Errorf("warm-up: %w\n%s", err, srv.stderr)
		}
		setupS = append(setupS, time.Since(start).Seconds()-warmInfo.scrapeS)
		if rep < w.Setups-1 {
			c.close()
			if err := srv.stop(); err != nil {
				return nil, err
			}
			srv.removeData()
		}
	}
	defer func() {
		// Reached with a live server only on an early return below.
		if srv != nil {
			if c != nil {
				c.close()
			}
			srv.kill()
			srv.removeData()
		}
	}()
	res.E2E["setup_s"] = summarize(setupS)
	res.Info["warmup_requests"] = fmt.Sprint(next)
	res.Info["ready_s"] = fmt.Sprintf("%.3f", srv.readyS)

	// Correctness pass on the warm server, before any write: q-error of the
	// socket's answers, single ≡ JSON batch ≡ binary batch, socket ≡ facade.
	if _, err := evalPass(ctx, res, p, w, c, true); err != nil {
		return nil, err
	}

	// Scrapes sit immediately outside the window, never inside it.
	before, err := scrape(srv)
	if err != nil {
		return nil, err
	}
	ws, wr, err := measure(res, srv, st, pl, p, w, next, seconds)
	if err != nil {
		return nil, err
	}
	after, err := scrape(srv)
	if err != nil {
		return nil, err
	}
	scrapeMetrics(res, w, before, after, ws, warmInfo, seconds)
	reduceWindow(res, ws)
	if rss, err := srv.peakRSSMB(); err == nil {
		res.E2E["rss_peak_mb"] = single(rss)
	} else {
		return nil, err
	}
	if w.Durable {
		ingestMetrics(res, wr)
		if srv, c, err = restartCheck(ctx, res, p, w, srv, c, wr); err != nil {
			return nil, err
		}
	}
	c.close()
	stopErr := srv.stop()
	srv.removeData()
	srv = nil
	if stopErr != nil {
		res.note("shutdown", stopErr)
	}
	return res, nil
}

// warmStats describes one warm-up for the scrape-based layer metrics.
type warmStats struct {
	queries int
	before  scrapeSet
	after   scrapeSet
	scrapeS float64 // time the two scrapes took; not part of setup_s
}

// warmCap bounds a warm-up that never settles.
const warmCap = 60 * time.Second

// warmUp drives the workload's request sequence from its start until every
// hot probe was sighted twice (the rep cache promotes on second sighting)
// and crn_repcache_resident is unchanged across two consecutive probes a
// quarter cycle apart. It returns the index of the next request.
func warmUp(res *runResult, srv *server, st *stepper) (int, warmStats, error) {
	var info warmStats
	var err error
	t0 := time.Now()
	if info.before, err = scrape(srv); err != nil {
		return 0, info, err
	}
	info.scrapeS = time.Since(t0).Seconds()
	cycle := st.cycle()
	probeEvery := max(cycle/4, 1)
	deadline := time.Now().Add(warmCap)
	last, i := -1, 0
	for {
		if err := st.exhausted(i); err != nil {
			return i, info, err
		}
		_, n, err := st.step(i)
		res.note("warmup", err)
		info.queries += n
		i++
		if i%probeEvery != 0 {
			continue
		}
		h, err := srv.health()
		if err != nil {
			return i, info, err
		}
		settled := h.RepCache.Resident == last
		last = h.RepCache.Resident
		if (settled && i >= 2*cycle) || time.Now().After(deadline) {
			break
		}
	}
	t0 = time.Now()
	if info.after, err = scrape(srv); err != nil {
		return i, info, err
	}
	info.scrapeS += time.Since(t0).Seconds()
	return i, info, nil
}

// evalPass estimates the evaluation set one query per request, checks every
// answer and returns the estimates. With full set it also reports q-error
// against exact truth, proves single ≡ JSON batch ≡ binary batch on this
// server, times the two batch codecs, and proves socket ≡ in-process facade —
// all of which need a pool no write has touched yet.
func evalPass(ctx context.Context, res *runResult, p *prepared, w workloadSpec, c *conn, full bool) ([]float64, error) {
	probes := p.eval
	estimates := make([]float64, len(probes))
	for k, pr := range probes {
		v, err := c.estimate(estimateRequest(pr.SQL))
		res.note("check.single", err)
		estimates[k] = v
	}
	if !full {
		return estimates, nil
	}
	qerrs := make([]float64, len(probes))
	for k, v := range estimates {
		qerrs[k] = metrics.CardQError(float64(p.evalTruth[k]), v)
	}
	sort.Float64s(qerrs)
	res.E2E["qerr_p50"] = single(quantile(qerrs, 500))
	res.Layer["card.qerr_p90"] = single(quantile(qerrs, 900))

	// Same probes as batches, both codecs, two rounds so the per-codec
	// round-trip time has a few dozen samples.
	var jsonUs, binUs []float64
	for round := 0; round < 2; round++ {
		for lo := 0; lo < len(probes); lo += p.sz.Batch {
			hi := min(lo+p.sz.Batch, len(probes))
			qs := sqls(probes[lo:hi])
			for _, binary := range []bool{false, true} {
				t0 := time.Now()
				cards, err := c.estimateBatch(batchRequest(qs, binary), binary, hi-lo)
				us := float64(time.Since(t0)) / 1e3
				if err == nil && !sameBits(cards, estimates[lo:hi]) {
					err = fmt.Errorf("batch of eval probes %d..%d (binary=%v) differs from the single-query answers", lo, hi, binary)
				}
				if binary {
					res.note("check.batch_binary", err)
					binUs = append(binUs, us)
				} else {
					res.note("check.batch_json", err)
					jsonUs = append(jsonUs, us)
				}
			}
		}
	}
	res.Layer["wire.json_batch_e2e_p50_us"] = single(median(jsonUs))
	res.Layer["wire.binary_batch_e2e_p50_us"] = single(median(binUs))

	in, err := buildInproc(ctx, p, w, "", false)
	if err != nil {
		return nil, err
	}
	defer in.close()
	for k, pr := range probes {
		v, err := in.est.EstimateCardinality(ctx, pr.Q)
		if err == nil && math.Float64bits(v) != math.Float64bits(estimates[k]) {
			err = fmt.Errorf("eval probe %d: socket answered %v, in-process facade %v", k, estimates[k], v)
		}
		res.note("check.facade", err)
	}
	return estimates, nil
}

// writerSample is what the paced writer connection observed.
type writerSample struct {
	fbAck, recAck [windowSlices][]int64 // ns from due time to acknowledgement
	late          []int64               // ns the generator ran behind its schedule
	accepted      int                   // feedback records the server accepted
}

// measure runs the measured window: the closed estimate loop, cut into
// slices with the server's CPU time read at every boundary, and — on the
// durable workload — the paced writer beside it.
func measure(res *runResult, srv *server, st *stepper, pl *plan, p *prepared, w workloadSpec, next int, seconds float64) (*windowSample, *writerSample, error) {
	ws := &windowSample{}
	sliceDur := time.Duration(seconds / windowSlices * float64(time.Second))
	for i := range ws.lat {
		ws.lat[i] = make([]int64, 0, 1<<14)
	}

	var wr *writerSample
	var writerDone chan error
	start := time.Now()
	if w.Durable {
		wc, err := dial(srv.addr)
		if err != nil {
			return nil, nil, err
		}
		defer wc.close()
		wr = &writerSample{}
		writerDone = make(chan error, 1)
		go func() { writerDone <- runWriter(res, wc, pl, p, wr, start, sliceDur) }()
	}

	cpu, err := srv.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	i := next
	for s := 0; s < windowSlices; s++ {
		sliceStart := time.Now()
		end := start.Add(time.Duration(s+1) * sliceDur)
		for time.Now().Before(end) {
			if err := st.exhausted(i); err != nil {
				return nil, nil, err
			}
			lat, n, err := st.step(i)
			res.note("window.estimate", err)
			i++
			if err == nil {
				ws.lat[s] = append(ws.lat[s], int64(lat))
				ws.queries[s] += n
			}
		}
		ws.durS[s] = time.Since(sliceStart).Seconds()
		now, err := srv.cpuSeconds()
		if err != nil {
			return nil, nil, err
		}
		ws.cpuS[s], cpu = now-cpu, now
	}
	if writerDone != nil {
		if err := <-writerDone; err != nil {
			return nil, nil, err
		}
	}
	return ws, wr, nil
}

// runWriter is the open-loop write stream: one request every 1/rate seconds
// on a fixed schedule, three /feedback then one /record, each with a query
// the server has never seen. It sleeps to each due time (never spins) and
// times every acknowledgement from the due time, so a stall's cost to the
// requests queued behind it is counted; how late the generator itself ran
// is reported beside it.
func runWriter(res *runResult, c *conn, pl *plan, p *prepared, wr *writerSample, start time.Time, sliceDur time.Duration) error {
	interval := time.Second / time.Duration(p.sz.WriteRate)
	end := start.Add(windowSlices * sliceDur)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(end) {
			return nil
		}
		if k >= len(p.writes) {
			return fmt.Errorf("write stream exhausted after %d records", k)
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wr.late = append(wr.late, int64(time.Since(due)))
		s := min(int(due.Sub(start)/sliceDur), windowSlices-1)
		if k%4 == 3 {
			err := c.record(pl.rec[k], p.writes[k].Truth)
			res.note("window.record", err)
			if err == nil {
				wr.recAck[s] = append(wr.recAck[s], int64(time.Since(due)))
			}
			continue
		}
		err := c.feedback(pl.fb[k])
		res.note("window.feedback", err)
		if err == nil {
			wr.fbAck[s] = append(wr.fbAck[s], int64(time.Since(due)))
			wr.accepted++
		}
	}
}

// reduceWindow reduces the window to the latency, throughput and CPU metrics:
// one value per slice, reported as their median with n and spread.
func reduceWindow(res *runResult, ws *windowSample) {
	var p50, tail, qps, cpu, all []float64
	perSlice := math.MaxInt
	for s := 0; s < windowSlices; s++ {
		all = append(all, nsToUs(ws.lat[s])...)
		perSlice = min(perSlice, len(ws.lat[s]))
	}
	sort.Float64s(all)
	// The tail is the highest percentile, up to p99, with at least ten
	// samples beyond it: taken per slice when every slice supports it, over
	// the whole window otherwise (batch requests are too few per slice).
	q := min(supportedTail(len(all)), 990)
	if q == 0 {
		q = 1000 // fewer than 100 requests: only the maximum is left to report
	}
	tailPerSlice := supportedTail(perSlice) >= q
	for s := 0; s < windowSlices; s++ {
		us := sortedCopy(nsToUs(ws.lat[s]))
		p50 = append(p50, quantile(us, 500))
		if tailPerSlice {
			tail = append(tail, quantile(us, q))
		}
		if ws.durS[s] > 0 {
			qps = append(qps, float64(ws.queries[s])/ws.durS[s])
		}
		if ws.queries[s] > 0 {
			cpu = append(cpu, ws.cpuS[s]*1e6/float64(ws.queries[s]))
		}
	}
	res.E2E["est_p50_us"] = summarize(p50)
	if tailPerSlice {
		res.Layer["tail.est_p99_us"] = summarize(tail)
	} else {
		res.Layer["tail.est_p99_us"] = single(quantile(all, q))
	}
	res.E2E["est_qps"] = summarize(qps)
	res.E2E["cpu_us_per_query"] = summarize(cpu)
	// The slice values in time order: where a burst or a plateau of the
	// machine fell inside the window is visible here and nowhere else.
	res.Info["slice_p50_us"] = fmt.Sprintf("%.0f", p50)
	res.Info["tail_percentile"] = fmt.Sprintf("p%g (%d requests in the window, per slice: %v)", float64(q)/10, len(all), tailPerSlice)
}

// ingestMetrics reduces what the writer connection saw.
func ingestMetrics(res *runResult, wr *writerSample) {
	var fb, rec []float64
	for s := 0; s < windowSlices; s++ {
		if us := sortedCopy(nsToUs(wr.fbAck[s])); len(us) > 0 {
			fb = append(fb, quantile(us, 500))
		}
		if us := sortedCopy(nsToUs(wr.recAck[s])); len(us) > 0 {
			rec = append(rec, quantile(us, 500))
		}
	}
	res.Layer["ingest.fb_ack_p50_us"] = summarize(fb)
	res.Layer["ingest.record_ack_p50_us"] = summarize(rec)
	late := sortedCopy(nsToUs(wr.late))
	res.Layer["env.gen_late_p50_us"] = single(quantile(late, 500))
	if q := supportedTail(len(late)); q > 0 {
		res.Layer["env.gen_late_p99_us"] = single(quantile(late, min(q, 990)))
	}
}

// restartCheck proves the durable deployment survives a restart: estimates
// of the evaluation set after the window, SIGTERM, wait for exit, start again
// on the same directory, time readiness, then require that every accepted
// feedback record was replayed and that the evaluation estimates are
// identical bit for bit. It consumes srv and c and returns the restarted
// pair (nil when the old server is gone and no new one is up).
func restartCheck(ctx context.Context, res *runResult, p *prepared, w workloadSpec, srv *server, c *conn, wr *writerSample) (*server, *conn, error) {
	before, err := evalPass(ctx, res, p, w, c, false)
	if err != nil {
		return srv, c, err
	}
	c.close()
	if err := srv.stop(); err != nil {
		srv.removeData()
		return nil, nil, err
	}
	start := time.Now()
	next, err := launch(ctx, p, w, srv.dataDir)
	if err != nil {
		srv.removeData()
		return nil, nil, err
	}
	res.Layer["ingest.restart_ready_s"] = single(time.Since(start).Seconds())
	if c, err = dial(next.addr); err != nil {
		next.kill()
		next.removeData()
		return nil, nil, err
	}
	h, err := next.health()
	if err != nil {
		return next, c, err
	}
	if h.Durable == nil {
		err = fmt.Errorf("restarted server reports no durable section")
	} else if h.Durable.Replayed != wr.accepted {
		err = fmt.Errorf("restart replayed %d feedback records, %d were accepted", h.Durable.Replayed, wr.accepted)
	}
	res.note("restart.replay", err)
	after, err := evalPass(ctx, res, p, w, c, false)
	if err != nil {
		return next, c, err
	}
	var same error
	if !sameBits(before, after) {
		same = fmt.Errorf("evaluation estimates differ across the restart")
	}
	res.note("restart.estimates", same)
	return next, c, nil
}
