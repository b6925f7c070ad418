package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"crn"
	"crn/internal/card"
	icrn "crn/internal/crn"
	"crn/internal/durable"
	"crn/internal/exec"
	"crn/internal/feature"
	"crn/internal/guard"
	"crn/internal/nn"
	"crn/internal/online"
	"crn/internal/pool"
	"crn/internal/query"
	"crn/internal/serve"
	"crn/internal/wire"
)

// This file times each layer from outside, by calling its exported functions
// in a loop: the per-layer lines that need no server. Every timing is the
// median over several batches of calls, so one preempted batch cannot move
// it.

// timingBatches is how many batches each timing loop runs; batchBudget is
// roughly how long one batch lasts.
const (
	timingBatches = 7
	batchBudget   = 4 * time.Millisecond
)

// timeOp returns fn's time per call in nanoseconds. fn receives a running
// call index so it can walk its inputs. The per-batch call count is chosen
// so a batch lasts about batchBudget, bounded by limit (0: unbounded) for
// operations that consume a finite supply of fresh inputs.
func timeOp(limit int, fn func(i int)) value {
	// Calibrate on a few calls (also warms caches and the branch predictor).
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < batchBudget/4 && calls < 1<<20 {
		fn(calls)
		calls++
	}
	per := time.Since(t0) / time.Duration(calls)
	iters := int(batchBudget/max(per, 1)) + 1
	if limit > 0 {
		iters = min(iters, max((limit-calls)/timingBatches, 1))
	}
	next := calls
	means := make([]float64, 0, timingBatches)
	for b := 0; b < timingBatches; b++ {
		t0 := time.Now()
		for k := 0; k < iters; k++ {
			fn(next)
			next++
		}
		means = append(means, float64(time.Since(t0))/float64(iters))
	}
	return summarize(means)
}

// scale multiplies a value's numbers by f (ns → us and the like).
func (v value) scale(f float64) value {
	v.V, v.Min, v.Max = v.V*f, v.Min*f, v.Max*f
	return v
}

// allocsPerOp returns heap allocations per call of fn over n calls.
func allocsPerOp(n int, fn func(i int)) float64 {
	fn(0) // first-call allocations (lazy init) are not the steady state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i + 1)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// parallelOp runs fn from workers goroutines, calls times each, and returns
// wall nanoseconds per call.
func parallelOp(workers, calls int, fn func(worker, i int)) float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(t0)) / float64(workers*calls)
}

const us = 1e-3 // ns → us

// newCoalescer returns a coalescer whose batch function costs nothing, so a
// timing loop around Do measures the coalescer alone.
func newCoalescer() *serve.Coalescer[int, int] {
	return serve.NewCoalescer(64, 0, func(v int) string { return fmt.Sprint(v) },
		func(_ context.Context, vs []int) ([]int, error) { return vs, nil })
}

// parallelMetrics fills the three lines that need calls to overlap: the
// coalescer and the facade under 4×GOMAXPROCS goroutines — the one place
// concurrency above nproc is legitimate, because overlap is what the coalescer
// exists for. It must run BEFORE pinProcess, while the harness still has every
// CPU: on one pinned CPU goroutines take turns and nothing ever overlaps.
func parallelMetrics(ctx context.Context, res *runResult, p *prepared) error {
	workers := 4 * runtime.GOMAXPROCS(0)
	res.Info["parallel_workers"] = fmt.Sprintf("%d goroutines on %d CPUs", workers, runtime.GOMAXPROCS(0))
	// With a batch function that costs nothing no call ever finds another in
	// flight, so this is the coalescer's own cost per call under contention;
	// whether calls batch is read off the facade below, where a call is a
	// whole estimate.
	par := newCoalescer()
	res.Layer["serve.coalesce_parallel_ns"] = single(parallelOp(workers, 4000, func(w, i int) { _, _ = par.Do(ctx, w*1_000_000+i) }))

	single300, _ := workloadByName(wlSingleHot)
	in, err := buildInproc(ctx, p, single300.scaled(p.sz), "", true)
	if err != nil {
		return err
	}
	defer in.close()
	hotQ := queries(p.hot)
	for rep := 0; rep < 2; rep++ { // second sighting promotes to the resident tier
		for _, q := range hotQ {
			_, _ = in.est.EstimateCardinality(ctx, q)
		}
	}
	before := in.est.CoalescerStats()
	res.Layer["facade.parallel_estimate_us"] = single(parallelOp(workers, 1000, func(w, i int) {
		_, _ = in.est.EstimateCardinality(ctx, hotQ[(w*1000+i)%len(hotQ)])
	}) * us)
	after := in.est.CoalescerStats()
	res.Layer["serve.coalesce_avg_batch"] = single(ratio(float64(after.BatchedItems-before.BatchedItems), float64(after.Batches-before.Batches)))
	res.Info["serve.coalesce_max_batch"] = fmt.Sprint(after.MaxBatch)
	return nil
}

// layerMetrics fills every other per-layer line that comes from a timing
// loop. Failures of the harness's own setup are returned; nothing here can
// fail a correctness check.
func layerMetrics(ctx context.Context, res *runResult, p *prepared) error {
	set := func(name string, v value) { res.Layer[name] = v }
	hotQ := queries(p.hot)
	batch := hotQ[:p.sz.Batch]
	batchSQL := sqls(p.hot[:p.sz.Batch])
	fresh := p.newStream(streamLayer, p.hotKeys())

	// --- env ----------------------------------------------------------------
	set("env.nproc", single(float64(runtime.NumCPU())))
	over := make([]float64, 0, 40)
	for i := 0; i < 40; i++ {
		t0 := time.Now()
		time.Sleep(500 * time.Microsecond)
		over = append(over, float64(time.Since(t0)-500*time.Microsecond)/1e3)
	}
	set("env.sleep_overshoot_p50_us", single(median(over)))

	// --- wire ---------------------------------------------------------------
	singleBodies := make([][]byte, len(p.hot))
	for i, pr := range p.hot {
		singleBodies[i] = jsonBody(map[string]string{"query": pr.SQL})
	}
	jsonBatch := jsonBody(map[string][]string{"queries": batchSQL})
	binBatch := wire.AppendRequest(nil, batchSQL)
	cards := make([]float64, p.sz.Batch)
	for i := range cards {
		cards[i] = float64(i)*1.5 + 0.25
	}
	set("wire.json_single_decode_us", timeOp(0, func(i int) {
		var b estimateBody
		_ = serverDecode(singleBodies[i%len(singleBodies)], &b)
	}).scale(us))
	jsonExchange := func(int) {
		var b batchBody
		_ = serverDecode(jsonBatch, &b)
		_ = json.NewEncoder(io.Discard).Encode(batchReply{Cardinalities: cards, Count: len(cards)})
	}
	var out []byte
	binExchange := func(int) {
		_, _ = wire.DecodeRequest(binBatch, 1<<16)
		out = wire.AppendResponse(out[:0], cards)
	}
	set("wire.json_batch_decode_us", timeOp(0, func(int) {
		var b batchBody
		_ = serverDecode(jsonBatch, &b)
	}).scale(us))
	set("wire.binary_batch_decode_us", timeOp(0, func(int) { _, _ = wire.DecodeRequest(binBatch, 1<<16) }).scale(us))
	set("wire.json_batch_encode_us", timeOp(0, func(int) {
		_ = json.NewEncoder(io.Discard).Encode(batchReply{Cardinalities: cards, Count: len(cards)})
	}).scale(us))
	set("wire.binary_batch_encode_us", timeOp(0, func(int) { out = wire.AppendResponse(out[:0], cards) }).scale(us))
	set("wire.json_batch_allocs", single(allocsPerOp(200, jsonExchange)))
	set("wire.binary_batch_allocs", single(allocsPerOp(200, binExchange)))

	// --- sqlparse -----------------------------------------------------------
	parse := func(i int) { _, _ = p.sys.ParseQuery(p.hot[i%len(p.hot)].SQL) }
	set("sqlparse.parse_us", timeOp(0, parse).scale(us))
	set("sqlparse.parse_allocs", single(allocsPerOp(len(p.hot), parse)))

	// --- guard --------------------------------------------------------------
	gate := guard.NewGate(64)
	set("guard.gate_ns", timeOp(0, func(int) {
		if gate.Acquire() == nil {
			gate.Release()
		}
	}))
	wheel := guard.NewDeadlineWheel(time.Second)
	// The wheel serves non-cancellable parents only (a cancellable one gets a
	// real context.WithTimeout), so it is timed on the background context.
	background := context.Background()
	set("guard.deadline_ctx_ns", timeOp(0, func(int) { _, _ = wheel.Context(background) }))
	breaker := guard.NewBreaker(guard.BreakerConfig{Window: 128, LatencyP99: 250 * time.Millisecond})
	set("guard.breaker_ns", timeOp(0, func(int) {
		if ok, _ := breaker.Allow(); ok {
			breaker.Record(100*time.Microsecond, false)
		}
	}))

	// --- serve --------------------------------------------------------------
	solo := newCoalescer()
	set("serve.coalesce_solo_ns", timeOp(0, func(i int) { _, _ = solo.Do(ctx, i) }))

	// --- pool ---------------------------------------------------------------
	single300, _ := workloadByName(wlSingleHot)
	topk, _ := workloadByName(wlTopKPool)
	single300, topk = single300.scaled(p.sz), topk.scaled(p.sz)
	pool300, err := p.seededPool(ctx, single300.Pool)
	if err != nil {
		return err
	}
	poolK, err := p.seededPool(ctx, topk.Pool)
	if err != nil {
		return err
	}
	var arena []pool.Entry
	set("pool.match_us", timeOp(0, func(i int) { arena = pool300.AppendMatching(arena[:0], hotQ[i%len(hotQ)]) }).scale(us))
	set("pool.topk_us", timeOp(0, func(i int) { arena = poolK.AppendTopK(arena[:0], hotQ[i%len(hotQ)], topk.MaxCandidates) }).scale(us))
	const evictAdds = 1400
	addProbes, err := fresh.take(evictAdds)
	if err != nil {
		return err
	}
	capped, err := p.seededPool(ctx, single300.Pool, crn.WithPoolCap(single300.Pool))
	if err != nil {
		return err
	}
	set("pool.add_evict_us", timeOp(evictAdds, func(i int) { capped.Add(addProbes[i%evictAdds].Q, 1) }).scale(us))

	// --- feature ------------------------------------------------------------
	enc, err := feature.NewEncoder(p.sys.Schema(), p.sys.DB())
	if err != nil {
		return err
	}
	set("feature.encode_us", timeOp(0, func(i int) { _, _ = enc.EncodeQuery(hotQ[i%len(hotQ)]) }).scale(us))

	// --- nn -----------------------------------------------------------------
	res.Info["nn.kernel_isa"] = nn.KernelISA()
	a, b, dst := nn.NewMatrix(128, 128), nn.NewMatrix(128, 128), nn.NewMatrix(128, 128)
	for i := range a.Data {
		a.Data[i], b.Data[i] = float64(i%17)*0.25-1, float64(i%13)*0.5-2
	}
	set("nn.matmul128_us", timeOp(0, func(int) { nn.MatMul(dst, a, b) }).scale(us))
	vec := func(n int, f float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i%11)*f - 1
		}
		return v
	}
	cols := 2 * p.sz.Hidden
	z, b0, b1 := vec(cols, 0.3), vec(cols, 0.2), vec(cols, 0.1)
	set("nn.axpy2_ns", timeOp(0, func(int) { nn.Axpy2(z, b0, b1, 1e-9, -1e-9) }))
	var sink float64
	set("nn.bias_relu_dot_ns", timeOp(0, func(int) { sink += nn.BiasReLUDot(z, b0, b1) }))

	// --- crn ----------------------------------------------------------------
	model, err := icrn.Load(p.modelBlob)
	if err != nil {
		return err
	}
	rates := &icrn.Rates{M: model, Enc: enc, Cache: icrn.NewRepCache(icrn.DefaultRepCacheSize)}
	// rateCall lays a probe's pool matches out the way card.Estimator does:
	// the probe once, each match once, two index pairs per match.
	type rateCall struct {
		list []query.Query
		idx  [][2]int
	}
	layout := func(q query.Query) rateCall {
		rc := rateCall{list: []query.Query{q}}
		for _, m := range pool300.AppendMatching(nil, q) {
			if m.Card == 0 {
				continue
			}
			mi := len(rc.list)
			rc.list = append(rc.list, m.Q)
			rc.idx = append(rc.idx, [2]int{mi, 0}, [2]int{0, mi})
		}
		return rc
	}
	hitCalls := make([]rateCall, 256)
	for i := range hitCalls {
		hitCalls[i] = layout(hotQ[i%len(hotQ)])
		for rep := 0; rep < 2; rep++ { // second sighting promotes to the resident tier
			if _, err := rates.EstimateRatesIndexed(ctx, hitCalls[i].list, hitCalls[i].idx); err != nil {
				return err
			}
		}
	}
	hit := func(i int) { c := hitCalls[i%len(hitCalls)]; _, _ = rates.EstimateRatesIndexed(ctx, c.list, c.idx) }
	set("crn.rates_hit_us", timeOp(0, hit).scale(us))
	set("crn.rates_allocs", single(allocsPerOp(len(hitCalls), hit)))
	const missCalls = 1400
	missProbes, err := fresh.take(missCalls)
	if err != nil {
		return err
	}
	misses := make([]rateCall, missCalls)
	for i, pr := range missProbes {
		misses[i] = layout(pr.Q)
	}
	set("crn.rates_miss_us", timeOp(missCalls, func(i int) {
		c := misses[i%missCalls]
		_, _ = rates.EstimateRatesIndexed(ctx, c.list, c.idx)
	}).scale(us))
	sets := make([][][]float64, len(batch))
	for i, q := range batch {
		if sets[i], err = enc.EncodeQuery(q); err != nil {
			return err
		}
	}
	ws := nn.NewWorkspace()
	set("crn.setmodule_us_per_query", timeOp(0, func(int) {
		ws.Reset()
		model.EncodeSetsWS(ws, sets)
	}).scale(us/float64(len(batch))))
	reps1, reps2 := model.EncodeSets(sets)
	pred := model.NewPairPredictor(reps1, reps2)
	pairs := make([][2]int, 2048)
	for i := range pairs {
		pairs[i] = [2]int{i % len(batch), (i * 7) % len(batch)}
	}
	scores := make([]float64, len(pairs))
	set("crn.pairhead_ns_per_pair", timeOp(0, func(int) {
		ws.Reset()
		pred.PredictInto(scores, pairs, ws)
	}).scale(1/float64(len(pairs))))
	set("crn.train_s", single(p.trainS))

	// --- card / pg / facade -------------------------------------------------
	plain, err := buildInproc(ctx, p, single300, "", false)
	if err != nil {
		return err
	}
	defer plain.close()
	withTel, err := buildInproc(ctx, p, single300, "", true)
	if err != nil {
		return err
	}
	defer withTel.close()
	cardEst := card.New(rates, pool300)
	cardEst.Fallback = plain.base
	for _, q := range hotQ { // warm all three estimators' rep caches
		for rep := 0; rep < 2; rep++ {
			_, _ = cardEst.EstimateCardCtx(ctx, q)
			_, _ = plain.est.EstimateCardinality(ctx, q)
			_, _ = withTel.est.EstimateCardinality(ctx, q)
		}
	}
	cardOne := timeOp(0, func(i int) { _, _ = cardEst.EstimateCardCtx(ctx, hotQ[i%len(hotQ)]) }).scale(us)
	set("card.estimate_us", cardOne)
	set("card.estimate_batch64_us", timeOp(0, func(int) { _, _ = cardEst.EstimateCards(ctx, batch) }).scale(us))
	set("pg.estimate_us", timeOp(0, func(i int) { _, _ = plain.base.EstimateCard(hotQ[i%len(hotQ)]) }).scale(us))

	facade := func(in *inproc) func(int) {
		return func(i int) { _, _ = in.est.EstimateCardinality(ctx, hotQ[i%len(hotQ)]) }
	}
	// Telemetry on and off are timed alternately, so a slow phase of the
	// machine lands on both.
	var on, off []float64
	for round := 0; round < 3; round++ {
		off = append(off, timeOp(0, facade(plain)).V)
		on = append(on, timeOp(0, facade(withTel)).V)
	}
	facadeOne := summarize(on).scale(us)
	set("facade.estimate_us", facadeOne)
	set("facade.telemetry_overhead_share", single(ratio(median(on)-median(off), median(off))))
	set("facade.overhead_us", single(facadeOne.V-cardOne.V))
	set("facade.batch64_us", timeOp(0, func(int) { _, _ = withTel.est.EstimateCardinalityBatch(ctx, batch) }).scale(us))
	set("facade.estimate_allocs", single(allocsPerOp(len(hotQ), facade(withTel))))

	// --- exec ---------------------------------------------------------------
	// A fresh executor and fresh queries: its memo never answers.
	ex, err := exec.New(p.sys.DB())
	if err != nil {
		return err
	}
	const execCalls = 240
	execProbes, err := fresh.take(execCalls * 3)
	if err != nil {
		return err
	}
	byJoins := map[int][]query.Query{}
	for _, pr := range execProbes {
		byJoins[pr.Q.NumJoins()] = append(byJoins[pr.Q.NumJoins()], pr.Q)
	}
	var all []float64
	for j := 0; j <= 2; j++ {
		qs := byJoins[j]
		if len(qs) == 0 {
			return fmt.Errorf("fresh stream drew no %d-join query", j)
		}
		t := make([]float64, len(qs))
		for i, q := range qs {
			t0 := time.Now()
			_, _ = ex.Cardinality(q)
			t[i] = float64(time.Since(t0)) / 1e3
		}
		set(fmt.Sprintf("exec.cardinality_j%d_us", j), value{V: median(t), N: len(t)})
		all = append(all, t...)
	}
	set("exec.cardinality_us", value{V: median(all), N: len(all)})

	// --- online -------------------------------------------------------------
	const feedbacks = 1400     // fresh records offered to a bare collector
	const retrainRecords = 512 // fresh records fed to the adaptive estimator, then retrained on
	fbProbes, err := fresh.take(feedbacks + retrainRecords)
	if err != nil {
		return err
	}
	truths := make([]int64, retrainRecords)
	for i := range truths {
		if truths[i], err = p.sys.TrueCardinality(ctx, fbProbes[feedbacks+i].Q); err != nil {
			return err
		}
	}
	offerPool, err := p.seededPool(ctx, single300.Pool)
	if err != nil {
		return err
	}
	col := online.NewCollector(offerPool, 1<<16)
	now := time.Now()
	set("online.offer_us", timeOp(feedbacks, func(i int) { _, _ = col.Offer(fbProbes[i%feedbacks].Q, 7, now) }).scale(us))
	mem, err := buildInproc(ctx, p, workloadSpec{Name: "memory-only", Pool: single300.Pool, Durable: true}, "", false)
	if err != nil {
		return err
	}
	defer mem.close()
	fed := 0
	feed := func(int) {
		k := fed % retrainRecords
		_, _ = mem.adaptive.RecordFeedbackQuery(ctx, fbProbes[feedbacks+k].Q, truths[k])
		fed++
	}
	set("online.feedback_us", timeOp(retrainRecords, feed).scale(us))
	for fed < retrainRecords {
		feed(fed)
	}
	// One synchronous retrain cycle over exactly retrainRecords staged records.
	t0 := time.Now()
	if _, err := mem.adaptive.Retrain(ctx); err != nil {
		return fmt.Errorf("retrain cycle: %w", err)
	}
	set("online.retrain_cycle_ms", single(float64(time.Since(t0))/1e6))
	res.Info["online.retrain_records"] = fmt.Sprint(mem.adaptive.AdaptationStats().Collector.Drained)

	// --- durable ------------------------------------------------------------
	return durableMetrics(res, p)
}

// durableMetrics times the WAL and the checkpoint writer on the sandbox's
// filesystem (its fsync, not a device's).
func durableMetrics(res *runResult, p *prepared) error {
	set := func(name string, v value) { res.Layer[name] = v }
	dir, err := os.MkdirTemp(p.work, "layer-durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	now := time.Now()
	sql := func(i int) string { return p.hot[i%len(p.hot)].SQL }

	walDir := dir + "/interval"
	wal, err := durable.OpenWAL(walDir, durable.WALOptions{Sync: durable.SyncInterval})
	if err != nil {
		return err
	}
	set("durable.wal_append_us", timeOp(0, func(i int) { _, _ = wal.Append(sql(i), int64(i), now) }).scale(us))
	st := wal.Stats()
	set("durable.wal_bytes_per_record", single(ratio(float64(st.Bytes), float64(st.Appends))))
	if err := wal.Close(); err != nil {
		return err
	}
	// Recovery replay of everything just appended.
	if wal, err = durable.OpenWAL(walDir, durable.WALOptions{Sync: durable.SyncInterval}); err != nil {
		return err
	}
	t0 := time.Now()
	replayed, err := wal.Replay(0, func(durable.FeedbackRecord) error { return nil })
	if err != nil {
		return err
	}
	set("durable.replay_records_per_s", single(ratio(float64(replayed), time.Since(t0).Seconds())))
	if err := wal.Close(); err != nil {
		return err
	}

	always, err := durable.OpenWAL(dir+"/always", durable.WALOptions{Sync: durable.SyncAlways})
	if err != nil {
		return err
	}
	set("durable.wal_append_always_us", timeOp(0, func(i int) { _, _ = always.Append(sql(i), int64(i), now) }).scale(us))
	if err := always.Close(); err != nil {
		return err
	}

	// A checkpoint of the served state: model blob plus the ingest pool.
	ingest, _ := workloadByName(wlIngestMix)
	qp, err := p.seededPool(context.Background(), ingest.scaled(p.sz).Pool)
	if err != nil {
		return err
	}
	var poolBlob bytes.Buffer
	if err := qp.Save(&poolBlob); err != nil {
		return err
	}
	var ms []float64
	for gen := uint64(1); gen <= 5; gen++ {
		t0 := time.Now()
		if _, err := durable.WriteCheckpoint(dir+"/ckpt", &durable.Checkpoint{Generation: gen, AppliedLSN: gen,
			Model: p.modelBlob, Pool: poolBlob.Bytes(), WrittenAt: now}); err != nil {
			return err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	set("durable.checkpoint_ms", summarize(ms))
	return nil
}
