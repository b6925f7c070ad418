package crn

import (
	"context"
	"runtime"
	"sync"

	"crn/internal/contain"
	"crn/internal/feature"
	"crn/internal/nn"
	"crn/internal/query"
	"crn/internal/telemetry"
	"crn/internal/workload"
)

// headChunk bounds the number of pairs per head forward pass; chunking keeps
// peak memory flat on large batches and gives cancellation checks a
// bounded-latency hook between passes.
const headChunk = 2048

// Rates adapts a trained Model and a feature Encoder to
// contain.RateEstimator, the containment-rate interface of the cardinality
// technique. Each batch call runs the set modules once per listed query and
// evaluates the pair head in matrix-batched chunks — the amortization that
// makes batched serving profitable (a pool entry occurs in two pairs per
// probe, and across every probe of a batch). Rates is stateless apart from
// the frozen model and encoder (and the optional representation cache, which
// is itself concurrency-safe), so it is safe for concurrent use.
type Rates struct {
	M   *Model
	Enc *feature.Encoder

	// Cache, when non-nil, memoizes set-module representations by
	// canonical query key across calls, so the stable pool entries of a
	// serving deployment are encoded once per pool version instead of once
	// per batch. The cache owner is responsible for invalidation (see
	// RepCache); cached and uncached paths are bit-identical because a
	// representation depends only on its own query.
	Cache *RepCache

	// Stages, when non-nil, receives the adapter's per-pass stage spans:
	// cache resolution (pairPredictor — resident lookups plus the
	// set-module pass over misses) and the matrix-batched head forward.
	// Set before serving traffic; nil keeps the hot path free of clock
	// reads.
	Stages *telemetry.StageSet
}

// NewRates creates the adapter (no representation cache; set Cache or use
// the facade, which wires one per estimator).
func NewRates(m *Model, enc *feature.Encoder) *Rates {
	return &Rates{M: m, Enc: enc}
}

// EncodePairs featurizes labeled pairs into training samples, in order.
func EncodePairs(enc *feature.Encoder, pairs []workload.LabeledPair) ([]Sample, error) {
	out := make([]Sample, len(pairs))
	for i, lp := range pairs {
		v1, err := enc.EncodeQuery(lp.Q1)
		if err != nil {
			return nil, err
		}
		v2, err := enc.EncodeQuery(lp.Q2)
		if err != nil {
			return nil, err
		}
		out[i] = Sample{V1: v1, V2: v2, Rate: lp.Rate}
	}
	return out, nil
}

// TrainOnPairs encodes labeled training and validation pairs with enc and
// trains a fresh model with cfg on them: the one offline training path.
// progress, if non-nil, is invoked after every epoch.
func TrainOnPairs(ctx context.Context, cfg Config, enc *feature.Encoder, train, val []workload.LabeledPair, progress func(EpochStats)) (*Model, []EpochStats, error) {
	trainS, err := EncodePairs(enc, train)
	if err != nil {
		return nil, nil, err
	}
	valS, err := EncodePairs(enc, val)
	if err != nil {
		return nil, nil, err
	}
	m := NewModel(cfg, enc.Dim())
	stats, err := m.Train(ctx, trainS, valS, progress)
	if err != nil {
		return nil, nil, err
	}
	return m, stats, nil
}

// EstimateRate estimates the single rate q1 ⊂% q2.
func (r *Rates) EstimateRate(q1, q2 query.Query) (float64, error) {
	return contain.Rate(context.Background(), r, q1, q2)
}

// pairPredictor builds the precomputed serving head for one request's query
// list. Without a cache it encodes every query and multiplies out the
// partial products; with a cache it resolves as much as possible from the
// resident tier:
//
//   - Resident hits (the stable pool entries, in steady state) cost a map
//     read under the cache's read lock — their representation and
//     partial-product rows are then referenced in place through the view
//     the pass took, no lock, no copy, no arithmetic. This is the
//     pool-resident head precompute: a single-query estimate computes only
//     its own probe side.
//   - Misses are feature-encoded and pushed through the set modules in one
//     batched pass, their partial products computed in two small matmuls;
//     those outputs are the request's extra rows as they stand. A miss the
//     sighting set has seen before (or, with warm set, every miss) is then
//     promoted into the resident tier; a first sighting only leaves its
//     key's hash in the set.
//
// Every resolved row is bit-identical with and without the cache because
// each row depends only on its own query and the frozen weights, and no
// kernel lets batch composition affect a row's summation order.
func (r *Rates) pairPredictor(ws *nn.Workspace, queries []query.Query, warm bool) (*PairPredictor, error) {
	if r.Cache == nil {
		sets := make([][][]float64, len(queries))
		for i, q := range queries {
			v, err := r.Enc.EncodeQuery(q)
			if err != nil {
				return nil, err
			}
			sets[i] = v
		}
		reps1, reps2 := r.M.EncodeSetsWS(ws, sets)
		return r.M.NewPairPredictorWS(ws, reps1, reps2), nil
	}

	// Resolve resident rows; each miss is encoded and addressed as the
	// extra row past the view's rows that its set-module output will fill.
	n := len(queries)
	rowOf := ws.TakeInts(n)
	keys := make([]string, n)
	for i := range queries {
		keys[i] = queries[i].Key()
	}
	view := r.Cache.resolve(keys, rowOf)
	var missSets [][][]float64
	var missQ []int // query positions of the misses
	for i := range queries {
		if rowOf[i] >= 0 {
			continue
		}
		v, err := r.Enc.EncodeQuery(queries[i])
		if err != nil {
			return nil, err
		}
		rowOf[i] = view.n + len(missQ)
		missSets = append(missSets, v)
		missQ = append(missQ, i)
	}
	r.Cache.count(n-len(missQ), len(missQ))
	if len(missQ) == 0 {
		return &PairPredictor{f: r.M.headFold(), res: view, rowOf: rowOf}, nil
	}
	reps1, reps2 := r.M.EncodeSetsWS(ws, missSets)
	pred := r.M.NewPairPredictorWS(ws, reps1, reps2)
	pred.res, pred.rowOf = view, rowOf

	promos := make([]promotion, len(missQ))
	for k, i := range missQ {
		promos[k] = promotion{
			key:  keys[i],
			rep1: reps1.Row(k), rep2: reps2.Row(k),
			pp1: pred.p1.Row(k), pp2: pred.p2.Row(k),
		}
	}
	r.Cache.promote(view, promos, warm)
	return pred, nil
}

// warmChunk is the number of queries one Warm pass resolves: the workspace
// a pass grows is parked on the model's free list for its lifetime (see
// Model.wsFree), so a warm must size it like a serving request, not like the
// whole pool.
const warmChunk = 32

// Warm precomputes the serving-side state for the given queries — set-module
// representations and factorized-head partial products — and promotes it
// straight into the zero-copy resident tier, skipping the sighting rule the
// serving path applies. A model generation warms its cache with the pool's
// working set before it serves, off the hot path, so its first estimates
// already run at steady-state cost instead of re-encoding the whole pool.
// The queries go through in chunks of warmChunk. A Rates without a cache is
// a no-op.
func (r *Rates) Warm(queries []query.Query) error {
	if r.Cache == nil || len(queries) == 0 {
		return nil
	}
	ws := r.M.getWS()
	defer r.M.putWS(ws)
	for lo := 0; lo < len(queries); lo += warmChunk {
		ws.Reset()
		if _, err := r.pairPredictor(ws, queries[lo:min(lo+warmChunk, len(queries))], true); err != nil {
			return err
		}
	}
	return nil
}

// EstimateRatesIndexed implements contain.RateEstimator: one
// set-module pass over the cache-missing queries (resident cache hits cost
// a map read, see pairPredictor), then the head over every pair, in chunks
// of headChunk pairs, parallelized over GOMAXPROCS goroutines and checking
// ctx before every chunk. All request-local scratch — encoded sets, extra
// representation rows, per-chunk accumulators — lives in pooled
// workspaces, so a pass over a resident working set spends its time in the
// pair-head math, not in the allocator or the precompute.
func (r *Rates) EstimateRatesIndexed(ctx context.Context, queries []query.Query, idx [][2]int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(idx) == 0 {
		return nil, nil
	}
	ws := r.M.getWS()
	defer r.M.putWS(ws)
	// Sampled pass timer (nil-safe on a nil stage set): most passes skip
	// the clock entirely, the sampled ones record cache-lookup and
	// nn-forward spans at inverse-probability weight.
	st := r.Stages.Sample()
	// One precomputation — weight fold (memoized on the model),
	// representations and partial products (resolved against the serving
	// cache) — shared by every chunk below.
	pred, err := r.pairPredictor(ws, queries, false)
	if err != nil {
		return nil, err
	}
	if r.Stages != nil {
		st.Mark(r.Stages.CacheLookup)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	out := make([]float64, len(idx))
	nChunks := (len(idx) + headChunk - 1) / headChunk
	workers := runtime.GOMAXPROCS(0)
	if workers > nChunks {
		workers = nChunks
	}
	if workers <= 1 {
		for lo := 0; lo < len(idx); lo += headChunk {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			hi := min(lo+headChunk, len(idx))
			pred.PredictInto(out[lo:hi], idx[lo:hi], ws)
		}
	} else {
		// The head pass only reads trained weights, so chunks evaluate
		// concurrently without synchronization; each worker borrows its own
		// scratch workspace.
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cws := nn.GetWorkspace()
				defer nn.PutWorkspace(cws)
				for lo := range next {
					if ctx.Err() != nil {
						continue
					}
					hi := min(lo+headChunk, len(idx))
					pred.PredictInto(out[lo:hi], idx[lo:hi], cws)
				}
			}()
		}
		for lo := 0; lo < len(idx); lo += headChunk {
			next <- lo
		}
		close(next)
		wg.Wait()
	}
	if r.Stages != nil {
		st.Mark(r.Stages.NNForward)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
