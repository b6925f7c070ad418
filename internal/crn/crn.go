// Package crn implements the paper's primary contribution: the Containment
// Rate Network (§3.2), a specialized deep-learning model that estimates the
// containment rate Q1 ⊂% Q2 of two queries over a specific database.
//
// The model runs in three stages:
//
//  1. each query is converted to a set of feature vectors (package feature);
//  2. each set is compressed to one representative vector by its own
//     one-layer set module MLPi with average pooling (§3.2.2):
//     Qvec_i = 1/|V_i| Σ ReLU(v·U_i + b_i);
//  3. the two representative vectors are combined by
//     Expand(v1,v2) = [v1, v2, |v1−v2|, v1⊙v2] and passed through the
//     two-layer head MLPout with a Sigmoid output in [0,1] (§3.2.3).
//
// Note on ⊙: the paper's text calls it the dot product, but the declared
// head input size 4H requires the elementwise product (the dimensions only
// work out that way); this is also the standard Expand used by siamese
// heads, so we implement the elementwise product.
//
// Training minimizes the mean q-error of predicted containment rates with
// Adam and early stopping on a validation split (§3.2.4, §3.3); the epoch
// loop is nn.Fit, shared with the MSCN baseline, and this package supplies
// the per-batch forward/backward step, the loss and the validation metric.
//
// Performance: the training loop and every serving entry point run on
// nn.Workspace scratch arenas — one warmed buffer set per batch shape, so
// the steady state allocates nothing per batch (see the package nn docs for
// the workspace contract). Serving additionally offers a RepCache that
// memoizes set-module representations by canonical query key across
// requests; see RepCache for its invalidation semantics. Optimized and
// unoptimized paths are numerically pinned to each other by the tests in
// equivalence_test.go.
package crn

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"crn/internal/metrics"
	"crn/internal/nn"
)

// ErrDimMismatch is the sentinel for feature-dimension disagreements: a
// serialized model is bound to the featurization (schema one-hots, column
// statistics) it was trained with, and re-binding it to a database with a
// different vector dimension L is an error callers can match with errors.Is.
var ErrDimMismatch = errors.New("crn: model dimension mismatch")

// Config collects the model and training hyperparameters. The paper's
// defaults (§3.5: H=512, batch 128, learning rate 0.001) are scaled down by
// DefaultConfig to fit this repository's smaller synthetic database; both
// are valid settings of the same model.
type Config struct {
	Hidden    int     // H, the shared hidden width of all modules (§3.4)
	LR        float64 // Adam learning rate
	BatchSize int
	Epochs    int     // maximum epochs; early stopping may end sooner
	Patience  int     // early-stopping patience in epochs (0 disables)
	Seed      int64   // weight init and batch shuffling seed
	Loss      string  // "q-error" (paper default, also ""), "mse" or "mae"; training rejects any other
	RateFloor float64 // clamp for rates inside the q-error loss
	// LRDecay, when in (0,1), multiplies the learning rate once validation
	// has not improved for Patience/2 epochs (reduce-on-plateau), helping
	// the small-budget training escape plateaus the paper's 120-epoch runs
	// ride out.
	LRDecay float64
}

// DefaultConfig returns the repository-scale defaults.
func DefaultConfig() Config {
	return Config{
		Hidden:    64,
		LR:        0.001,
		BatchSize: 64,
		Epochs:    60,
		Patience:  10,
		Seed:      1,
		Loss:      "q-error",
		RateFloor: 1e-3,
		LRDecay:   0.3,
	}
}

// PaperConfig returns the paper's full-scale hyperparameters (§3.5).
func PaperConfig() Config {
	c := DefaultConfig()
	c.Hidden = 512
	c.BatchSize = 128
	c.Epochs = 120
	return c
}

// Sample is one training pair: the feature-vector sets of both queries and
// the true containment rate Q1 ⊂% Q2 as a fraction in [0,1].
type Sample struct {
	V1, V2 [][]float64
	Rate   float64
}

// EpochStats records one training epoch (Figures 3 and 4).
type EpochStats = nn.EpochStats

// Model is a trained (or initialized) CRN.
type Model struct {
	cfg Config
	dim int // feature vector dimension L

	enc1, enc2 *nn.SetEncoder // MLP1, MLP2
	out1, out2 *nn.Dense      // MLPout's two layers: 4H->2H, 2H->1

	// wsFree recycles prediction workspaces across calls. Unlike a
	// sync.Pool it is never cleared by the garbage collector, so the
	// steady-state serving loop keeps its warmed arenas for the model's
	// whole lifetime; the channel bounds how many arenas idle concurrency
	// can strand.
	wsFree chan *nn.Workspace

	// foldCache memoizes the folded pair-head weights (see headFold):
	// they depend only on the frozen trained weights, so serving computes
	// them once per model instead of once per request. Training invalidates
	// the fold (weights mutate); the pointer swap makes the invalidation
	// safe against concurrent readers, which keep their loaded fold.
	foldCache atomic.Pointer[headFold]
}

// NewModel initializes an untrained CRN for feature dimension dim.
func NewModel(cfg Config, dim int) *Model {
	if cfg.Hidden <= 0 {
		panic("crn: Hidden must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	h := cfg.Hidden
	return &Model{
		cfg:    cfg,
		dim:    dim,
		enc1:   nn.NewSetEncoder(rng, dim, h),
		enc2:   nn.NewSetEncoder(rng, dim, h),
		out1:   nn.NewDense(rng, 4*h, 2*h),
		out2:   nn.NewDense(rng, 2*h, 1),
		wsFree: make(chan *nn.Workspace, 8),
	}
}

// getWS borrows a workspace from the model's free list (or creates one).
func (m *Model) getWS() *nn.Workspace {
	select {
	case ws := <-m.wsFree:
		return ws
	default:
		return nn.NewWorkspace()
	}
}

// putWS resets a workspace and returns it to the free list; surplus
// workspaces beyond the list's capacity are dropped for the GC.
func (m *Model) putWS(ws *nn.Workspace) {
	ws.Reset()
	select {
	case m.wsFree <- ws:
	default:
	}
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// Dim returns the expected feature vector dimension L.
func (m *Model) Dim() int { return m.dim }

// Params returns all trainable tensors: U1, b1, U2, b2, Uout1, bout1,
// Uout2, bout2 (§3.5.3).
func (m *Model) Params() []*nn.Param {
	var out []*nn.Param
	out = append(out, m.enc1.Params()...)
	out = append(out, m.enc2.Params()...)
	out = append(out, m.out1.Params()...)
	out = append(out, m.out2.Params()...)
	return out
}

// NumParams returns the scalar parameter count; for hidden width H and
// input width L it equals 2·L·H + 8·H² + 6·H + 1 + (2H + ... biases), the
// paper's §3.5.3 accounting.
func (m *Model) NumParams() int { return nn.NumParams(m.Params()) }

// forwardCache holds intermediates of one forward pass for backprop. All
// matrices are workspace-backed when a workspace is supplied, so a training
// loop reuses one buffer set per batch shape.
type forwardCache struct {
	b1, b2           nn.SetBatch
	h1, h2           [1]*nn.Matrix // per-element hidden activations of MLP1, MLP2
	q1, q2           *nn.Matrix    // pooled representative vectors
	expanded         *nn.Matrix    // n×4H
	a1               *nn.Matrix    // ReLU(out1) activations
	preSig, sigmoids *nn.Matrix
}

// forward runs the three CRN stages over a batch of pairs, writing every
// intermediate into ws (nil ws allocates) and reusing the cache struct.
func (m *Model) forward(ws *nn.Workspace, pairs []Sample, c *forwardCache) *forwardCache {
	if c == nil {
		c = &forwardCache{}
	}
	n := len(pairs)
	c.b1 = nn.BuildSetBatch(ws, n, m.dim, func(i int) [][]float64 { return pairs[i].V1 })
	c.b2 = nn.BuildSetBatch(ws, n, m.dim, func(i int) [][]float64 { return pairs[i].V2 })
	c.q1 = m.enc1.Forward(ws, c.b1, c.h1[:])
	c.q2 = m.enc2.Forward(ws, c.b2, c.h2[:])

	h := m.cfg.Hidden
	c.expanded = ws.Take(n, 4*h)
	for i := 0; i < n; i++ {
		r1, r2 := c.q1.Row(i), c.q2.Row(i)
		dst := c.expanded.Row(i)
		for j := 0; j < h; j++ {
			dst[j] = r1[j]
			dst[h+j] = r2[j]
			dst[2*h+j] = math.Abs(r1[j] - r2[j])
			dst[3*h+j] = r1[j] * r2[j]
		}
	}
	c.a1 = m.out1.ForwardReLU(ws, c.expanded)
	c.preSig = m.out2.Forward(ws, c.a1)
	c.sigmoids = nn.SigmoidForward(ws, c.preSig)
	return c
}

// backward propagates the loss gradient dOut (n×1, w.r.t. the sigmoid
// outputs) and accumulates parameter gradients. The set encoders are the
// first layer, so no input gradients are materialized anywhere.
func (m *Model) backward(ws *nn.Workspace, c *forwardCache, dOut *nn.Matrix) {
	dPre := nn.SigmoidBackward(ws, dOut, c.sigmoids)
	dA1 := m.out2.Backward(ws, c.a1, dPre, true)
	dExp := m.out1.BackwardReLU(ws, c.expanded, c.a1, dA1, true)

	h := m.cfg.Hidden
	n := dExp.Rows
	dQ1 := ws.Take(n, h)
	dQ2 := ws.Take(n, h)
	for i := 0; i < n; i++ {
		r1, r2 := c.q1.Row(i), c.q2.Row(i)
		src := dExp.Row(i)
		d1, d2 := dQ1.Row(i), dQ2.Row(i)
		for j := 0; j < h; j++ {
			sign := 0.0
			if diff := r1[j] - r2[j]; diff > 0 {
				sign = 1
			} else if diff < 0 {
				sign = -1
			}
			d1[j] = src[j] + sign*src[2*h+j] + r2[j]*src[3*h+j]
			d2[j] = src[h+j] - sign*src[2*h+j] + r1[j]*src[3*h+j]
		}
	}
	m.enc1.Backward(ws, c.b1, c.h1[:], dQ1)
	m.enc2.Backward(ws, c.b2, c.h2[:], dQ2)
}

// Predict estimates the containment rate of one encoded pair in [0,1].
func (m *Model) Predict(v1, v2 [][]float64) float64 {
	var out [1]float64
	m.PredictBatchInto(out[:], []Sample{{V1: v1, V2: v2}})
	return out[0]
}

// PredictBatch estimates containment rates for a batch of encoded pairs.
// It is safe for concurrent use on a trained model.
func (m *Model) PredictBatch(pairs []Sample) []float64 {
	out := make([]float64, len(pairs))
	m.PredictBatchInto(out, pairs)
	return out
}

// PredictBatchInto is PredictBatch writing into a caller-owned slice
// (len(dst) must be ≥ len(pairs)). The forward pass runs on a pooled
// workspace, so steady-state batched inference allocates nothing.
func (m *Model) PredictBatchInto(dst []float64, pairs []Sample) {
	ws := m.getWS()
	defer m.putWS(ws) // deferred so a shape-check panic cannot strand the arena
	var c forwardCache
	m.forward(ws, pairs, &c)
	copy(dst, c.sigmoids.Data)
}

// EncodeSets runs both set modules (MLP1, MLP2) once over a list of unique
// feature-vector sets, returning one representative vector per set and per
// module. Together with PairPredictor it factors the forward pass so a
// query recurring in many pairs — every pool entry does, twice per probe —
// is pushed through the set modules once per batch instead of once per pair.
// Safe for concurrent use on a trained model.
func (m *Model) EncodeSets(sets [][][]float64) (reps1, reps2 *nn.Matrix) {
	return m.EncodeSetsWS(nil, sets)
}

// EncodeSetsWS is EncodeSets with workspace-backed storage: the returned
// matrices live in ws and are valid until its next Reset.
func (m *Model) EncodeSetsWS(ws *nn.Workspace, sets [][][]float64) (reps1, reps2 *nn.Matrix) {
	b := nn.BuildSetBatch(ws, len(sets), m.dim, func(i int) [][]float64 { return sets[i] })
	return m.enc1.Forward(ws, b, nil), m.enc2.Forward(ws, b, nil)
}

// headFold is the pair-head weight layout precomputed for serving: MLPout's
// first weight matrix split into its four H-row blocks W1..W4 with the
// per-side blocks folded (W1+W3, W2+W3 — see PairPredictor for the
// factorization). The fold depends only on the trained weights, so it is
// computed once per model (headFold on Model) and shared by every predictor
// and every cached partial product; w3/w4/b1/w2 are views into the live
// parameter storage, valid while the weights stay frozen (training
// invalidates the fold).
type headFold struct {
	h        int
	w13, w23 *nn.Matrix // H×2H folded per-side weights: W1+W3, W2+W3
	w3, w4   []float64  // raw W3 and W4 blocks (views)
	b1, w2   []float64  // first-layer bias, second-layer weights (views)
	b2       float64
}

// headFold returns the memoized folded head weights, computing them on
// first use. Concurrent first calls may both compute; the CAS keeps one
// winner and both results are bit-identical (same frozen weights, same
// deterministic arithmetic).
func (m *Model) headFold() *headFold {
	if f := m.foldCache.Load(); f != nil {
		return f
	}
	h := m.cfg.Hidden
	cols := 2 * h
	w1 := m.out1.W.W // 4H×2H, row-major
	f := &headFold{
		h:   h,
		w13: nn.NewMatrix(h, cols),
		w23: nn.NewMatrix(h, cols),
		w3:  w1[2*h*cols : 3*h*cols],
		w4:  w1[3*h*cols : 4*h*cols],
		b1:  m.out1.B.W,
		w2:  m.out2.W.W,
		b2:  m.out2.B.W[0],
	}
	for i := range f.w13.Data {
		f.w13.Data[i] = w1[i] + f.w3[i]
		f.w23.Data[i] = w1[h*cols+i] + f.w3[i]
	}
	m.foldCache.CompareAndSwap(nil, f)
	if g := m.foldCache.Load(); g != nil {
		return g
	}
	// An invalidation raced between the CAS and the re-load; the locally
	// built fold is still a consistent snapshot, so serve with it rather
	// than hand the caller a nil.
	return f
}

// invalidateHeadFold discards the memoized fold; called whenever the
// weights are about to change (training) or have just changed (best-weight
// restore), so serving after training refolds from the new weights.
func (m *Model) invalidateHeadFold() { m.foldCache.Store(nil) }

// PairPredictor is the precomputed serving head for one batch of
// representations: the per-representation partial products of the factorized
// Expand layer, built once and shared across every (possibly concurrent)
// pair-chunk evaluation. Safe for concurrent Predict calls.
//
// The head input Expand(v1,v2) = [v1, v2, |v1−v2|, v1⊙v2] splits MLPout's
// first weight matrix into four H-row blocks W1..W4. With the identity
// |a−b| = a+b−2·min(a,b), the pre-activation becomes
//
//	v1·(W1+W3) + v2·(W2+W3) + Σ_k (v1⊙v2)[k]·W4[k] − 2·min(v1,v2)[k]·W3[k]
//
// where the per-pair sum runs only over coordinates nonzero in BOTH
// representations (the set modules pool ReLU outputs, so representations
// are non-negative and min(a,0) = 0 = a·0). The first two terms depend on
// one representation each and are precomputed, then reused across every
// pair that mentions the representation — the queries-pool scan of a
// 64-probe batch mentions each pool entry up to 128 times, so per pair only
// the sparse intersection term remains.
//
// Rows come from up to two sources: an optional resident view (the cache's
// pool-resident precompute: row IDs [0, res.n), packed rows addressed in
// place in the cache's block storage — rows are only appended, and a flush
// or compaction replaces the store without rewriting one, so the view reads
// them without a lock for as long as it is held) and the request-local
// extra matrices (rows from res.n up). The optional rowOf table translates
// pair indices first, letting the serving path address cached rows in place
// with no per-request copying.
type PairPredictor struct {
	f *headFold
	// res is the resident view rows below res.n resolve in (none when zero).
	res residentView
	// request-local rows.
	reps1, reps2 *nn.Matrix
	p1, p2       *nn.Matrix // reps1·(W1+W3), reps2·(W2+W3)
	// rowOf, when non-nil, maps pair indices to row indices.
	rowOf []int
}

// NewPairPredictor precomputes the per-side partial products for the given
// representations (reps1 through MLP1, reps2 through MLP2 — the two outputs
// of EncodeSets), using the model's memoized weight fold.
func (m *Model) NewPairPredictor(reps1, reps2 *nn.Matrix) *PairPredictor {
	return m.NewPairPredictorWS(nil, reps1, reps2)
}

// NewPairPredictorWS is NewPairPredictor with the partial products taken
// from ws; the predictor is then valid until the workspace's next Reset.
func (m *Model) NewPairPredictorWS(ws *nn.Workspace, reps1, reps2 *nn.Matrix) *PairPredictor {
	f := m.headFold()
	cols := 2 * f.h
	p1 := ws.Take(reps1.Rows, cols)
	nn.MatMul(p1, reps1, f.w13)
	p2 := ws.Take(reps2.Rows, cols)
	nn.MatMul(p2, reps2, f.w23)
	return &PairPredictor{
		f:     f,
		reps1: reps1, reps2: reps2,
		p1: p1, p2: p2,
	}
}

// rows1 resolves row i of the MLP1 side against the resident/extra split.
func (p *PairPredictor) rows1(i int) (rep, pp []float64) {
	if n := p.res.n; i >= n {
		return p.reps1.Row(i - n), p.p1.Row(i - n)
	}
	h, d := p.f.h, p.res.data(i)
	return d[:h], d[2*h : 4*h]
}

// rows2 resolves row i of the MLP2 side against the resident/extra split.
func (p *PairPredictor) rows2(i int) (rep, pp []float64) {
	if n := p.res.n; i >= n {
		return p.reps2.Row(i - n), p.p2.Row(i - n)
	}
	h, d := p.f.h, p.res.data(i)
	return d[h : 2*h], d[4*h:]
}

// Predict evaluates the head for each pair (i, j) of representation
// indices. Safe for concurrent use; results are bit-identical across chunk
// boundaries and batch compositions.
func (p *PairPredictor) Predict(pairs [][2]int) []float64 {
	out := make([]float64, len(pairs))
	p.PredictInto(out, pairs, nil)
	return out
}

// PredictInto is Predict writing into a caller-owned slice (len(dst) must
// be ≥ len(pairs)) with workspace-backed scratch, so concurrent chunk
// evaluations stay allocation-free: give each goroutine its own workspace.
//
// Pairs go through the head nn.PairHeadRows at a time, so W3/W4 — the
// bulk of the per-pair work — are read once per block instead of once per
// pair. Each pair's head input is built by dispatched vector kernels: its
// row of z, the sum of its two sides' partial products (nn.PairHeadSum),
// and its coefficient rows −2·min(a,b) and a·b (nn.PairHeadCoef), both
// bit-identical to their scalar loops. A coordinate where either
// representation is zero is not skipped: the representations are finite
// and non-negative, so its coefficients are ±0, and with finite weights
// adding the ±0 products changes at most the sign of a zero pre-activation,
// which the ReLU epilogue maps to the same +0. Every rate therefore equals
// the one-pair-at-a-time evaluation that skips those coordinates, bit for
// bit (pinned by the equivalence tests). Rows of a short last block are
// padding: zero coefficients, results discarded.
func (p *PairPredictor) PredictInto(dst []float64, pairs [][2]int, ws *nn.Workspace) {
	const R = nn.PairHeadRows
	h := p.f.h
	cols := 2 * h
	out := dst[:len(pairs)]
	z := ws.Take(R, cols).Data
	coef := ws.Take(2*R, h).Data // rows mn[0..R) then pr[0..R)
	for lo := 0; lo < len(pairs); lo += R {
		block := pairs[lo:min(lo+R, len(pairs))]
		if len(block) < R {
			clear(z)
			clear(coef)
		}
		for r, pair := range block {
			i1, i2 := pair[0], pair[1]
			if p.rowOf != nil {
				i1, i2 = p.rowOf[i1], p.rowOf[i2]
			}
			r1, q1 := p.rows1(i1)
			r2, q2 := p.rows2(i2)
			nn.PairHeadSum(z[r*cols:(r+1)*cols], q1[:cols], q2[:cols])
			nn.PairHeadCoef(coef[r*h:(r+1)*h], coef[(R+r)*h:(R+r+1)*h], r1[:h], r2[:h])
		}
		nn.PairHead(z, coef, p.f.w3, p.f.w4)
		// Bias, ReLU, second layer, sigmoid — scalar output per pair, with
		// the hidden-layer contraction fused in one dispatched pass.
		for r := range block {
			s := p.f.b2 + nn.BiasReLUDot(z[r*cols:(r+1)*cols], p.f.b1, p.f.w2)
			out[lo+r] = 1 / (1 + math.Exp(-s))
		}
	}
}

// Train fits the model on train, early-stopping on val, and returns the
// per-epoch statistics. progress, if non-nil, is invoked after every epoch.
// The context is checked before every epoch: cancellation returns its
// error and the statistics so far, and an aborted run is an error, not a
// usable model (the best weights are not restored).
func (m *Model) Train(ctx context.Context, train, val []Sample, progress func(EpochStats)) ([]EpochStats, error) {
	return m.fit(ctx, train, val, m.cfg.Epochs, m.cfg.LR, progress)
}

// ContinueTraining applies epochs more training epochs at learning rate lr,
// starting from the model's current weights — the paper's §9 "Database
// updates" second approach ("incrementally train the model starting from
// its current state, by applying new updated training samples, instead of
// re-training from scratch"). The optimizer restarts but the learned
// weights persist, so a modest number of epochs adapts the model to a
// drifted database. The model's configuration is not touched.
//
// Fine-tuning on a small adaptation set usually wants a rate 4-10x below
// Config().LR: the full training rate lets a few hundred fresh samples
// drag well-fit weights far from the bulk of what the model knows.
func (m *Model) ContinueTraining(ctx context.Context, train, val []Sample, epochs int, lr float64, progress func(EpochStats)) ([]EpochStats, error) {
	if epochs <= 0 {
		return nil, fmt.Errorf("crn: epochs must be positive")
	}
	return m.fit(ctx, train, val, epochs, lr, progress)
}

// fit runs nn.Fit over the model with the given epoch budget and rate.
func (m *Model) fit(ctx context.Context, train, val []Sample, epochs int, lr float64, progress func(EpochStats)) ([]EpochStats, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("crn: empty training set")
	}
	loss, err := m.lossFn()
	if err != nil {
		return nil, err
	}
	// Weights are about to mutate: drop the serving-side weight fold now and
	// again on exit, so predictors built after training refold from the
	// final (possibly restored-best) weights.
	m.invalidateHeadFold()
	defer m.invalidateHeadFold()

	// One workspace and one staging buffer set serve every batch of the
	// run: after the first epoch the step is allocation-free apart from
	// the loss gradient. The workspace comes from the model's free list,
	// so repeated training runs (and the interleaved validation
	// predictions) reuse the same warmed arenas.
	ws := m.getWS()
	defer m.putWS(ws)
	var fc forwardCache
	batch := make([]Sample, 0, m.cfg.BatchSize)
	targets := make([]float64, 0, m.cfg.BatchSize)
	step := func(idx []int) float64 {
		batch, targets = batch[:0], targets[:0]
		for _, j := range idx {
			batch = append(batch, train[j])
			targets = append(targets, train[j].Rate)
		}
		ws.Reset()
		c := m.forward(ws, batch, &fc)
		l, grad := loss.Eval(c.sigmoids.Data, targets)
		m.backward(ws, c, &nn.Matrix{Rows: len(batch), Cols: 1, Data: grad})
		return l
	}
	var validate func() float64
	if len(val) > 0 {
		validate = func() float64 { return m.ValidationQError(val) }
	}
	s := nn.Schedule{LR: lr, BatchSize: m.cfg.BatchSize, Epochs: epochs,
		Patience: m.cfg.Patience, Seed: m.cfg.Seed, LRDecay: m.cfg.LRDecay}
	return nn.Fit(ctx, m.Params(), len(train), s, step, validate, progress)
}

// ValidationQError computes the mean q-error of predictions over a sample
// set, the validation metric of §3.3 (Figures 3 and 4). It runs once per
// training epoch, so its prediction buffer comes from the model's workspace
// free list rather than the allocator: the buffer workspace is held across
// chunks (no Reset until the return), while each PredictBatchInto borrows
// its own arena — steady-state validation allocates nothing.
func (m *Model) ValidationQError(val []Sample) float64 {
	if len(val) == 0 {
		return math.NaN()
	}
	const chunk = 512
	ws := m.getWS()
	defer m.putWS(ws)
	preds := ws.Take(1, chunk).Data
	var sum float64
	for lo := 0; lo < len(val); lo += chunk {
		hi := lo + chunk
		if hi > len(val) {
			hi = len(val)
		}
		m.PredictBatchInto(preds[:hi-lo], val[lo:hi])
		for i, p := range preds[:hi-lo] {
			sum += metrics.QError(val[lo+i].Rate, p, m.rateFloor())
		}
	}
	return sum / float64(len(val))
}

func (m *Model) rateFloor() float64 {
	if m.cfg.RateFloor > 0 {
		return m.cfg.RateFloor
	}
	return 1e-3
}

// lossFn maps Config.Loss to its loss; "" (model blobs that predate the
// field) means q-error, and any other unknown name is an error.
func (m *Model) lossFn() (nn.Loss, error) {
	switch m.cfg.Loss {
	case "", "q-error":
		return nn.QErrorLoss{Floor: m.rateFloor()}, nil
	case "mse":
		return nn.MSELoss{}, nil
	case "mae":
		return nn.MAELoss{}, nil
	}
	return nil, fmt.Errorf("crn: unknown loss %q (want q-error, mse or mae)", m.cfg.Loss)
}

// modelBlob is the gob wire format of a serialized model.
type modelBlob struct {
	Cfg    Config
	Dim    int
	Params []byte
}

// Save serializes the model (configuration and weights) with encoding/gob;
// the paper reports ~1.5MB for the full-scale model (§3.5.3).
func (m *Model) Save() ([]byte, error) {
	params, err := nn.EncodeParams(m.Params())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(modelBlob{Cfg: m.cfg, Dim: m.dim, Params: params}); err != nil {
		return nil, fmt.Errorf("crn: save: %w", err)
	}
	return buf.Bytes(), nil
}

// Load reconstructs a model serialized by Save.
func Load(data []byte) (*Model, error) {
	var blob modelBlob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&blob); err != nil {
		return nil, fmt.Errorf("crn: load: %w", err)
	}
	m := NewModel(blob.Cfg, blob.Dim)
	if err := nn.DecodeParams(blob.Params, m.Params()); err != nil {
		return nil, err
	}
	return m, nil
}
