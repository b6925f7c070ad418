package online

import (
	"context"
	"sync"
	"sync/atomic"

	"crn/internal/contain"
	icrn "crn/internal/crn"
	"crn/internal/feature"
	"crn/internal/pool"
	"crn/internal/query"
	"crn/internal/telemetry"
)

// Generation is one published model generation: the trained model, its
// serving rate adapter, and the generation number. Each generation owns
// its representation cache (inside Rates), so rows computed under one
// set of weights can never serve another — promotion replaces model and
// cache together in a single pointer store, which is the whole coherence
// argument.
type Generation struct {
	Model *icrn.Model
	Rates *icrn.Rates
	Gen   uint64
}

// ModelBox is the atomic model indirection estimators read through: one
// pointer load per estimation pass resolves the current generation, so an
// in-flight estimate finishes on the generation it loaded while requests
// arriving after a promotion see the new one — no locks on the hot path,
// no torn state, no blocking on retraining.
//
// The box implements contain.RateEstimator by delegating to the current
// generation, which lets it stand wherever a *crn.Rates does (in particular
// as card.Estimator.Rates). A box nobody promotes is a frozen model:
// generation 1 forever, read at the cost of one atomic load. The cache
// accessors, SetStages and Close are nil-safe, so an estimator
// without a CRN model can hold a nil box.
type ModelBox struct {
	cur atomic.Pointer[Generation]

	enc       *feature.Encoder
	cacheSize int
	pool      *pool.Pool
	stages    *telemetry.StageSet // applied to every generation's Rates

	// promoteMu serializes promotions (the trainer is the only writer in
	// the deployment, but tests and operators may race RetrainNow calls).
	promoteMu sync.Mutex
}

// NewModelBox publishes the given model as generation gen: 1 for a fresh
// deployment, while a recovered one resumes the generation it promoted
// before the crash, so generation numbers stay one continuous sequence
// across restarts. cacheSize > 0 equips every generation with its own
// representation cache of that capacity; p, when non-nil, gets each
// generation's cache subscribed for surgical invalidation (and the previous
// one unsubscribed on promotion). The first generation is warmed from p
// before it is published, like every successor a trainer promotes (see
// Warm), so frozen and adaptive estimators start alike.
func NewModelBox(m *icrn.Model, enc *feature.Encoder, cacheSize int, p *pool.Pool, gen uint64) *ModelBox {
	b := &ModelBox{enc: enc, cacheSize: cacheSize, pool: p}
	g := b.newGeneration(m, gen)
	// Non-fatal: a query the warm cannot encode is encoded, and fails, on
	// the hot path, where the estimate reports it.
	_ = b.Warm(g)
	b.cur.Store(g)
	return b
}

// Warm precomputes the pool's working set into an unpublished generation's
// cache (see Rates.Warm): the most recently matched entries, up to the
// cache's capacity, so a warm covers what estimates are actually selecting
// and fills no more than the cache holds. A box without a pool or a cache
// warms nothing.
func (b *ModelBox) Warm(g *Generation) error {
	if b.pool == nil || g.Rates.Cache == nil {
		return nil
	}
	entries := b.pool.HotEntries(b.cacheSize)
	queries := make([]query.Query, len(entries))
	for i, e := range entries {
		queries[i] = e.Q
	}
	return g.Rates.Warm(queries)
}

// SetStages attaches the stage-span set every generation's rate adapter
// records into (cache lookup, NN forward). Call before serving: the field
// is read without synchronization when generations are built, and the
// current generation is re-pointed immediately.
func (b *ModelBox) SetStages(s *telemetry.StageSet) {
	if b == nil {
		return
	}
	b.stages = s
	b.cur.Load().Rates.Stages = s
}

// newGeneration binds a model into a Generation with a fresh cache.
func (b *ModelBox) newGeneration(m *icrn.Model, gen uint64) *Generation {
	rates := icrn.NewRates(m, b.enc)
	rates.Stages = b.stages
	if b.cacheSize > 0 {
		rates.Cache = icrn.NewRepCache(b.cacheSize)
		if b.pool != nil {
			b.pool.Subscribe(rates.Cache)
		}
	}
	return &Generation{Model: m, Rates: rates, Gen: gen}
}

// Current returns the live generation.
func (b *ModelBox) Current() *Generation { return b.cur.Load() }

// Generation returns the live generation number (monotonically increasing
// from 1).
func (b *ModelBox) Generation() uint64 { return b.cur.Load().Gen }

// Cache returns the live generation's representation cache: nil on a nil
// box or a box built with cacheSize 0 (RepCache methods are nil-safe).
func (b *ModelBox) Cache() *icrn.RepCache {
	if b == nil {
		return nil
	}
	return b.cur.Load().Rates.Cache
}

// Prepare builds the successor generation without publishing it: the
// model is bound to fresh rates with its own cache, already subscribed to
// the pool (mutations between Prepare and Publish are absorbed). The
// caller may warm the unpublished generation's cache — still off the hot
// path — before Publish flips traffic onto it (see Rates.Warm). Every
// prepared generation must be published: the cache subscription is only
// released when a LATER promotion supersedes the generation.
func (b *ModelBox) Prepare(m *icrn.Model) *Generation {
	return b.newGeneration(m, 0) // the generation number is assigned at Publish
}

// Publish atomically flips traffic onto a generation built by Prepare and
// returns it (with its generation number assigned). The superseded
// generation's cache is unsubscribed from the pool; estimates that already
// loaded it finish on it unharmed (its model, cache and weight fold all
// stay internally consistent).
func (b *ModelBox) Publish(next *Generation) *Generation {
	b.promoteMu.Lock()
	defer b.promoteMu.Unlock()
	old := b.cur.Load()
	next.Gen = old.Gen + 1
	b.cur.Store(next)
	if b.pool != nil && old.Rates.Cache != nil {
		b.pool.Unsubscribe(old.Rates.Cache)
	}
	return next
}

// Close unsubscribes the live generation's cache from the pool. Idempotent
// and nil-safe.
func (b *ModelBox) Close() {
	if b == nil {
		return
	}
	b.promoteMu.Lock()
	defer b.promoteMu.Unlock()
	if g := b.cur.Load(); b.pool != nil && g.Rates.Cache != nil {
		b.pool.Unsubscribe(g.Rates.Cache)
	}
}

// EstimateRatesIndexed implements contain.RateEstimator on the live
// generation: the whole batch pass, and its cache reads, runs on one
// consistent generation resolved by a single atomic load.
func (b *ModelBox) EstimateRatesIndexed(ctx context.Context, queries []query.Query, idx [][2]int) ([]float64, error) {
	return b.cur.Load().Rates.EstimateRatesIndexed(ctx, queries, idx)
}

// Untimed returns a view of the box that estimates rates on the live
// generation like the box itself but records no stage span: the view for a
// pass nobody is served (the drift re-estimate of execution feedback), whose
// cache lookups and forwards must not enter the serving stage histograms.
// It reports the box's generation, so an estimate memo engages through it.
func (b *ModelBox) Untimed() contain.RateEstimator { return untimedBox{b} }

// untimedBox is the view Untimed returns.
type untimedBox struct{ b *ModelBox }

func (u untimedBox) EstimateRatesIndexed(ctx context.Context, queries []query.Query, idx [][2]int) ([]float64, error) {
	r := *u.b.cur.Load().Rates // same model and cache, no stage set
	r.Stages = nil
	return r.EstimateRatesIndexed(ctx, queries, idx)
}

func (u untimedBox) Generation() uint64 { return u.b.Generation() }

var _ contain.RateEstimator = (*ModelBox)(nil)
