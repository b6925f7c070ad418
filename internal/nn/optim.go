package nn

import (
	"context"
	"math"
	"math/rand"
	"time"
)

// Adam implements the Adam optimizer (Kingma & Ba, ICLR'15), the optimizer
// used by the paper (§3.3), with the standard default hyperparameters.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	step int
}

// NewAdam creates an Adam optimizer with the given learning rate and the
// conventional β1=0.9, β2=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update to every parameter from its accumulated
// gradient, then clears the gradients. The update, moment decay and
// gradient clear run in one pass per tensor.
func (a *Adam) Step(params []*Param) {
	a.step++
	c1 := 1 - math.Pow(a.Beta1, float64(a.step))
	c2 := 1 - math.Pow(a.Beta2, float64(a.step))
	b1, b2 := a.Beta1, a.Beta2
	g1, g2 := 1-b1, 1-b2
	lr, eps := a.LR, a.Eps
	for _, p := range params {
		grad, mo, vo, w := p.Grad, p.M, p.V, p.W
		mo = mo[:len(grad)]
		vo = vo[:len(grad)]
		w = w[:len(grad)]
		for i, g := range grad {
			m := b1*mo[i] + g1*g
			v := b2*vo[i] + g2*g*g
			mo[i] = m
			vo[i] = v
			w[i] -= lr * (m / c1) / (math.Sqrt(v/c2) + eps)
		}
		p.ZeroGrad()
	}
}

// StepCount returns the number of updates applied so far.
func (a *Adam) StepCount() int { return a.step }

// EarlyStopper implements the paper's early-stopping rule (§3.3): training
// stops when the validation metric has not improved for Patience
// consecutive epochs; the best epoch's metric is retained. An unordered
// metric (NaN) never counts as an improvement.
type EarlyStopper struct {
	Patience int

	best      float64
	bestEpoch int
	bad       int
	started   bool
}

// Observe records one epoch's validation metric (lower is better) and
// reports whether training should stop.
func (s *EarlyStopper) Observe(epoch int, metric float64) (stop bool) {
	if !s.started {
		s.best, s.started = math.Inf(1), true
	}
	if metric < s.best {
		s.best, s.bestEpoch, s.bad = metric, epoch, 0
		return false
	}
	s.bad++
	return s.bad >= s.Patience
}

// Stale returns how many consecutive observations have passed without an
// improvement; 0 means the latest one was the best so far.
func (s *EarlyStopper) Stale() int { return s.bad }

// Best returns the best metric observed and its epoch.
func (s *EarlyStopper) Best() (metric float64, epoch int) { return s.best, s.bestEpoch }

// EpochStats records one training epoch for the convergence and
// hyperparameter experiments (Figures 3 and 4).
type EpochStats struct {
	Epoch     int
	TrainLoss float64
	ValQError float64 // mean q-error on the validation set
	Duration  time.Duration
}

// Schedule is what the training loop reads of a model's configuration.
type Schedule struct {
	LR        float64 // Adam learning rate
	BatchSize int
	Epochs    int   // maximum epochs; early stopping may end sooner
	Patience  int   // early-stopping patience in epochs (0 disables)
	Seed      int64 // the batch shuffle draws from Seed+1
	// LRDecay, when in (0,1), multiplies the learning rate once validation
	// has not improved for Patience/2 epochs (reduce-on-plateau).
	LRDecay float64
}

// Fit is the training loop of every learned model (§3.3): per epoch it
// shuffles the n training samples, hands each batch of sample indices to
// step — which runs the forward and backward passes and returns the batch
// loss — and applies one Adam update to params. validate, when non-nil,
// scores the epoch; with s.Patience > 0 the loop then decays the rate on a
// plateau, stops early through an EarlyStopper and restores the best
// epoch's weights on return. progress, if non-nil, sees every epoch.
//
// The context is checked before every epoch: cancellation returns its
// error and the statistics so far, with the weights left as the last
// completed epoch made them — an aborted run is an error, not a model.
func Fit(ctx context.Context, params []*Param, n int, s Schedule,
	step func(batch []int) float64, validate func() float64,
	progress func(EpochStats)) ([]EpochStats, error) {
	opt := NewAdam(s.LR)
	rng := rand.New(rand.NewSource(s.Seed + 1))
	var stopper *EarlyStopper
	var best []ParamSnapshot
	if validate != nil && s.Patience > 0 {
		stopper = &EarlyStopper{Patience: s.Patience}
		best = snapshotInto(nil, params)
	}
	var stats []EpochStats
	for epoch := 1; epoch <= s.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		start := time.Now()
		batches := Batches(Shuffle(rng, n), s.BatchSize)
		var total float64
		for _, idx := range batches {
			total += step(idx)
			opt.Step(params)
		}
		st := EpochStats{Epoch: epoch, TrainLoss: total / float64(len(batches)), ValQError: math.NaN()}
		if validate != nil {
			st.ValQError = validate()
		}
		st.Duration = time.Since(start)
		stats = append(stats, st)
		if progress != nil {
			progress(st)
		}
		if stopper == nil {
			continue
		}
		stop := stopper.Observe(epoch, st.ValQError)
		switch stale := stopper.Stale(); {
		case stale == 0:
			best = snapshotInto(best, params)
		case stale == s.Patience/2 && s.LRDecay > 0 && s.LRDecay < 1:
			opt.LR *= s.LRDecay
		}
		if stop {
			break
		}
	}
	if stopper != nil {
		for i, p := range params {
			if err := p.Restore(best[i]); err != nil {
				return stats, err
			}
		}
	}
	return stats, nil
}

// snapshotInto captures every parameter's weights, reusing a previous
// snapshot's buffers so tracking the best epoch allocates only once.
func snapshotInto(snaps []ParamSnapshot, params []*Param) []ParamSnapshot {
	if len(snaps) != len(params) {
		snaps = make([]ParamSnapshot, len(params))
	}
	for i, p := range params {
		snaps[i] = p.SnapshotInto(snaps[i])
	}
	return snaps
}
