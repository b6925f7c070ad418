package crn

import (
	"context"
	"fmt"

	"crn/internal/contain"
	icrn "crn/internal/crn"
	"crn/internal/workload"
)

// trainConfig is what TrainOption values set. The zero value uses the
// defaults (5000 pairs, seed 1, DefaultModelConfig).
type trainConfig struct {
	Pairs    int         // training pairs to generate (0 = 5000)
	Seed     int64       // generator seed (0 = 1)
	Model    ModelConfig // zero value = crn defaults
	Progress func(epoch int, valQError float64)
}

// ContainmentModel is a trained CRN bound to its feature encoder.
type ContainmentModel struct {
	rates *icrn.Rates
	model *icrn.Model
}

// TrainContainmentModel generates a labeled pair workload over the system's
// database (0-2 joins, §3.1.2), trains a CRN on it and returns the model.
// The context covers the whole pipeline: workload labeling checks it per
// executed query and training checks it per epoch, so cancelling aborts
// promptly with the context's error.
func (s *System) TrainContainmentModel(ctx context.Context, opts ...TrainOption) (*ContainmentModel, error) {
	var cfg trainConfig
	for _, o := range opts {
		o(&cfg)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := cfg.Pairs
	if n <= 0 {
		n = 5000
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	mcfg := cfg.Model
	if mcfg.Hidden == 0 {
		mcfg = icrn.DefaultConfig()
	}
	gen := workload.NewGenerator(s.schema, s.db, seed)
	train, val, err := gen.TrainingSet(ctxOracle{ctx: ctx, ex: s.exec}, n, 0, seed+1)
	if err != nil {
		return nil, err
	}
	m, _, err := icrn.TrainOnPairs(ctx, mcfg, s.enc, train, val, func(st icrn.EpochStats) {
		if cfg.Progress != nil {
			cfg.Progress(st.Epoch, st.ValQError)
		}
	})
	if err != nil {
		return nil, err
	}
	return &ContainmentModel{rates: icrn.NewRates(m, s.enc), model: m}, nil
}

// EstimateContainment estimates q1 ⊂% q2 in [0,1].
func (m *ContainmentModel) EstimateContainment(ctx context.Context, q1, q2 Query) (float64, error) {
	if err := contain.Validate(q1, q2); err != nil {
		return 0, err
	}
	return contain.Rate(ctx, m.rates, q1, q2)
}

// EstimateContainmentBatch estimates q1 ⊂% q2 for every pair with one
// amortized forward pass: queries recurring across the batch are pushed
// through the set modules once, and the pair head runs matrix-batched.
// Results are identical to per-pair EstimateContainment calls.
func (m *ContainmentModel) EstimateContainmentBatch(ctx context.Context, pairs [][2]Query) ([]float64, error) {
	for _, p := range pairs {
		if err := contain.Validate(p[0], p[1]); err != nil {
			return nil, err
		}
	}
	queries, idx := contain.IndexPairs(pairs)
	return m.rates.EstimateRatesIndexed(ctx, queries, idx)
}

// Save serializes the trained model weights.
func (m *ContainmentModel) Save() ([]byte, error) { return m.model.Save() }

// LoadContainmentModel restores a model saved with Save, re-binding it to
// this system's feature encoder. A model trained against a different
// featurization fails with an error wrapping ErrDimMismatch.
func (s *System) LoadContainmentModel(data []byte) (*ContainmentModel, error) {
	m, err := icrn.Load(data)
	if err != nil {
		return nil, err
	}
	if m.Dim() != s.enc.Dim() {
		return nil, fmt.Errorf("%w: model expects dimension %d, this database's featurization has %d",
			ErrDimMismatch, m.Dim(), s.enc.Dim())
	}
	return &ContainmentModel{rates: icrn.NewRates(m, s.enc), model: m}, nil
}
