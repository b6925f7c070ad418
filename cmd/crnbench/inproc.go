package main

import (
	"context"
	"fmt"
	"time"

	"crn"
)

// inproc is the same system crnserve builds for a workload, rebuilt inside
// the harness from the same constants: the reference for the socket ≡
// facade check and the subject of the traced pass.
type inproc struct {
	pool     *crn.QueriesPool
	model    *crn.ContainmentModel
	base     crn.BaselineEstimator
	est      *crn.CardinalityEstimator
	adaptive *crn.AdaptiveEstimator
}

func (in *inproc) close() { in.adaptive.Close() }

// buildInproc mirrors crnserve's main for the workload's flags: cached
// seeded pool, loaded model, fallback baseline, default coalescing,
// adaptation on, and the workload's bounds and guards. dataDir is used by
// durable workloads only; telemetry is attached when withTel is set.
func buildInproc(ctx context.Context, p *prepared, w workloadSpec, dataDir string, withTel bool) (*inproc, error) {
	var poolOpts []crn.PoolOption
	if w.PoolCap > 0 {
		poolOpts = append(poolOpts, crn.WithPoolCap(w.PoolCap))
	}
	qp, err := p.seededPool(ctx, w.Pool, poolOpts...)
	if err != nil {
		return nil, err
	}
	model, err := p.sys.LoadContainmentModel(p.modelBlob)
	if err != nil {
		return nil, fmt.Errorf("load model: %w", err)
	}
	base, err := p.sys.AnalyzeBaseline()
	if err != nil {
		return nil, fmt.Errorf("analyze baseline: %w", err)
	}
	opts := []crn.EstimatorOption{crn.WithFallback(base), crn.WithCoalescing(64, 0)}
	if withTel {
		opts = append(opts, crn.WithTelemetry(crn.NewTelemetry()))
	}
	if w.MaxCandidates > 0 {
		opts = append(opts, crn.WithMaxCandidates(w.MaxCandidates))
	}
	if w.Guarded {
		opts = append(opts, crn.WithMaxInflight(64), crn.WithRequestTimeout(time.Second),
			crn.WithBreaker(crn.BreakerConfig{Window: 128, LatencyP99: 250 * time.Millisecond, Cooldown: 5 * time.Second}))
	}
	if w.Durable {
		opts = append(opts, crn.WithFeedbackBuffer(65536), crn.WithRetrainInterval(-time.Second))
		if dataDir != "" {
			opts = append(opts, crn.WithDataDir(dataDir), crn.WithWALSync("interval"))
		}
	}
	adaptive, err := p.sys.OpenAdaptiveEstimator(model, qp, opts...)
	if err != nil {
		return nil, fmt.Errorf("open adaptive estimator: %w", err)
	}
	return &inproc{pool: qp, model: model, base: base, est: adaptive.CardinalityEstimator, adaptive: adaptive}, nil
}
