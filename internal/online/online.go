// Package online is the feedback-driven adaptation layer over the serving
// stack: it turns the train-once/static CRN deployment into the closed
// loop the paper's §5.2 scenario implies. A production DBMS continuously
// executes queries, so ground truth — (query, true cardinality) pairs —
// arrives for free; this package ingests that execution feedback, grows
// the queries pool with it, incrementally retrains the containment model
// in the background, and hot-swaps the improved model under live traffic
// without blocking a single estimate.
//
// Four cooperating pieces:
//
//   - Collector stages validated, deduplicated feedback records in a
//     bounded buffer (the ingest side of the loop; cheap enough to sit on
//     a request path).
//   - ModelBox is the atomic model indirection: estimators read the
//     current model generation through one atomic pointer load, each
//     generation carrying its own representation cache so promotion can
//     never mix rows computed under different weights. In-flight estimates
//     finish on the generation they loaded; the next request sees the
//     promoted one.
//   - Trainer drains staged feedback off the hot path, adds it to the
//     pool, derives fresh containment-rate training pairs from it (each
//     feedback query paired with a stride sample of its FROM-clause pool
//     partners, labeled by the truth oracle), continues training on a
//     clone of the live model, and promotes the clone only when its
//     validation q-error does not regress beyond a configured tolerance.
//   - DriftMonitor keeps a windowed q-error histogram between live
//     estimates and arriving truths, plus an exact count above the drift
//     threshold; a majority above it kicks the trainer ahead of its
//     schedule.
//
// The package deliberately depends only on internal building blocks
// (crn, pool, workload, feature, metrics); the facade wires it to the
// public API and cmd/crnserve exposes it over HTTP (/feedback).
package online

import "time"

// Fixed adaptation settings no deployment tunes.
const (
	// lrScale scales the model's learning rate for fine-tuning: at the full
	// rate a small adaptation set drags well-fit weights off the bulk
	// distribution — the tail improves, the typical pair regresses.
	lrScale = 0.2
	// maxValSet bounds the promotion gate's rolling validation set.
	maxValSet = 256
	// labelWorkers is 1: background labeling must not contend with serving.
	labelWorkers = 1
	// driftMinSamples is the windowed sample floor below which the drift
	// threshold cannot trip (clamped to the drift window).
	driftMinSamples = 32
	// minBatch is the number of staged records that makes a scheduled
	// retrain worthwhile. Drift-triggered retrains run with whatever is
	// staged.
	minBatch = 16
)

// Config collects the adaptation knobs with serving-grade defaults; the
// zero value of any field selects its default.
type Config struct {
	// BufferCap bounds the collector's staging buffer (default 1024).
	BufferCap int
	// Interval is the trainer's polling period (default 5s). Zero keeps
	// the default; negative disables scheduled retraining (drift kicks and
	// explicit RetrainNow calls still work).
	Interval time.Duration
	// Epochs is the incremental-training budget per retrain (default 8).
	Epochs int
	// Tolerance is the promotion gate: the candidate is promoted when its
	// validation q-error is at most (1+Tolerance)× the live model's
	// (default 0.05). Negative demands strict improvement.
	Tolerance float64
	// PairsPerRecord bounds how many pool partners each feedback record is
	// paired with for labeling (default 8); the partners are a stride
	// sample across all of the record's FROM-clause pool matches.
	PairsPerRecord int
	// DriftThreshold is the q-error beyond which more than half the
	// windowed observations mark the workload as drifted, kicking a
	// retrain early (default 0: drift monitoring records statistics but
	// never trips).
	DriftThreshold float64
	// DriftWindow is the drift monitor's window size N (default 256): two
	// tumbling halves of N/2 observations, so the window covers the last
	// N/2..N observations.
	DriftWindow int
}

// withDefaults resolves zero fields to the documented defaults.
func (c Config) withDefaults() Config {
	if c.BufferCap <= 0 {
		c.BufferCap = 1024
	}
	if c.Interval == 0 {
		c.Interval = 5 * time.Second
	}
	if c.Epochs <= 0 {
		c.Epochs = 8
	}
	if c.Tolerance == 0 {
		c.Tolerance = 0.05
	}
	if c.PairsPerRecord <= 0 {
		c.PairsPerRecord = 8
	}
	if c.DriftWindow <= 0 {
		c.DriftWindow = 256
	}
	return c
}
