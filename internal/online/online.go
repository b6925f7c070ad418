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
//     feedback query paired with its most containment-comparable pool
//     neighbors, labeled by the truth oracle), continues training on a
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

// Config collects the adaptation knobs with serving-grade defaults; the
// zero value of any field selects its default.
type Config struct {
	// BufferCap bounds the collector's staging buffer (default 1024).
	BufferCap int
	// MinBatch is the number of staged records that makes a scheduled
	// retrain worthwhile (default 16). Drift-triggered retrains run with
	// whatever is staged.
	MinBatch int
	// Interval is the trainer's polling period (default 5s). Zero keeps
	// the default; negative disables scheduled retraining (drift kicks and
	// explicit RetrainNow calls still work).
	Interval time.Duration
	// Epochs is the incremental-training budget per retrain (default 8).
	Epochs int
	// LRScale multiplies the model's training learning rate for
	// incremental fine-tuning (default 0.2). Fine-tuning at the full rate
	// lets a small adaptation set drag well-fit weights away from the bulk
	// distribution — the tail improves, the typical pair regresses.
	LRScale float64
	// Tolerance is the promotion gate: the candidate is promoted when its
	// validation q-error is at most (1+Tolerance)× the live model's
	// (default 0.05). Negative demands strict improvement.
	Tolerance float64
	// PairsPerRecord bounds how many pool partners each feedback record is
	// paired with for labeling (default 8); the partners are the record's
	// most containment-comparable pool entries (signature top-K).
	PairsPerRecord int
	// MaxValSet bounds the held-out validation sample set accumulated
	// across retrains for the promotion gate (default 256).
	MaxValSet int
	// Workers is the labeling parallelism (default 1: background labeling
	// must not contend with serving for every core; raise it for faster
	// retrains on machines with headroom).
	Workers int
	// DriftThreshold is the q-error beyond which more than half the
	// windowed observations mark the workload as drifted, kicking a
	// retrain early (default 0: drift monitoring records statistics but
	// never trips).
	DriftThreshold float64
	// DriftWindow is the drift monitor's window size N (default 256): two
	// tumbling halves of N/2 observations, so the window covers the last
	// N/2..N observations.
	DriftWindow int
	// DriftMinSamples is the minimum windowed sample count before the
	// threshold can trip (default 32).
	DriftMinSamples int
	// LabelFree derives containment labels from the cardinality identity
	// rate(Q1 ⊂% Q2) = |Q1∩Q2|/|Q1| whenever all three cardinalities are
	// already known (the feedback truth, the partner's pooled truth, and
	// the intersection query's truth when it is itself one of the two or
	// pooled) instead of executing the intersection against the truth
	// oracle. Pairs the identity cannot resolve still go to the oracle.
	// Default off: the oracle path is the paper's exact labeling.
	LabelFree bool
}

// withDefaults resolves zero fields to the documented defaults.
func (c Config) withDefaults() Config {
	if c.BufferCap <= 0 {
		c.BufferCap = 1024
	}
	if c.MinBatch <= 0 {
		c.MinBatch = 16
	}
	if c.Interval == 0 {
		c.Interval = 5 * time.Second
	}
	if c.Epochs <= 0 {
		c.Epochs = 8
	}
	if c.LRScale <= 0 {
		c.LRScale = 0.2
	}
	if c.Tolerance == 0 {
		c.Tolerance = 0.05
	}
	if c.PairsPerRecord <= 0 {
		c.PairsPerRecord = 8
	}
	if c.MaxValSet <= 0 {
		c.MaxValSet = 256
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.DriftWindow <= 0 {
		c.DriftWindow = 256
	}
	if c.DriftMinSamples <= 0 {
		c.DriftMinSamples = 32
	}
	if c.DriftMinSamples > c.DriftWindow {
		// A window smaller than the sample floor could never trip.
		c.DriftMinSamples = c.DriftWindow
	}
	return c
}
