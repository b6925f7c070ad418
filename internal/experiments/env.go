// Package experiments wires every subsystem together and regenerates the
// paper's evaluation (Tables 2-15, Figures 3-13) from a single trained
// Environment. The artifacts are one declared table (experiments.go); the
// README's "Reproducing the paper" section maps each ID to its paper table
// or figure, and `repro -list` prints them.
package experiments

import (
	"context"
	"fmt"
	"time"

	"crn/internal/card"
	"crn/internal/contain"
	"crn/internal/crn"
	"crn/internal/datagen"
	"crn/internal/db"
	"crn/internal/exec"
	"crn/internal/feature"
	"crn/internal/mscn"
	"crn/internal/pg"
	"crn/internal/pool"
	"crn/internal/schema"
	"crn/internal/workload"
)

// Config scales the whole reproduction. The paper's sizes (100k training
// pairs, H=512, IMDb with 2.5M titles) are the Full preset; the Small
// preset fits CI hardware while preserving every qualitative result.
type Config struct {
	Seed int64

	// Database.
	DBTitles int

	// Training set (pairs with 0-2 joins, 80/20 split).
	TrainPairs int

	// Models.
	CRN             crn.Config
	MSCN            mscn.Config
	MSCN1000Samples int // bitmap width of the sampling MSCN variant

	// PostgreSQL-style statistics resolution. The paper's PostgreSQL runs
	// its default statistics target (100 buckets) against 2.5M titles —
	// one bucket per ~25k rows. Holding that bucket density on a scaled
	// database keeps the estimator's relative resolution faithful; 0 means
	// derive from DBTitles.
	PGBins int
	PGMCVs int

	// Queries pool (§6.2).
	PoolSize int

	// Workload sizes.
	CntTest1Size int
	CntTest2Size int
	CrdTest1Size int
	CrdTest2Size int
	ScaleSize    int

	// Parallelism for labeling.
	Workers int
}

// SmallConfig is the default, benchmark-friendly scale.
func SmallConfig() Config {
	crnCfg := crn.DefaultConfig()
	crnCfg.Hidden = 64
	crnCfg.Epochs = 48
	crnCfg.Patience = 12
	crnCfg.LRDecay = 0.3
	mscnCfg := mscn.DefaultConfig()
	mscnCfg.Hidden = 64
	mscnCfg.Epochs = 48
	mscnCfg.Patience = 12
	mscnCfg.LRDecay = 0.3
	return Config{
		Seed:     1,
		DBTitles: 12000,
		// ~60k labeled executions; the executor memoizes shared sub-queries.
		TrainPairs: 20000,
		CRN:        crnCfg,
		MSCN:       mscnCfg,
		// The paper's 1000 samples cover 0.04% of 2.5M titles; 64 of 12k
		// covers 0.5% — the closest functional setting at this scale.
		MSCN1000Samples: 64,
		PoolSize:        300,
		CntTest1Size:    1200,
		CntTest2Size:    1200,
		CrdTest1Size:    450,
		CrdTest2Size:    450,
		ScaleSize:       500,
		Workers:         2,
	}
}

// FullConfig approaches the paper's scale (still bounded for a laptop).
func FullConfig() Config {
	c := SmallConfig()
	c.DBTitles = 40000
	c.TrainPairs = 40000
	c.CRN.Hidden = 128
	c.CRN.Epochs = 60
	c.CRN.Patience = 10
	c.MSCN.Hidden = 128
	c.MSCN.Epochs = 60
	c.MSCN.Patience = 10
	c.MSCN1000Samples = 200
	return c
}

// BenchConfig is the calibration used by the root benchmark suite: large
// enough that every experiment exercises its full code path and the
// relative model ordering is visible, small enough that the whole suite
// (environment build plus every table and figure) runs in minutes. The
// headline reproduction numbers come from `cmd/repro -scale small`
// (SmallConfig); see the README's "Reproducing the paper" section.
func BenchConfig() Config {
	c := SmallConfig()
	c.DBTitles = 3000
	c.TrainPairs = 5000
	c.CRN.Epochs = 16
	c.CRN.Patience = 6
	c.MSCN.Epochs = 16
	c.MSCN.Patience = 6
	c.MSCN1000Samples = 64
	c.CntTest1Size = 600
	c.CntTest2Size = 600
	c.CrdTest1Size = 240
	c.CrdTest2Size = 240
	c.ScaleSize = 250
	return c
}

// TinyConfig is for unit tests of the harness itself.
func TinyConfig() Config {
	c := SmallConfig()
	c.DBTitles = 300
	c.TrainPairs = 400
	c.CRN.Hidden = 16
	c.CRN.Epochs = 4
	c.CRN.Patience = 2
	c.MSCN.Hidden = 16
	c.MSCN.Epochs = 4
	c.MSCN.Patience = 2
	c.MSCN1000Samples = 32
	c.PoolSize = 60
	c.CntTest1Size = 60
	c.CntTest2Size = 60
	c.CrdTest1Size = 30
	c.CrdTest2Size = 30
	c.ScaleSize = 30
	return c
}

// Env is a fully built experimental environment: database, oracle, trained
// models, pool and labeled workloads. Build it once and share across
// experiments; it is read-only afterwards.
type Env struct {
	Cfg    Config
	Schema *schema.Schema
	DB     *db.Database
	Exec   *exec.Executor
	Enc    *feature.Encoder

	PG       *pg.Estimator
	CRN      *crn.Model
	CRNStats []crn.EpochStats
	CRNRates *crn.Rates
	MSCN     *mscn.Estimator
	MSCN1000 *mscn.Estimator

	Pool *pool.Pool

	TrainPairs []workload.LabeledPair // the CRN training set (for sweeps)
	ValPairs   []workload.LabeledPair

	CntTest1 []workload.LabeledPair
	CntTest2 []workload.LabeledPair
	CrdTest1 []workload.LabeledQuery
	CrdTest2 []workload.LabeledQuery
	ScaleWL  []workload.LabeledQuery

	BuildTime time.Duration
}

// Logf is a printf-style progress sink; nil discards.
type Logf func(format string, args ...any)

func (l Logf) logf(format string, args ...any) {
	if l != nil {
		l(format, args...)
	}
}

// Build constructs the whole environment: synthesize the database, generate
// and label all workloads, train CRN, MSCN and MSCN1000, and fill the
// queries pool.
func Build(cfg Config, log Logf) (*Env, error) {
	start := time.Now()
	s := schema.IMDB()

	log.logf("generating database (%d titles)...", cfg.DBTitles)
	dgCfg := datagen.DefaultConfig()
	dgCfg.Seed = cfg.Seed
	dgCfg.Titles = cfg.DBTitles
	d, err := datagen.Generate(dgCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: datagen: %w", err)
	}
	ex, err := exec.New(d)
	if err != nil {
		return nil, err
	}
	enc, err := feature.NewEncoder(s, d)
	if err != nil {
		return nil, err
	}
	env := &Env{Cfg: cfg, Schema: s, DB: d, Exec: ex, Enc: enc}

	log.logf("profiling database (PostgreSQL-style ANALYZE)...")
	pgCfg := pg.DefaultConfig()
	pgCfg.HistogramBins = cfg.PGBins
	pgCfg.MCVEntries = cfg.PGMCVs
	if pgCfg.HistogramBins <= 0 {
		// Hold the paper's bucket density (100 buckets per 2.5M titles).
		pgCfg.HistogramBins = max(8, cfg.DBTitles/400)
	}
	if pgCfg.MCVEntries <= 0 {
		pgCfg.MCVEntries = max(5, pgCfg.HistogramBins/2)
	}
	env.PG, err = pg.Analyze(d, pgCfg)
	if err != nil {
		return nil, err
	}

	// Training pairs: 0-2 joins, labeled with true containment rates.
	log.logf("generating and labeling %d training pairs...", cfg.TrainPairs)
	gen := workload.NewGenerator(s, d, cfg.Seed+100)
	env.TrainPairs, env.ValPairs, err = gen.TrainingSet(ex, cfg.TrainPairs, cfg.Workers, cfg.Seed+101)
	if err != nil {
		return nil, err
	}

	// CRN.
	log.logf("training CRN (H=%d, up to %d epochs)...", cfg.CRN.Hidden, cfg.CRN.Epochs)
	env.CRN, env.CRNStats, err = trainCRN(env, cfg.CRN, log)
	if err != nil {
		return nil, err
	}
	env.CRNRates = crn.NewRates(env.CRN, enc)

	// MSCN, trained on the same information (§4.1.2): for every pair,
	// Q1∩Q2 and Q1 with their actual cardinalities, deduplicated.
	log.logf("training MSCN (H=%d)...", cfg.MSCN.Hidden)
	env.MSCN, err = trainMSCNFromPairs(env, cfg.MSCN, 0, log)
	if err != nil {
		return nil, err
	}

	// MSCN1000: the sampling variant, trained on queries from the scale
	// generator (§6.6 trains it with the scale workload's generator to
	// make the comparison harder for CRN).
	log.logf("training MSCN1000 (%d samples/table)...", cfg.MSCN1000Samples)
	env.MSCN1000, err = trainMSCN1000(env, log)
	if err != nil {
		return nil, err
	}

	// Queries pool (§6.2): PoolSize queries equally distributed over all
	// FROM clauses, labeled with actual cardinalities; no overlap with the
	// test workloads (different seed).
	log.logf("building queries pool (%d queries)...", cfg.PoolSize)
	poolGen := workload.NewGenerator(s, d, cfg.Seed+200)
	poolLabeled, err := poolGen.NonEmptyPoolQueries(ex, cfg.PoolSize)
	if err != nil {
		return nil, err
	}
	env.Pool = pool.New()
	for _, lq := range poolLabeled {
		env.Pool.Add(lq.Q, lq.Card)
	}

	// Test workloads (different seeds than training, §4.2/§6.1).
	log.logf("generating test workloads...")
	tGen := workload.NewGenerator(s, d, cfg.Seed+300)
	cnt1, err := tGen.Pairs(workload.CntTest1Dist(cfg.CntTest1Size))
	if err != nil {
		return nil, err
	}
	if env.CntTest1, err = workload.LabelPairs(ex, cnt1, cfg.Workers); err != nil {
		return nil, err
	}
	cnt2, err := tGen.Pairs(workload.CntTest2Dist(cfg.CntTest2Size))
	if err != nil {
		return nil, err
	}
	if env.CntTest2, err = workload.LabelPairs(ex, cnt2, cfg.Workers); err != nil {
		return nil, err
	}
	// Cardinality workloads keep only non-empty queries (the MSCN
	// generator convention the paper's crd/scale workloads inherit).
	if env.CrdTest1, err = tGen.NonEmptyQueries(ex, workload.CrdTest1Dist(cfg.CrdTest1Size)); err != nil {
		return nil, err
	}
	if env.CrdTest2, err = tGen.NonEmptyQueries(ex, workload.CrdTest2Dist(cfg.CrdTest2Size)); err != nil {
		return nil, err
	}
	sGen := workload.NewScaleGenerator(s, d, cfg.Seed+400)
	if env.ScaleWL, err = sGen.NonEmptyQueries(ex, workload.ScaleDist(cfg.ScaleSize)); err != nil {
		return nil, err
	}

	env.BuildTime = time.Since(start)
	log.logf("environment ready in %v", env.BuildTime.Round(time.Second))
	return env, nil
}

// trainCRN trains a CRN with the given config on the environment's training
// pairs; the Figure 3 sweep and the loss ablation retrain through it too.
func trainCRN(env *Env, cfg crn.Config, log Logf) (*crn.Model, []crn.EpochStats, error) {
	return crn.TrainOnPairs(context.TODO(), cfg, env.Enc, env.TrainPairs, env.ValPairs, func(st crn.EpochStats) {
		log.logf("  crn epoch %d: train loss %.3f, val q-error %.3f (%v)",
			st.Epoch, st.TrainLoss, st.ValQError, st.Duration.Round(time.Millisecond))
	})
}

// trainMSCNFromPairs builds the MSCN training set from the CRN training
// pairs per §4.1.2 and trains an MSCN with numSamples bitmap width.
func trainMSCNFromPairs(env *Env, cfg mscn.Config, numSamples int, log Logf) (*mscn.Estimator, error) {
	f, err := mscn.NewFeaturizer(env.Schema, env.DB, numSamples, env.Cfg.Seed+500)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var train, val []mscn.Sample
	// For each CRN pair (Q1, Q2), MSCN trains on Q1∩Q2 and Q1 with their
	// actual cardinalities, unique queries only (§4.1.2).
	build := func(pairs []workload.LabeledPair, dst *[]mscn.Sample) error {
		for _, lp := range pairs {
			qi, err := lp.Q1.Intersect(lp.Q2)
			if err != nil {
				return err
			}
			for _, q := range []workload.LabeledQuery{{Q: lp.Q1}, {Q: qi}} {
				key := q.Q.Key()
				if seen[key] {
					continue
				}
				seen[key] = true
				cardTrue, err := env.Exec.Cardinality(q.Q)
				if err != nil {
					return err
				}
				sm, err := f.EncodeSample(q.Q, float64(cardTrue))
				if err != nil {
					return err
				}
				*dst = append(*dst, sm)
			}
		}
		return nil
	}
	if err := build(env.TrainPairs, &train); err != nil {
		return nil, err
	}
	if err := build(env.ValPairs, &val); err != nil {
		return nil, err
	}
	dimT, dimJ, dimP := f.Dims()
	m := mscn.NewModel(cfg, dimT, dimJ, dimP)
	if _, err := m.Train(train, val, func(st mscn.EpochStats) {
		log.logf("  mscn epoch %d: train loss %.3f, val q-error %.3f (%v)",
			st.Epoch, st.TrainLoss, st.ValQError, st.Duration.Round(time.Millisecond))
	}); err != nil {
		return nil, err
	}
	return &mscn.Estimator{F: f, M: m}, nil
}

// trainMSCN1000 trains the sampling MSCN variant on queries from the scale
// generator (§6.6).
func trainMSCN1000(env *Env, log Logf) (*mscn.Estimator, error) {
	cfg := env.Cfg.MSCN
	f, err := mscn.NewFeaturizer(env.Schema, env.DB, env.Cfg.MSCN1000Samples, env.Cfg.Seed+600)
	if err != nil {
		return nil, err
	}
	gen := workload.NewScaleGenerator(env.Schema, env.DB, env.Cfg.Seed+601)
	n := len(env.TrainPairs) + len(env.ValPairs)
	if n == 0 {
		return nil, fmt.Errorf("experiments: no training budget for MSCN1000")
	}
	dist := workload.ScaleDist(n)
	// The scale workload has no 5-join queries; neither does this set.
	// Non-empty only, like every MSCN-generator workload.
	labeled, err := gen.NonEmptyQueries(env.Exec, dist)
	if err != nil {
		return nil, err
	}
	var train, val []mscn.Sample
	for i, lq := range labeled {
		sm, err := f.EncodeSample(lq.Q, float64(lq.Card))
		if err != nil {
			return nil, err
		}
		if i%5 == 4 {
			val = append(val, sm)
		} else {
			train = append(train, sm)
		}
	}
	dimT, dimJ, dimP := f.Dims()
	m := mscn.NewModel(cfg, dimT, dimJ, dimP)
	if _, err := m.Train(train, val, func(st mscn.EpochStats) {
		log.logf("  mscn1000 epoch %d: train loss %.3f, val q-error %.3f (%v)",
			st.Epoch, st.TrainLoss, st.ValQError, st.Duration.Round(time.Millisecond))
	}); err != nil {
		return nil, err
	}
	return &mscn.Estimator{F: f, M: m}, nil
}

// Cnt2CrdCRN returns the paper's headline estimator Cnt2Crd(CRN) over the
// environment's pool, with the PostgreSQL model as the no-match fallback
// (§5.2 suggests falling back to a basic model; the pool's empty-predicate
// queries make this path all but unreachable).
func (env *Env) Cnt2CrdCRN() *card.Estimator {
	est := card.New(env.CRNRates, env.Pool)
	est.Fallback = env.PG
	return est
}

// improved returns Improved X = Cnt2Crd(Crd2Cnt(X)) over the environment's
// pool (§7), with the same fallback as Cnt2CrdCRN.
func (env *Env) improved(m contain.CardEstimator) *card.Estimator {
	est := card.Improved(m, env.Pool)
	est.Fallback = env.PG
	return est
}
