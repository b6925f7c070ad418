package experiments

import (
	"context"
	"fmt"
	"time"

	"crn/internal/card"
	"crn/internal/contain"
	"crn/internal/crn"
	"crn/internal/metrics"
	"crn/internal/query"
	"crn/internal/workload"
)

// Result is one regenerated paper artifact.
type Result struct {
	ID    string // e.g. "table3", "fig5"
	Table metrics.Table
	// Plot carries an ASCII rendering for figure experiments (box plots on
	// a log q-error axis); empty for plain tables.
	Plot string
}

// An experiment is one artifact of the evaluation: its ID, its table title
// and the function that fills in the rest of its result.
type experiment struct {
	id, title string
	run       func(s *session, r *Result) error
}

// The models the paper's comparisons put side by side, by display name.
var (
	containment    = []string{"Crd2Cnt(PostgreSQL)", "Crd2Cnt(MSCN)", "CRN"}
	cardinality    = []string{"PostgreSQL", "MSCN", "Cnt2Crd(CRN)"}
	withMSCN1000   = []string{"PostgreSQL", "MSCN", "Cnt2Crd(CRN)", "MSCN1000"}
	allCardinality = []string{"PostgreSQL", "MSCN", "MSCN1000", "Improved PostgreSQL", "Improved MSCN", "Cnt2Crd(CRN)"}
)

// paper is the evaluation in paper order, followed by this repository's
// ablations. ExperimentIDs, Run and RunAll all read it.
var paper = []experiment{
	{"table2", "Table 2: Distribution of joins (containment workloads)", joinDist("cnt_test1", "cnt_test2")},
	{"fig3", "Figure 3: validation mean q-error vs hidden layer size", figure3},
	{"fig4", "Figure 4: convergence of the validation mean q-error", figure4},
	qerr("table3", "Table 3: Estimation errors on the cnt_test1 workload", "cnt_test1", summary, containment),
	qerr("fig5", "Figure 5: box statistics on the cnt_test1 workload", "cnt_test1", boxes, containment),
	qerr("table4", "Table 4: Estimation errors on the cnt_test2 workload", "cnt_test2", summary, containment),
	qerr("fig6", "Figure 6: box statistics on the cnt_test2 workload", "cnt_test2", boxes, containment),
	{"table5", "Table 5: Distribution of joins (cardinality workloads)", joinDist("crd_test1", "crd_test2", "scale")},
	qerr("table6", "Table 6: Estimation errors on the crd_test1 workload", "crd_test1", summary, cardinality),
	qerr("fig9", "Figure 9: box statistics on the crd_test1 workload", "crd_test1", boxes, cardinality),
	qerr("table7", "Table 7: Estimation errors on the crd_test2 workload", "crd_test2", summary, cardinality),
	qerr("fig10", "Figure 10: box statistics on the crd_test2 workload", "crd_test2", boxes, cardinality),
	qerr("table8", "Table 8: Estimation errors on crd_test2, queries with 3-5 joins only", "crd_test2_high", summary, cardinality),
	qerr("table9", "Table 9: Q-error means for each number of joins (crd_test2)", "crd_test2", joinMeans, cardinality),
	qerr("fig11", "Figure 11: Q-error medians for each number of joins (crd_test2)", "crd_test2", joinMedians, cardinality),
	qerr("table10", "Table 10: Estimation errors on the scale workload", "scale", summary, withMSCN1000),
	qerr("fig12", "Figure 12: box statistics on the scale workload", "scale", boxes, withMSCN1000),
	qerr("fig13", "Figure 13: box statistics on crd_test2, all models", "crd_test2", boxes, allCardinality),
	qerr("table11", "Table 11: PostgreSQL vs Improved PostgreSQL (crd_test2)", "crd_test2", summary,
		[]string{"PostgreSQL", "Improved PostgreSQL"}),
	qerr("table12", "Table 12: MSCN vs Improved MSCN (crd_test2)", "crd_test2", summary,
		[]string{"MSCN", "Improved MSCN"}),
	qerr("table13", "Table 13: Improved models vs Cnt2Crd(CRN) (crd_test2)", "crd_test2", summary,
		[]string{"Improved PostgreSQL", "Improved MSCN", "Cnt2Crd(CRN)"}),
	{"table14", "Table 14: Cnt2Crd(CRN) on crd_test2 vs queries pool size", table14},
	{"table15", "Table 15: Average prediction time of a single query", table15},
	{"topk", "Top-K candidate bound: Cnt2Crd(CRN) on crd_test2", topK},
	{"costs", "CRN model computational costs (§3.5)", costs},
	{"ablation_final", "Ablation: final function F on crd_test2 (Cnt2Crd(CRN))", ablationFinal},
	{"ablation_eps", "Ablation: y_rate guard ε on crd_test2 (Cnt2Crd(CRN))", ablationEpsilon},
	{"ablation_anchor", "Ablation: pool anchor queries on crd_test2 (Cnt2Crd(CRN))", ablationAnchor},
	{"ablation_oracle", "Ablation: Cnt2Crd with oracle rates vs CRN rates (crd_test2)", oracleCeiling},
	{"ablation_loss", "Ablation: CRN training objective (validation mean q-error)", ablationLoss},
	{"planquality", "Plan quality on crd_test2 (%d queries with 2+ joins): true-cost ratio to optimal plan", planQuality},
	{"baselines", "Baselines: sampling estimators vs learned models (crd_test1)", baselines},
}

// ExperimentIDs lists every runnable experiment in paper order, followed by
// this repository's ablations.
func ExperimentIDs() []string {
	ids := make([]string, len(paper))
	for i, e := range paper {
		ids[i] = e.id
	}
	return ids
}

// Run executes one experiment by ID.
func Run(env *Env, id string, log Logf) (Result, error) {
	for _, e := range paper {
		if e.id == id {
			return newSession(env, log).run(e)
		}
	}
	return Result{}, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, ExperimentIDs())
}

// RunAll executes every experiment in paper order; artifacts over the same
// model and test set share one evaluation.
func RunAll(env *Env, log Logf) ([]Result, error) {
	s := newSession(env, log)
	out := make([]Result, 0, len(paper))
	for _, e := range paper {
		log.logf("running %s...", e.id)
		r, err := s.run(e)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.id, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// A testSet is a labeled workload: pairs for the containment sets, queries
// for the cardinality ones.
type testSet struct {
	pairs   []workload.LabeledPair
	queries []workload.LabeledQuery
}

// joins lists the number of joins of every item; a pair counts as its Q1.
func (t testSet) joins() []int {
	out := make([]int, 0, len(t.pairs)+len(t.queries))
	for _, p := range t.pairs {
		out = append(out, p.Q1.NumJoins())
	}
	for _, lq := range t.queries {
		out = append(out, lq.Q.NumJoins())
	}
	return out
}

// A session is one Run or RunAll call: the environment's models and test
// sets by name, and a memo of each model's q-errors per test set.
type session struct {
	env   *Env
	log   Logf
	rates map[string]contain.RateEstimator // evaluated on the pair sets
	cards map[string]contain.CardEstimator // evaluated on the query sets
	sets  map[string]testSet
	memo  map[string][]float64
}

func newSession(env *Env, log Logf) *session {
	var high []workload.LabeledQuery
	for _, lq := range env.CrdTest2 {
		if lq.Q.NumJoins() >= 3 {
			high = append(high, lq)
		}
	}
	return &session{
		env: env,
		log: log,
		rates: map[string]contain.RateEstimator{
			"Crd2Cnt(PostgreSQL)": contain.Crd2Cnt{M: env.PG, Name: "Crd2Cnt(PostgreSQL)"},
			"Crd2Cnt(MSCN)":       contain.Crd2Cnt{M: env.MSCN, Name: "Crd2Cnt(MSCN)"},
			"CRN":                 env.CRNRates,
		},
		cards: map[string]contain.CardEstimator{
			"PostgreSQL":          env.PG,
			"MSCN":                env.MSCN,
			"MSCN1000":            env.MSCN1000,
			"Improved PostgreSQL": env.improved(env.PG),
			"Improved MSCN":       env.improved(env.MSCN),
			"Cnt2Crd(CRN)":        env.Cnt2CrdCRN(),
		},
		sets: map[string]testSet{
			"cnt_test1":      {pairs: env.CntTest1},
			"cnt_test2":      {pairs: env.CntTest2},
			"crd_test1":      {queries: env.CrdTest1},
			"crd_test2":      {queries: env.CrdTest2},
			"crd_test2_high": {queries: high},
			"scale":          {queries: env.ScaleWL},
		},
		memo: make(map[string][]float64),
	}
}

func (s *session) run(e experiment) (Result, error) {
	r := Result{ID: e.id, Table: metrics.Table{Title: e.title}}
	err := e.run(s, &r)
	return r, err
}

// errs returns the q-errors of one model over one test set, evaluated once
// per session.
func (s *session) errs(model, set string) ([]float64, error) {
	key := model + "|" + set
	if v, ok := s.memo[key]; ok {
		return v, nil
	}
	var v []float64
	var err error
	if rates, ok := s.rates[model]; ok {
		v, err = RateErrors(rates, s.sets[set].pairs)
	} else if est, ok := s.cards[model]; ok {
		v, err = CardErrors(est, s.sets[set].queries)
	} else {
		return nil, fmt.Errorf("experiments: unknown model %q", model)
	}
	if err != nil {
		return nil, err
	}
	s.memo[key] = v
	return v, nil
}

// RateErrors evaluates a containment-rate estimator over labeled pairs and
// returns per-pair q-errors.
func RateErrors(rates contain.RateEstimator, pairs []workload.LabeledPair) ([]float64, error) {
	out := make([]float64, len(pairs))
	const chunk = 256
	for lo := 0; lo < len(pairs); lo += chunk {
		hi := min(lo+chunk, len(pairs))
		qp := make([][2]query.Query, hi-lo)
		for i := lo; i < hi; i++ {
			qp[i-lo] = [2]query.Query{pairs[i].Q1, pairs[i].Q2}
		}
		queries, idx := contain.IndexPairs(qp)
		rs, err := rates.EstimateRatesIndexed(context.Background(), queries, idx)
		if err != nil {
			return nil, err
		}
		for i := lo; i < hi; i++ {
			out[i] = metrics.RateQError(pairs[i].Rate, rs[i-lo])
		}
	}
	return out, nil
}

// CardErrors evaluates a cardinality estimator over labeled queries and
// returns per-query q-errors.
func CardErrors(est contain.CardEstimator, queries []workload.LabeledQuery) ([]float64, error) {
	out := make([]float64, len(queries))
	for i, lq := range queries {
		c, err := est.EstimateCard(lq.Q)
		if err != nil {
			return nil, err
		}
		out[i] = metrics.CardQError(float64(lq.Card), c)
	}
	return out, nil
}

// --- The q-error evaluator (Tables 3, 4, 6-13; Figures 5, 6, 9-13) ---------

// A view is how a q-error artifact shows each model's errors.
type view int

const (
	summary     view = iota // percentiles, max and mean
	boxes                   // box statistics, plus an ASCII box plot
	joinMeans               // mean per number of joins
	joinMedians             // median per number of joins
)

// qerr declares a q-error artifact: every named model evaluated over one
// test set and shown as v.
func qerr(id, title, set string, v view, models []string) experiment {
	return experiment{id, title, func(s *session, r *Result) error {
		return s.qerrors(r, set, v, models)
	}}
}

func (s *session) qerrors(r *Result, set string, v view, models []string) error {
	switch v {
	case summary:
		r.Table.Header = metrics.SummaryHeader("model")
	case boxes:
		r.Table.Header = []string{"model", "p5", "p25", "p50", "p75", "p95"}
	default:
		r.Table.Header = []string{"number of joins", "0", "1", "2", "3", "4", "5"}
	}
	var stats []metrics.Box
	for _, m := range models {
		errs, err := s.errs(m, set)
		if err != nil {
			return err
		}
		switch v {
		case summary:
			r.Table.AddRow(metrics.SummaryRow(m, metrics.Summarize(errs))...)
		case boxes:
			b := metrics.BoxStats(errs)
			r.Table.AddRow(m, metrics.FormatQ(b.P5), metrics.FormatQ(b.P25),
				metrics.FormatQ(b.P50), metrics.FormatQ(b.P75), metrics.FormatQ(b.P95))
			stats = append(stats, b)
		default:
			agg := metrics.Mean
			if v == joinMedians {
				agg = metrics.Median
			}
			byJoin := make(map[int][]float64)
			for i, j := range s.sets[set].joins() {
				byJoin[j] = append(byJoin[j], errs[i])
			}
			row := []string{m}
			for j := 0; j <= 5; j++ {
				if len(byJoin[j]) == 0 {
					row = append(row, "-")
					continue
				}
				row = append(row, metrics.FormatQ(agg(byJoin[j])))
			}
			r.Table.AddRow(row...)
		}
	}
	if v == boxes {
		r.Plot = metrics.RenderBoxes(r.Table.Title+" (log q-error axis)", models, stats, 64)
	}
	return nil
}

// --- Workloads, training and sweeps ------------------------------------------

// joinDist tabulates the join distribution of the named test sets (Tables 2
// and 5).
func joinDist(sets ...string) func(*session, *Result) error {
	return func(s *session, r *Result) error {
		r.Table.Header = []string{"number of joins", "0", "1", "2", "3", "4", "5", "overall"}
		for _, set := range sets {
			hist := make(map[int]int)
			for _, j := range s.sets[set].joins() {
				hist[j]++
			}
			row := []string{set}
			total := 0
			for j := 0; j <= 5; j++ {
				row = append(row, fmt.Sprint(hist[j]))
				total += hist[j]
			}
			r.Table.AddRow(append(row, fmt.Sprint(total))...)
		}
		return nil
	}
}

// figure3 retrains the CRN at hidden-layer sizes around the configured one
// and reports the best validation mean q-error of each, reproducing the
// hyperparameter search of §3.4.
func figure3(s *session, r *Result) error {
	r.Table.Header = []string{"hidden size", "val mean q-error", "epochs", "params"}
	for _, h := range figure3Hiddens(s.env.Cfg.CRN.Hidden) {
		cfg := s.env.Cfg.CRN
		cfg.Hidden = h
		s.log.logf("figure3: training CRN with H=%d...", h)
		m, stats, err := trainCRN(s.env, cfg, nil)
		if err != nil {
			return err
		}
		r.Table.AddRow(fmt.Sprint(h), metrics.FormatQ(bestVal(stats)), fmt.Sprint(len(stats)), fmt.Sprint(m.NumParams()))
	}
	return nil
}

// figure3Hiddens picks the sweep around the configured width (the paper
// sweeps 64..2048 around its chosen 512).
func figure3Hiddens(h int) []int {
	if h <= 4 {
		return []int{2, 4, 8}
	}
	return []int{h / 4, h / 2, h, h * 2}
}

// bestVal is the best validation mean q-error of one training run.
func bestVal(stats []crn.EpochStats) float64 {
	best := stats[0].ValQError
	for _, st := range stats {
		if st.ValQError < best {
			best = st.ValQError
		}
	}
	return best
}

// figure4 reports the validation mean q-error per training epoch of the
// environment's CRN (§3.5.1).
func figure4(s *session, r *Result) error {
	r.Table.Header = []string{"epoch", "train loss", "val mean q-error", "epoch time"}
	for _, st := range s.env.CRNStats {
		r.Table.AddRow(fmt.Sprint(st.Epoch), fmt.Sprintf("%.3f", st.TrainLoss),
			metrics.FormatQ(st.ValQError), st.Duration.Round(time.Millisecond).String())
	}
	return nil
}

// table14 reproduces the queries-pool size sweep: estimation quality and
// prediction time of Cnt2Crd(CRN) as the pool grows (§7.4).
func table14(s *session, r *Result) error {
	r.Table.Header = []string{"QP size", "median", "mean", "prediction time"}
	for _, n := range poolSweepSizes(s.env.Pool.Len()) {
		est := s.env.Cnt2CrdCRN()
		est.Pool = s.env.Pool.Subset(n)
		if err := s.sweepRow(r, fmt.Sprint(n), est); err != nil {
			return err
		}
	}
	return nil
}

// poolSweepSizes scales the paper's 50..300 pool sweep (steps of 50) to a
// pool of n entries, without repeats.
func poolSweepSizes(n int) []int {
	var out []int
	for i := 1; i <= 6; i++ {
		if size := n * i / 6; size > 0 && (len(out) == 0 || size != out[len(out)-1]) {
			out = append(out, size)
		}
	}
	return out
}

// topK measures signature-indexed candidate selection against the full pool
// scan of Figure 8: estimation quality and per-query prediction time of
// Cnt2Crd(CRN) on crd_test2 at several candidate bounds K (0 = the paper's
// unbounded scan). The Median final function is robust to subsetting, so
// moderate K is expected to track the full scan's median q-error while
// bounding the per-estimate cost at O(K); TestTopKAccuracyGate enforces that
// on a pool dense enough for K to bind.
func topK(s *session, r *Result) error {
	r.Table.Header = []string{"K", "median", "mean", "prediction time"}
	for _, k := range []int{4, 16, 64, 0} {
		est := s.env.Cnt2CrdCRN()
		est.MaxCandidates = k
		label := "full"
		if k > 0 {
			label = fmt.Sprint(k)
		}
		if err := s.sweepRow(r, label, est); err != nil {
			return err
		}
	}
	return nil
}

// sweepRow evaluates one Cnt2Crd(CRN) variant over crd_test2 and adds its
// median and mean q-error and per-query prediction time as one row.
func (s *session) sweepRow(r *Result, label string, est *card.Estimator) error {
	queries := s.env.CrdTest2
	start := time.Now()
	errs, err := CardErrors(est, queries)
	if err != nil {
		return err
	}
	per := time.Since(start) / time.Duration(max(1, len(queries)))
	r.Table.AddRow(label, metrics.FormatQ(metrics.Median(errs)),
		metrics.FormatQ(metrics.Mean(errs)), per.Round(10*time.Microsecond).String())
	return nil
}

// table15 reproduces the average single-query prediction time of every
// model (§7.4), sampled over a bounded prefix of crd_test2 for stable
// timing.
func table15(s *session, r *Result) error {
	queries := s.env.CrdTest2
	if len(queries) > 100 {
		queries = queries[:100]
	}
	r.Table.Header = []string{"model", "prediction time"}
	for _, m := range allCardinality {
		est := s.cards[m]
		start := time.Now()
		for _, lq := range queries {
			if _, err := est.EstimateCard(lq.Q); err != nil {
				return err
			}
		}
		per := time.Since(start) / time.Duration(len(queries))
		r.Table.AddRow(m, per.Round(10*time.Microsecond).String())
	}
	return nil
}

// costs reports the CRN cost profile of §3.5: epochs to converge, epoch
// time, per-pair prediction time, parameter count and serialized size.
func costs(s *session, r *Result) error {
	env := s.env
	r.Table.Header = []string{"quantity", "value"}
	if epochs := len(env.CRNStats); epochs > 0 {
		var total time.Duration
		for _, st := range env.CRNStats {
			total += st.Duration
		}
		r.Table.AddRow("training epochs", fmt.Sprint(epochs))
		r.Table.AddRow("avg epoch time", (total / time.Duration(epochs)).Round(time.Millisecond).String())
		r.Table.AddRow("total training time", total.Round(time.Millisecond).String())
		r.Table.AddRow("best val mean q-error", metrics.FormatQ(bestVal(env.CRNStats)))
	}
	// Prediction time per pair (§3.5.2), averaged over a batch-1 loop.
	pairs := env.ValPairs
	if len(pairs) > 200 {
		pairs = pairs[:200]
	}
	if len(pairs) > 0 {
		start := time.Now()
		for _, lp := range pairs {
			if _, err := env.CRNRates.EstimateRate(lp.Q1, lp.Q2); err != nil {
				return err
			}
		}
		r.Table.AddRow("prediction time per pair", (time.Since(start) / time.Duration(len(pairs))).Round(time.Microsecond).String())
	}
	r.Table.AddRow("learned parameters", fmt.Sprint(env.CRN.NumParams()))
	blob, err := env.CRN.Save()
	if err != nil {
		return err
	}
	r.Table.AddRow("serialized size", fmt.Sprintf("%d bytes", len(blob)))
	return nil
}
