package experiments

import (
	"fmt"

	"crn/internal/contain"
	"crn/internal/metrics"
	"crn/internal/optimizer"
	"crn/internal/workload"
)

// planQuality makes the paper's motivation quantitative: it optimizes the
// multi-join crd_test2 queries with each cardinality estimator, then
// evaluates the chosen join orders under the *true* C_out cost. The figure
// of merit is the ratio of a plan's true cost to the optimal plan's true
// cost (1.0 = the estimator picked an optimal join order); the paper's
// argument is that better multi-join estimates yield better plans.
func planQuality(s *session, r *Result) error {
	queries := multiJoinQueries(s.env.CrdTest2, 2, 120)
	if len(queries) == 0 {
		return fmt.Errorf("experiments: no multi-join queries for plan quality")
	}
	truth := contain.TruthCard{T: s.env.Exec}
	oracleOpt := optimizer.New(truth)

	// Optimal true costs per query.
	optimal := make([]float64, len(queries))
	for i, lq := range queries {
		p, err := oracleOpt.Optimize(lq.Q)
		if err != nil {
			return err
		}
		optimal[i] = p.EstimatedCost // oracle estimate == true cost
	}

	r.Table.Title = fmt.Sprintf(r.Table.Title, len(queries))
	r.Table.Header = []string{"estimator", "p50", "p90", "max", "mean", "optimal plans"}
	for _, m := range cardinality {
		s.log.logf("plan quality: optimizing with %s...", m)
		opt := optimizer.New(s.cards[m])
		ratios := make([]float64, 0, len(queries))
		optimalCount := 0
		for i, lq := range queries {
			p, err := opt.Optimize(lq.Q)
			if err != nil {
				return err
			}
			trueCost, err := optimizer.Cost(truth, lq.Q, p.Order)
			if err != nil {
				return err
			}
			ratio := 1.0
			if optimal[i] > 0 {
				ratio = trueCost / optimal[i]
			}
			if ratio < 1 {
				ratio = 1 // guard tiny float noise
			}
			if ratio < 1.0001 {
				optimalCount++
			}
			ratios = append(ratios, ratio)
		}
		sum := metrics.Summarize(ratios)
		r.Table.AddRow(m,
			metrics.FormatQ(sum.P50), metrics.FormatQ(sum.P90), metrics.FormatQ(sum.Max),
			metrics.FormatQ(sum.Mean),
			fmt.Sprintf("%d/%d", optimalCount, len(queries)))
	}
	return nil
}

// multiJoinQueries selects up to max labeled queries with at least minJoins
// joins.
func multiJoinQueries(ql []workload.LabeledQuery, minJoins, max int) []workload.LabeledQuery {
	var out []workload.LabeledQuery
	for _, lq := range ql {
		if lq.Q.NumJoins() >= minJoins {
			out = append(out, lq)
			if len(out) >= max {
				break
			}
		}
	}
	return out
}
