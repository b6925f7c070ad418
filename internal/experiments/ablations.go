package experiments

import (
	"fmt"

	"crn/internal/card"
	"crn/internal/contain"
	"crn/internal/metrics"
	"crn/internal/pool"
)

// Ablations isolate the design choices the paper makes informally: the
// Median final function (§5.3.1), the y_rate ε guard (Figure 8), the
// empty-predicate anchor queries in the pool (§5.2), and the q-error
// training objective (§3.2.4).

// A variant is one labeled estimator of an ablation on crd_test2.
type variant struct {
	label string
	est   contain.CardEstimator
}

// variantRows adds one summary row per variant, evaluated over crd_test2.
func (s *session) variantRows(r *Result, col string, variants []variant) error {
	r.Table.Header = metrics.SummaryHeader(col)
	for _, v := range variants {
		errs, err := CardErrors(v.est, s.env.CrdTest2)
		if err != nil {
			return err
		}
		r.Table.AddRow(metrics.SummaryRow(v.label, metrics.Summarize(errs))...)
	}
	return nil
}

// ablationFinal compares the final functions F with the environment's
// Cnt2Crd(CRN) estimator (the paper reports Median best).
func ablationFinal(s *session, r *Result) error {
	var vs []variant
	for _, f := range []struct {
		name string
		fn   pool.FinalFunc
	}{{"median", pool.Median}, {"mean", pool.Mean}, {"trimmed mean", pool.TrimmedMean}} {
		est := s.env.Cnt2CrdCRN()
		est.Final = f.fn
		vs = append(vs, variant{f.name, est})
	}
	return s.variantRows(r, "final function", vs)
}

// ablationEpsilon sweeps the y_rate guard ε of the Figure 8 algorithm.
func ablationEpsilon(s *session, r *Result) error {
	var vs []variant
	for _, eps := range []float64{1e-4, 1e-3, 1e-2, 5e-2} {
		est := s.env.Cnt2CrdCRN()
		est.Epsilon = eps
		vs = append(vs, variant{fmt.Sprintf("%g", eps), est})
	}
	return s.variantRows(r, "epsilon", vs)
}

// ablationAnchor removes the empty-predicate anchor queries from the pool,
// quantifying the §5.2 guarantee that every probe finds a usable match.
func ablationAnchor(s *session, r *Result) error {
	noAnchor := pool.New()
	for _, e := range s.env.Pool.Entries() {
		if len(e.Q.Preds) > 0 {
			noAnchor.Add(e.Q, e.Card)
		}
	}
	est := s.env.Cnt2CrdCRN()
	est.Pool = noAnchor
	return s.variantRows(r, "pool", []variant{{"with anchors", s.env.Cnt2CrdCRN()}, {"without anchors", est}})
}

// oracleCeiling evaluates the technique with exact containment rates — the
// accuracy ceiling of Cnt2Crd given this pool (model error removed).
func oracleCeiling(s *session, r *Result) error {
	oracle := card.New(contain.TruthRate{T: s.env.Exec}, s.env.Pool)
	oracle.Fallback = s.env.PG
	return s.variantRows(r, "rates", []variant{{"oracle rates", oracle}, {"CRN rates", s.cards["Cnt2Crd(CRN)"]}})
}

// ablationLoss retrains the CRN under the paper's three candidate
// objectives (§3.2.4) and reports validation quality; q-error should win.
func ablationLoss(s *session, r *Result) error {
	r.Table.Header = []string{"loss", "best val q-error", "epochs"}
	for _, loss := range []string{"q-error", "mse", "mae"} {
		cfg := s.env.Cfg.CRN
		cfg.Loss = loss
		s.log.logf("ablation: training CRN with %s loss...", loss)
		_, stats, err := trainCRN(s.env, cfg, nil)
		if err != nil {
			return err
		}
		r.Table.AddRow(loss, metrics.FormatQ(bestVal(stats)), fmt.Sprint(len(stats)))
	}
	return nil
}
