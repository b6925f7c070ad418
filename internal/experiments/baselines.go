package experiments

import "crn/internal/sampling"

// baselines adds the sampling estimators the paper's related work cites
// (Random Sampling and Index-Based Join Sampling, §4.1/§8) to the
// cardinality comparison on crd_test1 — the workload MSCN was originally
// shown to dominate them on.
func baselines(s *session, r *Result) error {
	k := s.env.Cfg.MSCN1000Samples
	if k <= 0 {
		k = 64
	}
	rs, err := sampling.NewRS(s.env.DB, k, s.env.Cfg.Seed+700)
	if err != nil {
		return err
	}
	ibjs, err := sampling.NewIBJS(s.env.DB, k, s.env.Cfg.Seed+701)
	if err != nil {
		return err
	}
	s.cards["RandomSampling"], s.cards["IBJS"] = rs, ibjs
	return s.qerrors(r, "crd_test1", summary, []string{"RandomSampling", "IBJS", "PostgreSQL", "MSCN", "Cnt2Crd(CRN)"})
}
