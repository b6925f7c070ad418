package experiments

import (
	"strings"
	"sync"
	"testing"

	"crn/internal/metrics"
	"crn/internal/pool"
	"crn/internal/workload"
)

// The tiny environment is expensive enough to share across tests.
var (
	tinyOnce sync.Once
	tinyEnv  *Env
	tinyErr  error
)

func tiny(t *testing.T) *Env {
	t.Helper()
	tinyOnce.Do(func() {
		tinyEnv, tinyErr = Build(TinyConfig(), nil)
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyEnv
}

func TestBuildTinyEnvironment(t *testing.T) {
	env := tiny(t)
	if env.CRN == nil || env.MSCN == nil || env.MSCN1000 == nil || env.PG == nil {
		t.Fatal("models missing")
	}
	if env.Pool.Len() != env.Cfg.PoolSize {
		t.Errorf("pool size = %d, want %d", env.Pool.Len(), env.Cfg.PoolSize)
	}
	if len(env.CntTest1) != env.Cfg.CntTest1Size {
		t.Errorf("cnt_test1 = %d", len(env.CntTest1))
	}
	if len(env.CrdTest2) != env.Cfg.CrdTest2Size {
		t.Errorf("crd_test2 = %d", len(env.CrdTest2))
	}
	if len(env.CRNStats) == 0 {
		t.Error("no CRN training stats")
	}
	// Labels are rates in [0,1].
	for _, lp := range env.CntTest1[:10] {
		if lp.Rate < 0 || lp.Rate > 1 {
			t.Fatalf("rate %v out of range", lp.Rate)
		}
	}
}

// TestAllExperimentsRun runs every declared artifact, fig3's retraining
// sweep included, and checks the per-artifact expectations below.
func TestAllExperimentsRun(t *testing.T) {
	env := tiny(t)
	rows := map[string]int{"fig3": len(figure3Hiddens(env.Cfg.CRN.Hidden))}
	names := map[string][]string{"table7": {"PostgreSQL", "MSCN", "Cnt2Crd(CRN)"}}
	for _, id := range ExperimentIDs() {
		t.Run(id, func(t *testing.T) {
			r, err := Run(env, id, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.ID != id {
				t.Errorf("result ID %q", r.ID)
			}
			if len(r.Table.Rows) == 0 {
				t.Error("empty table")
			}
			if n, ok := rows[id]; ok && len(r.Table.Rows) != n {
				t.Errorf("rows = %d, want %d", len(r.Table.Rows), n)
			}
			out := r.Table.Render()
			if out == "" {
				t.Error("empty render")
			}
			for _, name := range names[id] {
				if !strings.Contains(out, name) {
					t.Errorf("missing %q:\n%s", name, out)
				}
			}
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	env := tiny(t)
	if _, err := Run(env, "table99", nil); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestTable2Totals(t *testing.T) {
	env := tiny(t)
	r, err := Run(env, "table2", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Table.Rows {
		if row[len(row)-1] != "60" { // TinyConfig CntTest sizes
			t.Errorf("row %v total != 60", row)
		}
	}
}

func TestCostsIncludesModelSize(t *testing.T) {
	env := tiny(t)
	r, err := Run(env, "costs", nil)
	if err != nil {
		t.Fatal(err)
	}
	out := r.Table.Render()
	for _, want := range []string{"learned parameters", "serialized size", "prediction time per pair"} {
		if !strings.Contains(out, want) {
			t.Errorf("costs missing %q:\n%s", want, out)
		}
	}
}

func TestPoolSweepSizes(t *testing.T) {
	sizes := poolSweepSizes(300)
	if len(sizes) != 6 || sizes[0] != 50 || sizes[5] != 300 {
		t.Errorf("sizes = %v", sizes)
	}
	small := poolSweepSizes(4)
	for i := 1; i < len(small); i++ {
		if small[i] == small[i-1] {
			t.Errorf("duplicate sizes: %v", small)
		}
	}
}

// TestTopKAccuracyGate is the PR-4 acceptance gate for bounded candidate
// selection: over a pool dense enough that K = 64 actually truncates, the
// median q-error of Cnt2Crd(CRN) with the top-64 signature selection must
// stay within 5% of the full pool scan (the Median final function is robust
// to subsetting).
func TestTopKAccuracyGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a dense pool with thousands of labeled executions")
	}
	env := tiny(t)

	// A dense pool: the same §6.2 construction as the environment's own
	// pool, but sized so FROM clauses carry well over 64 candidates.
	gen := workload.NewGenerator(env.Schema, env.DB, 987)
	labeled, err := gen.NonEmptyPoolQueries(env.Exec, 3200)
	if err != nil {
		t.Fatal(err)
	}
	dense := pool.New()
	for _, lq := range labeled {
		dense.Add(lq.Q, lq.Card)
	}

	full := env.Cnt2CrdCRN()
	full.Pool = dense
	topK := env.Cnt2CrdCRN()
	topK.Pool = dense
	topK.MaxCandidates = 64

	fullErrs, err := CardErrors(full, env.CrdTest2)
	if err != nil {
		t.Fatal(err)
	}
	topKErrs, err := CardErrors(topK, env.CrdTest2)
	if err != nil {
		t.Fatal(err)
	}
	if st := dense.Stats(); st.TruncatedCalls == 0 {
		t.Fatalf("K=64 never truncated — the gate pool is not dense enough: %+v", st)
	}

	medFull := metrics.Median(fullErrs)
	medTopK := metrics.Median(topKErrs)
	t.Logf("median q-error: full scan %.4f, top-64 %.4f (pool %d entries, %d FROM keys)",
		medFull, medTopK, dense.Len(), len(dense.FROMKeys()))
	if medTopK > medFull*1.05 {
		t.Errorf("top-64 median q-error %.4f exceeds full-scan %.4f by more than 5%%", medTopK, medFull)
	}
}

// TestPaperOrderings asserts the paper's orderings that the synthetic
// database reproduces at BenchConfig scale, seed 1 (each held at seeds 1-4):
// CRN estimates containment better than both Crd2Cnt baselines (Tables 3-4,
// by mean), and on crd_test2 both Cnt2Crd(CRN) and Improved MSCN beat MSCN
// (Tables 7 and 12, by median). The README's "Reproducing the paper" section
// lists the orderings that do not reproduce.
func TestPaperOrderings(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("builds the BenchConfig environment (~20 s, minutes under -race)")
	}
	env, err := Build(BenchConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(env, nil)
	stat := func(model, set string, agg func([]float64) float64) float64 {
		errs, err := s.errs(model, set)
		if err != nil {
			t.Fatal(err)
		}
		return agg(errs)
	}
	below := func(what, a, b, set string, agg func([]float64) float64) {
		va, vb := stat(a, set, agg), stat(b, set, agg)
		t.Logf("%s %s: %s %.2f vs %s %.2f", set, what, a, va, b, vb)
		if !(va < vb) {
			t.Errorf("%s %s: %s %.2f is not below %s %.2f", set, what, a, va, b, vb)
		}
	}
	for _, set := range []string{"cnt_test1", "cnt_test2"} {
		below("mean", "CRN", "Crd2Cnt(PostgreSQL)", set, metrics.Mean)
		below("mean", "CRN", "Crd2Cnt(MSCN)", set, metrics.Mean)
	}
	below("median", "Cnt2Crd(CRN)", "MSCN", "crd_test2", metrics.Median)
	below("median", "Improved MSCN", "MSCN", "crd_test2", metrics.Median)
}
