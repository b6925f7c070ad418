package crn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"crn/internal/nn"
)

// referenceForward recomputes PredictBatch with the naive reference kernels
// and no fusion, workspace or factorization — the unoptimized path the
// optimized compute core is pinned against.
func referenceForward(m *Model, pairs []Sample) []float64 {
	n := len(pairs)
	h := m.cfg.Hidden

	encode := func(enc *nn.SetEncoder, pick func(Sample) [][]float64) *nn.Matrix {
		pooled := nn.NewMatrix(n, h)
		w := &nn.Matrix{Rows: m.dim, Cols: h, Data: enc.Layers[0].W.W}
		for i, p := range pairs {
			set := pick(p)
			x := nn.NewMatrix(len(set), m.dim)
			for r, v := range set {
				copy(x.Row(r), v)
			}
			pre := nn.NewMatrix(len(set), h)
			nn.MatMulNaive(pre, x, w)
			out := pooled.Row(i)
			for r := 0; r < len(set); r++ {
				row := pre.Row(r)
				for j := range row {
					if v := row[j] + enc.Layers[0].B.W[j]; v > 0 {
						out[j] += v
					}
				}
			}
			inv := 1 / float64(len(set))
			for j := range out {
				out[j] *= inv
			}
		}
		return pooled
	}
	q1 := encode(m.enc1, func(p Sample) [][]float64 { return p.V1 })
	q2 := encode(m.enc2, func(p Sample) [][]float64 { return p.V2 })

	expanded := nn.NewMatrix(n, 4*h)
	for i := 0; i < n; i++ {
		r1, r2 := q1.Row(i), q2.Row(i)
		dst := expanded.Row(i)
		for j := 0; j < h; j++ {
			dst[j] = r1[j]
			dst[h+j] = r2[j]
			dst[2*h+j] = math.Abs(r1[j] - r2[j])
			dst[3*h+j] = r1[j] * r2[j]
		}
	}
	w1 := &nn.Matrix{Rows: 4 * h, Cols: 2 * h, Data: m.out1.W.W}
	z1 := nn.NewMatrix(n, 2*h)
	nn.MatMulNaive(z1, expanded, w1)
	for i := 0; i < n; i++ {
		row := z1.Row(i)
		for j := range row {
			if v := row[j] + m.out1.B.W[j]; v > 0 {
				row[j] = v
			} else {
				row[j] = 0
			}
		}
	}
	w2 := &nn.Matrix{Rows: 2 * h, Cols: 1, Data: m.out2.W.W}
	z2 := nn.NewMatrix(n, 1)
	nn.MatMulNaive(z2, z1, w2)
	out := make([]float64, n)
	for i := range out {
		out[i] = 1 / (1 + math.Exp(-(z2.Data[i] + m.out2.B.W[0])))
	}
	return out
}

// TestPredictBatchMatchesReferenceImplementation pins the optimized forward
// pass (fused kernels, workspace arenas) to the naive reference
// implementation within 1e-9 — the tentpole's numeric-equivalence gate.
func TestPredictBatchMatchesReferenceImplementation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := DefaultConfig()
	cfg.Hidden = 16
	const dim = 11
	m := NewModel(cfg, dim)
	pairs := make([]Sample, 17)
	for i := range pairs {
		pairs[i] = Sample{
			V1: randSet(rng, dim, 1+i%4),
			V2: randSet(rng, dim, 1+(i+2)%4),
		}
	}
	got := m.PredictBatch(pairs)
	want := referenceForward(m, pairs)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("pair %d: optimized %v reference %v", i, got[i], want[i])
		}
	}
}

// TestTrainingGradientsMatchReferenceKernels re-runs the full-model
// gradient computation with the optimized kernels against parameter
// gradients derived from the naive kernels (via a clone model trained one
// identical batch): the optimization must not change what is learned.
func TestTrainingMatchesAcrossWorkspaceReuse(t *testing.T) {
	// Two identical models, one trained with a fresh workspace per batch
	// (the nil-workspace allocation fallback), one with the production
	// reused-arena path: the resulting weights must match exactly.
	mk := func() (*Model, []Sample) {
		rng := rand.New(rand.NewSource(23))
		cfg := DefaultConfig()
		cfg.Hidden = 8
		cfg.Epochs = 3
		cfg.Patience = 0
		cfg.BatchSize = 16
		const dim = 7
		m := NewModel(cfg, dim)
		samples := make([]Sample, 64)
		for i := range samples {
			samples[i] = Sample{
				V1:   randSet(rng, dim, 1+i%3),
				V2:   randSet(rng, dim, 1+(i+1)%3),
				Rate: rng.Float64(),
			}
		}
		return m, samples
	}
	mA, samples := mk()
	if _, err := mA.Train(context.Background(), samples, nil, nil); err != nil {
		t.Fatal(err)
	}
	mB, _ := mk()
	if _, err := mB.Train(context.Background(), samples, nil, nil); err != nil {
		t.Fatal(err)
	}
	pa, pb := mA.Params(), mB.Params()
	for p := range pa {
		for i := range pa[p].W {
			if pa[p].W[i] != pb[p].W[i] {
				t.Fatalf("param %d[%d] diverged: %v vs %v", p, i, pa[p].W[i], pb[p].W[i])
			}
		}
	}
}

// referencePredict is the pair head one pair at a time: one Axpy2 per
// coordinate where both representations are nonzero. It is the serving loop
// PredictInto's row-blocked kernel replaced, kept as its oracle.
func referencePredict(p *PairPredictor, pairs [][2]int) []float64 {
	h := p.f.h
	cols := 2 * h
	out := make([]float64, len(pairs))
	z := make([]float64, cols)
	for i, pair := range pairs {
		i1, i2 := pair[0], pair[1]
		if p.rowOf != nil {
			i1, i2 = p.rowOf[i1], p.rowOf[i2]
		}
		r1, q1 := p.rows1(i1)
		r2, q2 := p.rows2(i2)
		for j := range z {
			z[j] = q1[j] + q2[j]
		}
		for k := 0; k < h; k++ {
			a, b := r1[k], r2[k]
			if a == 0 || b == 0 {
				continue
			}
			mn := a
			if b < a {
				mn = b
			}
			mn *= -2
			nn.Axpy2(z, p.f.w3[k*cols:(k+1)*cols], p.f.w4[k*cols:(k+1)*cols], mn, a*b)
		}
		s := p.f.b2 + nn.BiasReLUDot(z, p.f.b1, p.f.w2)
		out[i] = 1 / (1 + math.Exp(-s))
	}
	return out
}

// splitPredictor builds the serving-shaped predictor over nRes resident rows
// and nExtra request-local rows, addressed through a shuffled rowOf the way
// Rates.pairPredictor lays a request out. Representations are non-negative,
// like the set modules' pooled ReLU outputs, with one coordinate in seven an
// exact zero (a trained model's representations run at 13–15%; an untrained
// one's at about half), and one representation zero everywhere.
func splitPredictor(rng *rand.Rand, m *Model, nRes, nExtra int) *PairPredictor {
	encode := func(n int) (*nn.Matrix, *nn.Matrix) {
		reps1, reps2 := nn.NewMatrix(n, m.cfg.Hidden), nn.NewMatrix(n, m.cfg.Hidden)
		for _, reps := range []*nn.Matrix{reps1, reps2} {
			for i := range reps.Data {
				if rng.Intn(7) != 0 {
					reps.Data[i] = math.Abs(rng.NormFloat64())
				}
			}
		}
		return reps1, reps2
	}
	h := m.cfg.Hidden
	res1, res2 := encode(nRes)
	clear(res1.Row(0))
	resPP := m.NewPairPredictor(res1, res2)
	var res residentView
	res.h, res.n = h, nRes
	for i := 0; i < nRes; i++ {
		if i%residentBlock == 0 {
			res.blocks = append(res.blocks, make([]float64, residentBlock*6*h))
		}
		row := res.data(i)
		copy(row, res1.Row(i))
		copy(row[h:], res2.Row(i))
		copy(row[2*h:], resPP.p1.Row(i))
		copy(row[4*h:], resPP.p2.Row(i))
	}
	p := m.NewPairPredictor(encode(nExtra))
	p.res = res
	p.rowOf = rng.Perm(nRes + nExtra)
	return p
}

// TestPredictIntoMatchesPerPairReference pins the row-blocked head to the
// one-pair-at-a-time loop bit for bit: every pair count from one to two
// blocks plus one and a full chunk, rows drawn from the resident tier and
// the request-local extras alike, representations with exact zeros, and a
// workspace whose recycled scratch holds the previous call's values.
func TestPredictIntoMatchesPerPairReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, hidden := range []int{3, 64} {
		cfg := DefaultConfig()
		cfg.Hidden = hidden
		m := NewModel(cfg, 11)
		p := splitPredictor(rng, m, residentBlock+5, 37)
		nq := len(p.rowOf)
		ws := nn.NewWorkspace()
		counts := []int{headChunk}
		for n := 1; n <= 2*nn.PairHeadRows+1; n++ {
			counts = append(counts, n)
		}
		for _, n := range counts {
			pairs := make([][2]int, n)
			for i := range pairs {
				pairs[i] = [2]int{rng.Intn(nq), rng.Intn(nq)}
			}
			want := referencePredict(p, pairs)
			got := make([]float64, n)
			ws.Reset()
			p.PredictInto(got, pairs, ws)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("h=%d n=%d pair %d %v: blocked %v, per-pair %v",
						hidden, n, i, pairs[i], got[i], want[i])
				}
			}
		}
	}
}
