package nn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatMul(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	b := &Matrix{Rows: 3, Cols: 2, Data: []float64{7, 8, 9, 10, 11, 12}}
	dst := NewMatrix(2, 2)
	MatMul(dst, a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if dst.Data[i] != v {
			t.Fatalf("MatMul[%d] = %v, want %v", i, dst.Data[i], v)
		}
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(4, 3)
	b := NewMatrix(4, 5)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	// aᵀ·b via explicit transpose.
	at := NewMatrix(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := NewMatrix(3, 5)
	MatMul(want, at, b)
	got := NewMatrix(3, 5)
	MatMulTransA(got, a, b)
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("MatMulTransA[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
	// a·bᵀ with shapes (4x3)·(5x3)ᵀ.
	c := NewMatrix(5, 3)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	ct := NewMatrix(3, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			ct.Set(j, i, c.At(i, j))
		}
	}
	want2 := NewMatrix(4, 5)
	MatMul(want2, a, ct)
	got2 := NewMatrix(4, 5)
	MatMulTransB(got2, a, c)
	for i := range want2.Data {
		if !almostEqual(got2.Data[i], want2.Data[i], 1e-12) {
			t.Fatalf("MatMulTransB[%d] = %v, want %v", i, got2.Data[i], want2.Data[i])
		}
	}
}

func TestMatMulPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MatMul(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 2))
}

func TestActivations(t *testing.T) {
	x := &Matrix{Rows: 1, Cols: 4, Data: []float64{-2, -0.5, 0.5, 2}}
	y := ReLUForward(nil, x)
	want := []float64{0, 0, 0.5, 2}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("ReLU[%d] = %v", i, y.Data[i])
		}
	}
	s := SigmoidForward(nil, x)
	for i, v := range x.Data {
		wantS := 1 / (1 + math.Exp(-v))
		if !almostEqual(s.Data[i], wantS, 1e-12) {
			t.Fatalf("Sigmoid[%d] = %v, want %v", i, s.Data[i], wantS)
		}
		if s.Data[i] <= 0 || s.Data[i] >= 1 {
			t.Fatalf("Sigmoid out of (0,1): %v", s.Data[i])
		}
	}
}

// numericGrad estimates d f / d w[i] by central differences.
func numericGrad(f func() float64, w []float64, i int) float64 {
	const h = 1e-6
	orig := w[i]
	w[i] = orig + h
	fp := f()
	w[i] = orig - h
	fm := f()
	w[i] = orig
	return (fp - fm) / (2 * h)
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := NewDense(rng, 3, 2)
	x := NewMatrix(4, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	target := []float64{0.3, -0.2, 0.8, 0.1}

	// Scalar objective: MSE between summed outputs and target.
	forward := func() float64 {
		y := d.Forward(nil, x)
		var loss float64
		for i := 0; i < y.Rows; i++ {
			var s float64
			for _, v := range y.Row(i) {
				s += v
			}
			diff := s - target[i]
			loss += diff * diff
		}
		return loss
	}
	// Analytic gradient.
	y := d.Forward(nil, x)
	dy := NewMatrix(y.Rows, y.Cols)
	for i := 0; i < y.Rows; i++ {
		var s float64
		for _, v := range y.Row(i) {
			s += v
		}
		g := 2 * (s - target[i])
		for j := 0; j < y.Cols; j++ {
			dy.Set(i, j, g)
		}
	}
	d.W.ZeroGrad()
	d.B.ZeroGrad()
	dx := d.Backward(nil, x, dy, true)

	for i := range d.W.W {
		num := numericGrad(forward, d.W.W, i)
		if !almostEqual(num, d.W.Grad[i], 1e-4*(1+math.Abs(num))) {
			t.Fatalf("dW[%d]: analytic %v numeric %v", i, d.W.Grad[i], num)
		}
	}
	for i := range d.B.W {
		num := numericGrad(forward, d.B.W, i)
		if !almostEqual(num, d.B.Grad[i], 1e-4*(1+math.Abs(num))) {
			t.Fatalf("dB[%d]: analytic %v numeric %v", i, d.B.Grad[i], num)
		}
	}
	for i := range x.Data {
		num := numericGrad(forward, x.Data, i)
		if !almostEqual(num, dx.Data[i], 1e-4*(1+math.Abs(num))) {
			t.Fatalf("dX[%d]: analytic %v numeric %v", i, dx.Data[i], num)
		}
	}
}

// TestSetEncoderGradCheck verifies the encoder's gradients numerically at
// CRN's depth 1 and MSCN's depth 2.
func TestSetEncoderGradCheck(t *testing.T) {
	for _, dims := range [][]int{{4, 3}, {4, 3, 3}} {
		rng := rand.New(rand.NewSource(7))
		l := dims[0]
		enc := NewSetEncoder(rng, dims...)
		for _, d := range enc.Layers {
			// Off-zero biases: with zero ones an all-dead element row puts
			// the next layer exactly on the ReLU kink.
			copy(d.B.W, randVec(rng, d.Out))
		}
		samples := [][][]float64{
			{randVec(rng, l), randVec(rng, l), randVec(rng, l)},
			{randVec(rng, l)},
			{randVec(rng, l), randVec(rng, l)},
		}
		batch := batchOf(nil, samples, l)

		forward := func() float64 {
			var loss float64
			for _, v := range enc.Forward(nil, batch, nil).Data {
				loss += v * v
			}
			return loss
		}
		acts := make([]*Matrix, len(enc.Layers))
		pooled := enc.Forward(nil, batch, acts)
		dPooled := NewMatrix(pooled.Rows, pooled.Cols)
		for i, v := range pooled.Data {
			dPooled.Data[i] = 2 * v
		}
		for _, p := range enc.Params() {
			p.ZeroGrad()
		}
		enc.Backward(nil, batch, acts, dPooled)

		for pi, p := range enc.Params() {
			for i := range p.W {
				num := numericGrad(forward, p.W, i)
				if !almostEqual(num, p.Grad[i], 1e-4*(1+math.Abs(num))) {
					t.Fatalf("depth %d param %d[%d]: analytic %v numeric %v", len(enc.Layers), pi, i, p.Grad[i], num)
				}
			}
		}
	}
}

// batchOf is BuildSetBatch over a slice of sets.
func batchOf(ws *Workspace, samples [][][]float64, dim int) SetBatch {
	return BuildSetBatch(ws, len(samples), dim, func(i int) [][]float64 { return samples[i] })
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestSetEncoderPoolingIsAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	enc := NewSetEncoder(rng, 2, 2)
	v1, v2 := []float64{1, 0}, []float64{0, 1}
	single1 := enc.Forward(nil, batchOf(nil, [][][]float64{{v1}}, 2), nil)
	single2 := enc.Forward(nil, batchOf(nil, [][][]float64{{v2}}, 2), nil)
	both := enc.Forward(nil, batchOf(nil, [][][]float64{{v1, v2}}, 2), nil)
	for j := 0; j < 2; j++ {
		want := (single1.At(0, j) + single2.At(0, j)) / 2
		if !almostEqual(both.At(0, j), want, 1e-12) {
			t.Fatalf("pooling not average at %d: %v vs %v", j, both.At(0, j), want)
		}
	}
}

func TestSigmoidBackwardMatchesNumeric(t *testing.T) {
	x := &Matrix{Rows: 1, Cols: 3, Data: []float64{-1, 0.2, 2}}
	forward := func() float64 {
		y := SigmoidForward(nil, x)
		var s float64
		for _, v := range y.Data {
			s += v * v
		}
		return s
	}
	y := SigmoidForward(nil, x)
	dy := NewMatrix(1, 3)
	for i, v := range y.Data {
		dy.Data[i] = 2 * v
	}
	dx := SigmoidBackward(nil, dy, y)
	for i := range x.Data {
		num := numericGrad(forward, x.Data, i)
		if !almostEqual(num, dx.Data[i], 1e-6) {
			t.Fatalf("sigmoid dX[%d]: %v vs %v", i, dx.Data[i], num)
		}
	}
}

func TestQErrorLoss(t *testing.T) {
	l := QErrorLoss{}
	loss, grad := l.Eval([]float64{0.5}, []float64{0.25})
	if !almostEqual(loss, 2, 1e-12) {
		t.Errorf("loss = %v, want 2", loss)
	}
	if grad[0] <= 0 {
		t.Errorf("overestimate should have positive gradient, got %v", grad[0])
	}
	loss, grad = l.Eval([]float64{0.25}, []float64{0.5})
	if !almostEqual(loss, 2, 1e-12) {
		t.Errorf("loss = %v, want 2", loss)
	}
	if grad[0] >= 0 {
		t.Errorf("underestimate should have negative gradient, got %v", grad[0])
	}
	// Perfect prediction: loss 1.
	loss, _ = l.Eval([]float64{0.4}, []float64{0.4})
	if !almostEqual(loss, 1, 1e-12) {
		t.Errorf("perfect loss = %v, want 1", loss)
	}
}

func TestQErrorLossGradClip(t *testing.T) {
	l := QErrorLoss{Floor: 1e-3, MaxGrad: 100}
	_, grad := l.Eval([]float64{1e-3}, []float64{1})
	if math.Abs(grad[0]) > 100 {
		t.Errorf("gradient not clipped: %v", grad[0])
	}
}

func TestQErrorLossAtLeastOneProperty(t *testing.T) {
	l := QErrorLoss{}
	f := func(p, y float64) bool {
		p, y = math.Abs(p), math.Abs(y)
		if math.IsInf(p, 0) || math.IsInf(y, 0) {
			return true
		}
		loss, _ := l.Eval([]float64{p}, []float64{y})
		return loss >= 1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestLogQErrorLoss(t *testing.T) {
	l := LogQErrorLoss{Scale: math.Log(1000)}
	// One decade apart on a 3-decade scale: q-error should be 10.
	loss, grad := l.Eval([]float64{2.0 / 3}, []float64{1.0 / 3})
	if !almostEqual(loss, 10, 1e-9) {
		t.Errorf("loss = %v, want 10", loss)
	}
	if grad[0] <= 0 {
		t.Errorf("overestimate gradient sign: %v", grad[0])
	}
	loss, _ = l.Eval([]float64{0.5}, []float64{0.5})
	if !almostEqual(loss, 1, 1e-12) {
		t.Errorf("perfect loss = %v", loss)
	}
}

func TestMSEAndMAELoss(t *testing.T) {
	mse := MSELoss{}
	loss, grad := mse.Eval([]float64{1, 2}, []float64{0, 0})
	if !almostEqual(loss, 2.5, 1e-12) {
		t.Errorf("mse = %v", loss)
	}
	if !almostEqual(grad[0], 1, 1e-12) || !almostEqual(grad[1], 2, 1e-12) {
		t.Errorf("mse grad = %v", grad)
	}
	mae := MAELoss{}
	loss, grad = mae.Eval([]float64{1, -2}, []float64{0, 0})
	if !almostEqual(loss, 1.5, 1e-12) {
		t.Errorf("mae = %v", loss)
	}
	if grad[0] <= 0 || grad[1] >= 0 {
		t.Errorf("mae grad = %v", grad)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)^2 with Adam.
	p := NewParam(1, 1)
	p.W[0] = -5
	opt := NewAdam(0.1)
	for i := 0; i < 2000; i++ {
		p.Grad[0] = 2 * (p.W[0] - 3)
		opt.Step([]*Param{p})
	}
	if !almostEqual(p.W[0], 3, 1e-2) {
		t.Errorf("Adam converged to %v, want 3", p.W[0])
	}
	if opt.StepCount() != 2000 {
		t.Errorf("StepCount = %d", opt.StepCount())
	}
}

func TestAdamStepClearsGradients(t *testing.T) {
	p := NewParam(2, 2)
	for i := range p.Grad {
		p.Grad[i] = 1
	}
	NewAdam(0.01).Step([]*Param{p})
	for i, g := range p.Grad {
		if g != 0 {
			t.Fatalf("grad[%d] = %v after Step", i, g)
		}
	}
}

func TestEarlyStopper(t *testing.T) {
	s := &EarlyStopper{Patience: 2}
	metrics := []float64{5, 4, 3, 3.5, 3.4}
	var stoppedAt int
	for i, m := range metrics {
		if s.Observe(i, m) {
			stoppedAt = i
			break
		}
	}
	if stoppedAt != 4 {
		t.Errorf("stopped at %d, want 4", stoppedAt)
	}
	best, epoch := s.Best()
	if best != 3 || epoch != 2 {
		t.Errorf("best = %v at %d", best, epoch)
	}

	// Stale counts the epochs since the last improvement: Fit snapshots the
	// weights at 0 and decays the rate at Patience/2. An unordered metric
	// is never an improvement, even as the first observation.
	s = &EarlyStopper{Patience: 3}
	var stale []int
	for i, m := range []float64{math.NaN(), 4, 5, 4, 2, math.NaN()} {
		s.Observe(i, m)
		stale = append(stale, s.Stale())
	}
	if want := []int{1, 0, 1, 2, 0, 1}; !equalInts(stale, want) {
		t.Errorf("stale = %v, want %v", stale, want)
	}
	if best, epoch := s.Best(); best != 2 || epoch != 4 {
		t.Errorf("best = %v at %d, want 2 at 4", best, epoch)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d1 := NewDense(rng, 4, 3)
	data, err := EncodeParams(d1.Params())
	if err != nil {
		t.Fatal(err)
	}
	d2 := NewDense(rand.New(rand.NewSource(10)), 4, 3)
	if err := DecodeParams(data, d2.Params()); err != nil {
		t.Fatal(err)
	}
	for i := range d1.W.W {
		if d1.W.W[i] != d2.W.W[i] {
			t.Fatalf("weights differ at %d", i)
		}
	}
	// Shape mismatch is rejected.
	d3 := NewDense(rng, 5, 3)
	if err := DecodeParams(data, d3.Params()); err == nil {
		t.Error("shape mismatch should fail")
	}
	if err := DecodeParams(data, d3.Params()[:1]); err == nil {
		t.Error("tensor count mismatch should fail")
	}
	if err := DecodeParams([]byte("garbage"), d2.Params()); err == nil {
		t.Error("corrupt payload should fail")
	}
}

func TestShuffleAndBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	perm := Shuffle(rng, 10)
	seen := make(map[int]bool)
	for _, i := range perm {
		seen[i] = true
	}
	if len(seen) != 10 {
		t.Errorf("Shuffle not a permutation: %v", perm)
	}
	batches := Batches(perm, 3)
	if len(batches) != 4 {
		t.Errorf("batches = %d, want 4", len(batches))
	}
	if len(batches[3]) != 1 {
		t.Errorf("last batch = %d, want 1", len(batches[3]))
	}
	whole := Batches(perm, 0)
	if len(whole) != 1 || len(whole[0]) != 10 {
		t.Errorf("batchSize 0 should produce one batch")
	}
}

func TestNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense(rng, 7, 5)
	if got := NumParams(d.Params()); got != 7*5+5 {
		t.Errorf("NumParams = %d", got)
	}
	if d.NumParams() != NumParams(d.Params()) {
		t.Error("Dense.NumParams disagrees with NumParams")
	}
}

func TestBuildSetBatchLayout(t *testing.T) {
	samples := [][][]float64{
		{{1, 2}, {3, 4}},
		{{5, 6}},
	}
	b := BuildSetBatch(nil, len(samples), 2, func(i int) [][]float64 { return samples[i] })
	if b.NumSamples() != 2 {
		t.Fatalf("NumSamples = %d", b.NumSamples())
	}
	if b.X.Rows != 3 || b.X.Cols != 2 {
		t.Fatalf("X shape = %dx%d", b.X.Rows, b.X.Cols)
	}
	if b.Offsets[0] != 0 || b.Offsets[1] != 2 || b.Offsets[2] != 3 {
		t.Fatalf("offsets = %v", b.Offsets)
	}
	if b.X.At(2, 0) != 5 {
		t.Fatalf("row content wrong")
	}
}

// TestFitSchedule drives Fit with a constant unit gradient, under which
// every Adam step moves the weight down by the learning rate, and a
// scripted validation metric: the rate halves once the metric has stalled
// for Patience/2 epochs, training stops after Patience stale epochs, and
// the best epoch's weights come back.
func TestFitSchedule(t *testing.T) {
	p := NewParam(1, 1)
	metric := []float64{3, 2, 2.5, 2.6, 2.7, 2.8, 1}
	var atEpoch []float64 // weight after each epoch
	steps := 0
	step := func(batch []int) float64 {
		if len(batch) != 2 {
			t.Fatalf("batch of %d, want 2", len(batch))
		}
		steps++
		p.Grad[0] = 1
		return float64(steps)
	}
	validate := func() float64 {
		atEpoch = append(atEpoch, p.W[0])
		return metric[len(atEpoch)-1]
	}
	s := Schedule{LR: 0.01, BatchSize: 2, Epochs: len(metric), Patience: 4, Seed: 1, LRDecay: 0.5}
	stats, err := Fit(context.Background(), []*Param{p}, 4, s, step, validate, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 6 || steps != 12 {
		t.Fatalf("ran %d epochs and %d steps, want early stop after 6 epochs, 12 steps", len(stats), steps)
	}
	for i, st := range stats {
		if st.Epoch != i+1 || st.ValQError != metric[i] || st.TrainLoss != float64(4*i+3)/2 {
			t.Errorf("epoch %d stats = %+v", i+1, st)
		}
	}
	if p.W[0] != atEpoch[1] {
		t.Errorf("weight %v, want epoch 2's %v restored", p.W[0], atEpoch[1])
	}
	full := atEpoch[2] - atEpoch[3] // epoch 4, the second stale one, at the full rate
	decayed := atEpoch[3] - atEpoch[4]
	if !almostEqual(full, 2*s.LR, 1e-6) || !almostEqual(decayed, s.LR, 1e-6) {
		t.Errorf("epoch steps %v then %v, want %v then %v", full, decayed, 2*s.LR, s.LR)
	}

	// Without a validation set nothing stops, decays or restores early.
	p, steps = NewParam(1, 1), 0
	stats, err = Fit(context.Background(), []*Param{p}, 4, s, step, nil, nil)
	if err != nil || len(stats) != len(metric) || !math.IsNaN(stats[0].ValQError) {
		t.Fatalf("no-validation run: %d epochs, err %v, val %v", len(stats), err, stats[0].ValQError)
	}
	if !almostEqual(p.W[0], -float64(steps)*s.LR, 1e-6) {
		t.Errorf("weight %v after %d full-rate steps", p.W[0], steps)
	}
}

// TestFitCancelled pins the per-epoch context check: a cancelled context
// runs no epoch, and a cancellation mid-run stops before the next epoch
// without restoring the best weights.
func TestFitCancelled(t *testing.T) {
	p := NewParam(1, 1)
	step := func([]int) float64 { p.Grad[0] = 1; return 0 }
	s := Schedule{LR: 0.01, BatchSize: 2, Epochs: 5, Patience: 5, Seed: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := Fit(ctx, []*Param{p}, 4, s, step, func() float64 { return 1 }, nil)
	if !errors.Is(err, context.Canceled) || len(stats) != 0 || p.W[0] != 0 {
		t.Fatalf("cancelled before start: err %v, %d epochs, weight %v", err, len(stats), p.W[0])
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	epochs := 0
	progress := func(EpochStats) {
		if epochs++; epochs == 2 {
			cancel()
		}
	}
	stats, err = Fit(ctx, []*Param{p}, 4, s, step, func() float64 { return float64(epochs) }, progress)
	if !errors.Is(err, context.Canceled) || len(stats) != 2 {
		t.Fatalf("cancelled mid-run: err %v, %d epochs", err, len(stats))
	}
	if !almostEqual(p.W[0], -4*s.LR, 1e-6) {
		t.Errorf("weight %v: a cancelled run must keep its last epoch, not restore the best", p.W[0])
	}
}
