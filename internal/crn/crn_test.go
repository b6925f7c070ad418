package crn

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"crn/internal/nn"
)

func randSet(rng *rand.Rand, dim, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		out[i] = v
	}
	return out
}

func TestNumParamsMatchesPaperFormula(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 16
	const dim = 10
	m := NewModel(cfg, dim)
	h, l := cfg.Hidden, dim
	// §3.5.3: 2·L·H + 8·H² + 6·H + 1 counts U1,U2 (2LH), Uout1 (4H·2H=8H²),
	// Uout2 (2H), b1+b2 (2H), bout1 (2H), bout2 (1).
	want := 2*l*h + 8*h*h + 6*h + 1
	if got := m.NumParams(); got != want {
		t.Errorf("NumParams = %d, want %d (paper formula)", got, want)
	}
}

func TestPredictInUnitInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultConfig()
	cfg.Hidden = 8
	m := NewModel(cfg, 12)
	for i := 0; i < 50; i++ {
		p := m.Predict(randSet(rng, 12, 1+rng.Intn(5)), randSet(rng, 12, 1+rng.Intn(5)))
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("prediction out of [0,1]: %v", p)
		}
	}
}

func TestPredictDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultConfig()
	cfg.Hidden = 8
	m := NewModel(cfg, 6)
	v1 := randSet(rng, 6, 3)
	v2 := randSet(rng, 6, 2)
	a := m.Predict(v1, v2)
	b := m.Predict(v1, v2)
	if a != b {
		t.Errorf("prediction not deterministic: %v vs %v", a, b)
	}
}

// Full-model gradient check: compare backprop gradients with central
// differences on a tiny CRN under the MSE loss (smooth, so numeric
// differences are reliable).
func TestModelGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultConfig()
	cfg.Hidden = 4
	cfg.Loss = "mse"
	const dim = 5
	m := NewModel(cfg, dim)
	pairs := []Sample{
		{V1: randSet(rng, dim, 2), V2: randSet(rng, dim, 3), Rate: 0.4},
		{V1: randSet(rng, dim, 1), V2: randSet(rng, dim, 1), Rate: 0.9},
	}
	targets := []float64{pairs[0].Rate, pairs[1].Rate}
	loss := nn.MSELoss{}

	forward := func() float64 {
		c := m.forward(nil, pairs, nil)
		l, _ := loss.Eval(c.sigmoids.Data, targets)
		return l
	}
	c := m.forward(nil, pairs, nil)
	_, grad := loss.Eval(c.sigmoids.Data, targets)
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
	m.backward(nil, c, &nn.Matrix{Rows: len(pairs), Cols: 1, Data: grad})

	const h = 1e-6
	for pi, p := range m.Params() {
		for i := range p.W {
			orig := p.W[i]
			p.W[i] = orig + h
			fp := forward()
			p.W[i] = orig - h
			fm := forward()
			p.W[i] = orig
			num := (fp - fm) / (2 * h)
			if diff := math.Abs(num - p.Grad[i]); diff > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("param %d[%d]: analytic %v numeric %v", pi, i, p.Grad[i], num)
			}
		}
	}
}

// A tiny learnable task: rate is 1 when the two sets share their single
// active feature, else 0. The model must fit it to low training error.
func TestTrainLearnsSyntheticRule(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dim = 8
	mkSample := func() Sample {
		i := rng.Intn(dim)
		j := rng.Intn(dim)
		v1 := make([]float64, dim)
		v2 := make([]float64, dim)
		v1[i] = 1
		v2[j] = 1
		rate := 0.05
		if i == j {
			rate = 0.95
		}
		return Sample{V1: [][]float64{v1}, V2: [][]float64{v2}, Rate: rate}
	}
	var train, val []Sample
	for i := 0; i < 600; i++ {
		train = append(train, mkSample())
	}
	for i := 0; i < 100; i++ {
		val = append(val, mkSample())
	}
	cfg := DefaultConfig()
	cfg.Hidden = 16
	cfg.Epochs = 40
	cfg.Patience = 40
	m := NewModel(cfg, dim)
	stats, err := m.Train(context.Background(), train, val, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no epochs recorded")
	}
	final := m.ValidationQError(val)
	if final > 3 {
		t.Errorf("validation mean q-error after training = %v, want < 3", final)
	}
	// Loss should broadly decrease.
	if stats[len(stats)-1].TrainLoss >= stats[0].TrainLoss {
		t.Errorf("training loss did not decrease: %v -> %v", stats[0].TrainLoss, stats[len(stats)-1].TrainLoss)
	}
}

func TestTrainEmptySetFails(t *testing.T) {
	m := NewModel(DefaultConfig(), 4)
	if _, err := m.Train(context.Background(), nil, nil, nil); err == nil {
		t.Error("empty training set should fail")
	}
}

func TestEarlyStoppingTriggers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const dim = 4
	mk := func() Sample {
		return Sample{V1: randSet(rng, dim, 1), V2: randSet(rng, dim, 1), Rate: rng.Float64()}
	}
	var train, val []Sample
	for i := 0; i < 50; i++ {
		train = append(train, mk())
	}
	for i := 0; i < 20; i++ {
		val = append(val, mk())
	}
	cfg := DefaultConfig()
	cfg.Hidden = 4
	cfg.Epochs = 100
	cfg.Patience = 3
	m := NewModel(cfg, dim)
	stats, err := m.Train(context.Background(), train, val, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Random targets: validation error cannot keep improving for 100 epochs.
	if len(stats) == 100 {
		t.Log("warning: early stopping never triggered on noise (possible but unlikely)")
	}
}

func TestProgressCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const dim = 4
	var train []Sample
	for i := 0; i < 30; i++ {
		train = append(train, Sample{V1: randSet(rng, dim, 1), V2: randSet(rng, dim, 1), Rate: 0.5})
	}
	cfg := DefaultConfig()
	cfg.Hidden = 4
	cfg.Epochs = 3
	cfg.Patience = 0
	m := NewModel(cfg, dim)
	var calls int
	if _, err := m.Train(context.Background(), train, nil, func(EpochStats) { calls++ }); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("progress callback calls = %d, want 3", calls)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cfg := DefaultConfig()
	cfg.Hidden = 8
	const dim = 6
	m := NewModel(cfg, dim)
	v1 := randSet(rng, dim, 2)
	v2 := randSet(rng, dim, 3)
	want := m.Predict(v1, v2)

	data, err := m.Save()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Predict(v1, v2); got != want {
		t.Errorf("loaded model predicts %v, want %v", got, want)
	}
	if m2.Dim() != dim || m2.Config().Hidden != cfg.Hidden {
		t.Error("loaded model metadata mismatch")
	}
	if _, err := Load([]byte("junk")); err == nil {
		t.Error("corrupt blob should fail")
	}
}

func TestValidationQErrorEmpty(t *testing.T) {
	m := NewModel(DefaultConfig(), 4)
	if v := m.ValidationQError(nil); !math.IsNaN(v) {
		t.Errorf("empty validation should be NaN, got %v", v)
	}
}

// TestLossSelection: every known loss name maps to its loss ("" is q-error,
// for model blobs that predate the field), and an unknown name fails
// training before any weight moves instead of silently meaning q-error.
func TestLossSelection(t *testing.T) {
	for name, want := range map[string]nn.Loss{
		"":        nn.QErrorLoss{Floor: 1e-3},
		"q-error": nn.QErrorLoss{Floor: 1e-3},
		"mse":     nn.MSELoss{},
		"mae":     nn.MAELoss{},
	} {
		cfg := DefaultConfig()
		cfg.Loss = name
		got, err := NewModel(cfg, 4).lossFn()
		if err != nil || got != want {
			t.Fatalf("loss %q = %#v, %v; want %#v", name, got, err, want)
		}
	}
	cfg := DefaultConfig()
	cfg.Loss = "bogus"
	m := NewModel(cfg, 4)
	before, err := m.Save()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	train := []Sample{{V1: randSet(rng, 4, 2), V2: randSet(rng, 4, 2), Rate: 0.5}}
	_, err = m.Train(context.Background(), train, nil, nil)
	if err == nil || err.Error() != `crn: unknown loss "bogus" (want q-error, mse or mae)` {
		t.Fatalf("training with loss %q: err = %v", cfg.Loss, err)
	}
	if after, _ := m.Save(); !bytes.Equal(before, after) {
		t.Fatal("a rejected loss moved the weights")
	}
}

// Incremental training (§9 "Database updates"): after the underlying data
// drifts, a few continued epochs adapt the model without retraining from
// scratch — validation error on the drifted labels must improve.
func TestContinueTrainingAdaptsToDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const dim = 8
	mk := func(flip bool) Sample {
		i := rng.Intn(dim)
		j := rng.Intn(dim)
		v1 := make([]float64, dim)
		v2 := make([]float64, dim)
		v1[i] = 1
		v2[j] = 1
		rate := 0.05
		match := i == j
		if flip {
			match = !match
		}
		if match {
			rate = 0.95
		}
		return Sample{V1: [][]float64{v1}, V2: [][]float64{v2}, Rate: rate}
	}
	var oldTrain, newTrain, newVal []Sample
	for i := 0; i < 500; i++ {
		oldTrain = append(oldTrain, mk(false))
		newTrain = append(newTrain, mk(true))
	}
	for i := 0; i < 100; i++ {
		newVal = append(newVal, mk(true))
	}
	cfg := DefaultConfig()
	cfg.Hidden = 16
	cfg.Epochs = 25
	cfg.Patience = 25
	m := NewModel(cfg, dim)
	if _, err := m.Train(context.Background(), oldTrain, nil, nil); err != nil {
		t.Fatal(err)
	}
	before := m.ValidationQError(newVal)
	if _, err := m.ContinueTraining(context.Background(), newTrain, newVal, 25, cfg.LR, nil); err != nil {
		t.Fatal(err)
	}
	after := m.ValidationQError(newVal)
	if after >= before {
		t.Errorf("incremental training did not adapt: %v -> %v", before, after)
	}
	if _, err := m.ContinueTraining(context.Background(), newTrain, newVal, 0, cfg.LR, nil); err == nil {
		t.Error("zero epochs should fail")
	}
	// Continuation takes its epochs and rate as arguments; the
	// configuration is never touched.
	if m.Config() != cfg {
		t.Errorf("config changed by continuation: %+v", m.Config())
	}
}

// TestTrainCancelledContext pins both training entry points to the
// per-epoch context check: an already-cancelled context returns its error
// before the first epoch and leaves every weight bit as it was.
func TestTrainCancelledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const dim = 5
	var train []Sample
	for i := 0; i < 20; i++ {
		train = append(train, Sample{V1: randSet(rng, dim, 1), V2: randSet(rng, dim, 2), Rate: rng.Float64()})
	}
	cfg := DefaultConfig()
	cfg.Hidden = 4
	m := NewModel(cfg, dim)
	before, err := m.Save()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	progress := func(EpochStats) { t.Error("an epoch ran under a cancelled context") }
	for name, run := range map[string]func() ([]EpochStats, error){
		"Train": func() ([]EpochStats, error) { return m.Train(ctx, train, train, progress) },
		"ContinueTraining": func() ([]EpochStats, error) {
			return m.ContinueTraining(ctx, train, train, 3, cfg.LR, progress)
		},
	} {
		stats, err := run()
		if !errors.Is(err, context.Canceled) || len(stats) != 0 {
			t.Errorf("%s: err %v after %d epochs, want context.Canceled before any", name, err, len(stats))
		}
		after, err := m.Save()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("%s moved the weights under a cancelled context", name)
		}
	}
}

func TestPredictBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfg := DefaultConfig()
	cfg.Hidden = 8
	const dim = 6
	m := NewModel(cfg, dim)
	pairs := make([]Sample, 5)
	for i := range pairs {
		pairs[i] = Sample{V1: randSet(rng, dim, 1+i%3), V2: randSet(rng, dim, 1+(i+1)%3)}
	}
	batch := m.PredictBatch(pairs)
	for i, p := range pairs {
		single := m.Predict(p.V1, p.V2)
		if math.Abs(single-batch[i]) > 1e-12 {
			t.Errorf("batch[%d] = %v, single = %v", i, batch[i], single)
		}
	}
}

// TestPredictSharedMatchesReferenceForward pins the factorized serving head
// (EncodeSets + PairPredictor) to the reference training-time forward pass:
// the block-folded |a−b| = a+b−2·min identity must reproduce PredictBatch
// up to floating-point reassociation, including negative feature values
// (the ReLU set modules make the REPRESENTATIONS non-negative regardless
// of input sign — the invariant the sparse intersection skip relies on).
func TestPredictSharedMatchesReferenceForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := DefaultConfig()
	cfg.Hidden = 16
	const dim = 14
	m := NewModel(cfg, dim)

	var sets [][][]float64
	for i := 0; i < 12; i++ {
		set := randSet(rng, dim, 1+rng.Intn(5))
		for _, v := range set {
			for j := range v {
				v[j] -= 0.5 // exercise negative inputs too
			}
		}
		sets = append(sets, set)
	}
	var pairs [][2]int
	var samples []Sample
	for a := 0; a < len(sets); a++ {
		for b := 0; b < len(sets); b++ {
			pairs = append(pairs, [2]int{a, b})
			samples = append(samples, Sample{V1: sets[a], V2: sets[b]})
		}
	}
	reps1, reps2 := m.EncodeSets(sets)
	shared := m.NewPairPredictor(reps1, reps2).Predict(pairs)
	reference := m.PredictBatch(samples)
	for i := range shared {
		if math.Abs(shared[i]-reference[i]) > 1e-9 {
			t.Fatalf("pair %d: factorized %v != reference %v", i, shared[i], reference[i])
		}
	}
}

// TestValidationQErrorAllocFree pins the per-epoch validation metric to the
// workspace free list: after warm-up, computing it allocates nothing — its
// prediction buffer and the forward-pass arenas all come from recycled
// storage.
func TestValidationQErrorAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dim = 6
	val := make([]Sample, 700) // spans two prediction chunks
	for i := range val {
		v1 := make([]float64, dim)
		v2 := make([]float64, dim)
		v1[rng.Intn(dim)] = 1
		v2[rng.Intn(dim)] = 1
		val[i] = Sample{V1: [][]float64{v1}, V2: [][]float64{v2}, Rate: rng.Float64()}
	}
	cfg := DefaultConfig()
	cfg.Hidden = 8
	m := NewModel(cfg, dim)
	m.ValidationQError(val) // warm the free list and grow the arenas
	m.ValidationQError(val)
	allocs := testing.AllocsPerRun(10, func() { m.ValidationQError(val) })
	if allocs > 0 {
		t.Errorf("ValidationQError allocates %.1f objects per call, want 0", allocs)
	}
}
