package mscn

import (
	"math"
	"math/rand"
	"testing"

	"crn/internal/datagen"
	"crn/internal/db"
	"crn/internal/exec"
	"crn/internal/nn"
	"crn/internal/schema"
	"crn/internal/sqlparse"
)

var s = schema.IMDB()

func testDB(t *testing.T) *db.Database {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.Titles = 200
	d, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFeaturizerDims(t *testing.T) {
	d := testDB(t)
	f, err := NewFeaturizer(s, d, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	dimT, dimJ, dimP := f.Dims()
	if dimT != s.NumTables() {
		t.Errorf("dimT = %d", dimT)
	}
	if dimJ != s.NumJoins() {
		t.Errorf("dimJ = %d", dimJ)
	}
	if dimP != s.NumColumns()+schema.NumOperators+1 {
		t.Errorf("dimP = %d", dimP)
	}
	fs, err := NewFeaturizer(s, d, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	dimT, _, _ = fs.Dims()
	if dimT != s.NumTables()+100 {
		t.Errorf("sampled dimT = %d", dimT)
	}
}

func TestEncodeShapes(t *testing.T) {
	d := testDB(t)
	f, err := NewFeaturizer(s, d, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParse(s, `SELECT * FROM title, cast_info
		WHERE title.id = cast_info.movie_id AND title.kind_id = 2`)
	tv, jv, pv, err := f.Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(tv) != 2 || len(jv) != 1 || len(pv) != 1 {
		t.Errorf("set sizes = %d,%d,%d", len(tv), len(jv), len(pv))
	}
	// Empty joins/predicates become a single zero vector.
	q0 := sqlparse.MustParse(s, "SELECT * FROM title")
	_, jv0, pv0, err := f.Encode(q0)
	if err != nil {
		t.Fatal(err)
	}
	if len(jv0) != 1 || len(pv0) != 1 {
		t.Fatalf("padding sizes = %d,%d", len(jv0), len(pv0))
	}
	for _, v := range append(jv0, pv0...) {
		for _, x := range v {
			if x != 0 {
				t.Fatal("padding vector should be all zero")
			}
		}
	}
}

func TestSampleBitmapsReflectSelectivity(t *testing.T) {
	d := testDB(t)
	const samples = 64
	f, err := NewFeaturizer(s, d, samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exec.New(d)
	if err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > 1950")
	tv, _, _, err := f.Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	bits := tv[0][s.NumTables():]
	var on float64
	for _, b := range bits {
		on += b
	}
	frac := on / samples
	sel, err := ex.SelectivityOn(schema.Title, q.PredsOn(schema.Title))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(frac-sel) > 0.25 {
		t.Errorf("bitmap fraction %v too far from true selectivity %v", frac, sel)
	}
	// Query with no predicates: all sampled bits on.
	q0 := sqlparse.MustParse(s, "SELECT * FROM title")
	tv0, _, _, err := f.Encode(q0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range tv0[0][s.NumTables():] {
		if b != 1 {
			t.Fatal("unfiltered bitmap should be all ones")
		}
	}
}

func TestModelGradCheck(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 4
	m := NewModel(cfg, 3, 2, 4)
	m.logScale = math.Log(1000)
	rng := rand.New(rand.NewSource(5))
	randSet := func(dim, n int) [][]float64 {
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
	samples := []Sample{
		{T: randSet(3, 2), J: randSet(2, 1), P: randSet(4, 3), Card: 50},
		{T: randSet(3, 1), J: randSet(2, 1), P: randSet(4, 1), Card: 500},
	}
	targets := []float64{m.normalize(50), m.normalize(500)}
	loss := nn.MSELoss{}
	forward := func() float64 {
		c := m.forward(nil, samples, &forwardCache{})
		l, _ := loss.Eval(c.sigmoids.Data, targets)
		return l
	}
	c := m.forward(nil, samples, &forwardCache{})
	_, grad := loss.Eval(c.sigmoids.Data, targets)
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
	m.backward(nil, c, &nn.Matrix{Rows: len(samples), Cols: 1, Data: grad})
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

func TestTrainOnRealQueries(t *testing.T) {
	d := testDB(t)
	f, err := NewFeaturizer(s, d, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exec.New(d)
	if err != nil {
		t.Fatal(err)
	}
	// A small family of single-table range queries: learnable mapping from
	// predicate value to cardinality.
	var train, val []Sample
	for year := int64(1880); year <= 2005; year += 1 {
		q := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.production_year > "+itoa(year))
		card, err := ex.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := f.EncodeSample(q, float64(card))
		if err != nil {
			t.Fatal(err)
		}
		if year%5 == 0 {
			val = append(val, sm)
		} else {
			train = append(train, sm)
		}
	}
	cfg := DefaultConfig()
	cfg.Hidden = 24
	cfg.Epochs = 60
	cfg.Patience = 60
	m := NewModel(cfg, f.dimT, f.dimJ, f.dimP)
	if _, err := m.Train(train, val, nil); err != nil {
		t.Fatal(err)
	}
	got := m.ValidationQError(val)
	if got > 3 {
		t.Errorf("validation q-error after training = %v, want < 3", got)
	}
}

func itoa(v int64) string {
	// small positive ints only
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestEstimatorInterface(t *testing.T) {
	d := testDB(t)
	f, err := NewFeaturizer(s, d, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Hidden = 8
	m := NewModel(cfg, f.dimT, f.dimJ, f.dimP)
	m.logScale = math.Log(1000)
	est := &Estimator{F: f, M: m}
	card, err := est.EstimateCard(sqlparse.MustParse(s, "SELECT * FROM title"))
	if err != nil {
		t.Fatal(err)
	}
	if card < 0 || math.IsNaN(card) {
		t.Errorf("estimate = %v", card)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := testDB(t)
	f, err := NewFeaturizer(s, d, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Hidden = 8
	m := NewModel(cfg, f.dimT, f.dimJ, f.dimP)
	m.logScale = math.Log(500)
	q := sqlparse.MustParse(s, "SELECT * FROM title WHERE title.kind_id = 3")
	sm, err := f.EncodeSample(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := m.EstimateCard(sm)
	blob, err := m.Save()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Load(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.EstimateCard(sm); got != want {
		t.Errorf("loaded model predicts %v, want %v", got, want)
	}
	if _, err := Load([]byte("nope")); err == nil {
		t.Error("corrupt blob should fail")
	}
}

// TestTrainingDeterministic pins training to its seed: two runs on one
// sample set — each on its own reused workspace, through the shared epoch
// loop with early stopping and plateau decay live — learn bit-identical
// weights and report bit-identical losses.
func TestTrainingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	set := func(dim, n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, dim)
			for j := range out[i] {
				out[i][j] = rng.Float64()
			}
		}
		return out
	}
	samples := make([]Sample, 80)
	for i := range samples {
		samples[i] = Sample{T: set(3, 1+i%2), J: set(2, 1), P: set(4, 1+i%3), Card: float64(rng.Intn(5000))}
	}
	train, val := samples[:64], samples[64:]
	run := func() (*Model, []EpochStats) {
		cfg := DefaultConfig()
		cfg.Hidden = 8
		cfg.Epochs = 6
		cfg.Patience = 2
		cfg.LRDecay = 0.5
		cfg.BatchSize = 16
		m := NewModel(cfg, 3, 2, 4)
		stats, err := m.Train(train, val, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m, stats
	}
	mA, statsA := run()
	mB, statsB := run()
	if len(statsA) != len(statsB) {
		t.Fatalf("epochs %d vs %d", len(statsA), len(statsB))
	}
	for i := range statsA {
		if statsA[i].TrainLoss != statsB[i].TrainLoss || statsA[i].ValQError != statsB[i].ValQError {
			t.Fatalf("epoch %d: %+v vs %+v", i+1, statsA[i], statsB[i])
		}
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

func TestTrainEmptyFails(t *testing.T) {
	m := NewModel(DefaultConfig(), 2, 2, 2)
	if _, err := m.Train(nil, nil, nil); err == nil {
		t.Error("empty training set should fail")
	}
}

func TestNormalizeDenormalizeInverse(t *testing.T) {
	m := NewModel(DefaultConfig(), 2, 2, 2)
	m.logScale = math.Log(10001)
	for _, card := range []float64{0, 1, 42, 10000} {
		s := m.normalize(card)
		back := m.denormalize(s)
		if math.Abs(back-card) > 1e-6*(1+card) {
			t.Errorf("normalize/denormalize(%v) = %v", card, back)
		}
		if s < 0 || s > 1 {
			t.Errorf("normalized value %v outside [0,1]", s)
		}
	}
}

func TestFeaturizerRequiresFrozenDB(t *testing.T) {
	if _, err := NewFeaturizer(s, db.NewDatabase(s), 0, 1); err == nil {
		t.Error("unfrozen database should be rejected")
	}
}
