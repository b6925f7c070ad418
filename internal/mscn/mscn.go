// Package mscn implements the MSCN baseline (Kipf et al., "Learned
// Cardinalities", CIDR 2019), the state-of-the-art learned cardinality
// estimator the paper compares against (§4.1, §6).
//
// MSCN is a multi-set convolutional network: a query is represented as three
// separate sets — tables, joins and predicates — each featurized in its own
// vector format and compressed by its own two-layer set module with average
// pooling; the three pooled vectors are concatenated and passed through a
// two-layer output network whose sigmoid output encodes the cardinality on a
// normalized log scale.
//
// MSCN shares CRN's layers: its set modules are nn.SetEncoder at depth 2
// (CRN's are depth 1), every pass runs on nn.Workspace arenas, and training
// runs through nn.Fit, the loop CRN trains with — so the baseline and the
// paper's model differ in architecture and loss, not in how they train.
//
// The optional per-table materialized sample bitmaps of the original paper
// (1000 rows per base table; "MSCN1000" in the containment paper's §6.6) are
// supported through Config.NumSamples.
package mscn

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"

	"crn/internal/db"
	"crn/internal/metrics"
	"crn/internal/nn"
	"crn/internal/query"
	"crn/internal/schema"
)

// Config collects model and training hyperparameters.
type Config struct {
	Hidden     int
	LR         float64
	BatchSize  int
	Epochs     int
	Patience   int
	Seed       int64
	NumSamples int // per-table sample bitmap width; 0 disables bitmaps
	// LRDecay, when in (0,1), multiplies the learning rate once validation
	// has stalled for Patience/2 epochs (reduce-on-plateau).
	LRDecay float64
}

// DefaultConfig returns repository-scale defaults mirroring the MSCN paper
// (hidden width scaled to the synthetic database size).
func DefaultConfig() Config {
	return Config{
		Hidden:    64,
		LR:        0.001,
		BatchSize: 64,
		Epochs:    60,
		Patience:  10,
		Seed:      1,
	}
}

// Featurizer converts queries into MSCN's three feature sets. It is bound
// to a schema and database snapshot, and — when sampling is enabled — to a
// fixed set of sampled base-table rows.
type Featurizer struct {
	s *schema.Schema
	d *db.Database

	numSamples int
	sampleRows map[string][]int32

	dimT, dimJ, dimP int
}

// NewFeaturizer builds a featurizer. numSamples > 0 materializes that many
// uniformly sampled rows per base table (without replacement where
// possible) for predicate bitmaps, as in the MSCN paper's sampling variant.
func NewFeaturizer(s *schema.Schema, d *db.Database, numSamples int, seed int64) (*Featurizer, error) {
	if !d.Frozen() {
		return nil, fmt.Errorf("mscn: database must be frozen")
	}
	f := &Featurizer{
		s:          s,
		d:          d,
		numSamples: numSamples,
		sampleRows: make(map[string][]int32),
		dimT:       s.NumTables() + numSamples,
		dimJ:       s.NumJoins(),
		dimP:       s.NumColumns() + schema.NumOperators + 1,
	}
	if numSamples > 0 {
		rng := rand.New(rand.NewSource(seed))
		for _, td := range s.Tables {
			n := d.NumRows(td.Name)
			rows := make([]int32, numSamples)
			if n > 0 {
				perm := rng.Perm(n)
				for i := 0; i < numSamples; i++ {
					rows[i] = int32(perm[i%n])
				}
			}
			f.sampleRows[td.Name] = rows
		}
	}
	return f, nil
}

// Dims returns the element dimensions of the table, join and predicate sets.
func (f *Featurizer) Dims() (dimT, dimJ, dimP int) { return f.dimT, f.dimJ, f.dimP }

// Encode converts a query into its three MSCN feature sets. Empty join or
// predicate sets are represented by a single zero vector so that average
// pooling stays defined (as in the reference implementation).
func (f *Featurizer) Encode(q query.Query) (tv, jv, pv [][]float64, err error) {
	for _, t := range q.Tables {
		id, ok := f.s.TableID(t)
		if !ok {
			return nil, nil, nil, fmt.Errorf("mscn: unknown table %q", t)
		}
		v := make([]float64, f.dimT)
		v[id] = 1
		if f.numSamples > 0 {
			if err := f.fillBitmap(v[f.s.NumTables():], t, q.PredsOn(t)); err != nil {
				return nil, nil, nil, err
			}
		}
		tv = append(tv, v)
	}
	for _, j := range q.Joins {
		id, ok := f.s.JoinID(j.Left, j.Right)
		if !ok {
			return nil, nil, nil, fmt.Errorf("mscn: %v is not a schema join", j)
		}
		v := make([]float64, f.dimJ)
		v[id] = 1
		jv = append(jv, v)
	}
	if len(jv) == 0 {
		jv = append(jv, make([]float64, f.dimJ))
	}
	for _, p := range q.Preds {
		cid, ok := f.s.ColumnID(p.Col)
		if !ok {
			return nil, nil, nil, fmt.Errorf("mscn: unknown column %v", p.Col)
		}
		oid, ok := f.s.OperatorID(p.Op)
		if !ok {
			return nil, nil, nil, fmt.Errorf("mscn: unknown operator %q", p.Op)
		}
		stats, ok := f.d.Stats(p.Col)
		if !ok {
			return nil, nil, nil, fmt.Errorf("mscn: no statistics for %v", p.Col)
		}
		v := make([]float64, f.dimP)
		v[cid] = 1
		v[f.s.NumColumns()+oid] = 1
		v[f.dimP-1] = stats.Normalize(p.Val)
		pv = append(pv, v)
	}
	if len(pv) == 0 {
		pv = append(pv, make([]float64, f.dimP))
	}
	return tv, jv, pv, nil
}

// fillBitmap evaluates the query's predicates on `table` over the
// materialized sample rows, writing one bit per sample.
func (f *Featurizer) fillBitmap(dst []float64, table string, preds []query.Predicate) error {
	t := f.d.Table(table)
	rows := f.sampleRows[table]
	cols := make([][]db.Value, len(preds))
	for i, p := range preds {
		cols[i] = t.Column(p.Col.Column)
		if cols[i] == nil {
			return fmt.Errorf("mscn: unknown column %v", p.Col)
		}
	}
	if t.NumRows() == 0 {
		return nil
	}
	for si, r := range rows {
		bit := 1.0
		for i, p := range preds {
			if !p.Matches(cols[i][r]) {
				bit = 0
				break
			}
		}
		dst[si] = bit
	}
	return nil
}

// Sample is one training example: the three encoded sets and the true
// cardinality.
type Sample struct {
	T, J, P [][]float64
	Card    float64
}

// EncodeSample featurizes a query together with its cardinality label.
func (f *Featurizer) EncodeSample(q query.Query, card float64) (Sample, error) {
	tv, jv, pv, err := f.Encode(q)
	if err != nil {
		return Sample{}, err
	}
	return Sample{T: tv, J: jv, P: pv, Card: card}, nil
}

// EpochStats records one training epoch.
type EpochStats = nn.EpochStats

// Model is the MSCN network.
type Model struct {
	cfg              Config
	dimT, dimJ, dimP int

	encT, encJ, encP *nn.SetEncoder
	out1, out2       *nn.Dense

	logScale float64 // ln(maxCard+1) normalization, fixed at training time
}

// NewModel initializes an untrained MSCN for the given set dimensions.
func NewModel(cfg Config, dimT, dimJ, dimP int) *Model {
	if cfg.Hidden <= 0 {
		panic("mscn: Hidden must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	h := cfg.Hidden
	return &Model{
		cfg:  cfg,
		dimT: dimT, dimJ: dimJ, dimP: dimP,
		encT: nn.NewSetEncoder(rng, dimT, h, h),
		encJ: nn.NewSetEncoder(rng, dimJ, h, h),
		encP: nn.NewSetEncoder(rng, dimP, h, h),
		out1: nn.NewDense(rng, 3*h, h),
		out2: nn.NewDense(rng, h, 1),
	}
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// LogScale returns the cardinality normalization constant ln(maxCard+1).
func (m *Model) LogScale() float64 { return m.logScale }

// Params returns all trainable tensors.
func (m *Model) Params() []*nn.Param {
	var out []*nn.Param
	out = append(out, m.encT.Params()...)
	out = append(out, m.encJ.Params()...)
	out = append(out, m.encP.Params()...)
	out = append(out, m.out1.Params()...)
	out = append(out, m.out2.Params()...)
	return out
}

// NumParams returns the scalar parameter count.
func (m *Model) NumParams() int { return nn.NumParams(m.Params()) }

// forwardCache holds one forward pass's intermediates for backprop, all
// workspace-backed when a workspace is supplied.
type forwardCache struct {
	bT, bJ, bP nn.SetBatch
	aT, aJ, aP [2]*nn.Matrix // per-layer set-module activations
	pooled     *nn.Matrix    // n×3H concatenation
	a1         *nn.Matrix
	sigmoids   *nn.Matrix
}

// forward runs the three set modules and the output network over a batch,
// writing every intermediate into ws (nil ws allocates).
func (m *Model) forward(ws *nn.Workspace, samples []Sample, c *forwardCache) *forwardCache {
	n := len(samples)
	c.bT = nn.BuildSetBatch(ws, n, m.dimT, func(i int) [][]float64 { return samples[i].T })
	c.bJ = nn.BuildSetBatch(ws, n, m.dimJ, func(i int) [][]float64 { return samples[i].J })
	c.bP = nn.BuildSetBatch(ws, n, m.dimP, func(i int) [][]float64 { return samples[i].P })
	pT := m.encT.Forward(ws, c.bT, c.aT[:])
	pJ := m.encJ.Forward(ws, c.bJ, c.aJ[:])
	pP := m.encP.Forward(ws, c.bP, c.aP[:])

	h := m.cfg.Hidden
	c.pooled = ws.Take(n, 3*h)
	for i := 0; i < n; i++ {
		dst := c.pooled.Row(i)
		copy(dst[:h], pT.Row(i))
		copy(dst[h:2*h], pJ.Row(i))
		copy(dst[2*h:], pP.Row(i))
	}
	c.a1 = m.out1.ForwardReLU(ws, c.pooled)
	c.sigmoids = nn.SigmoidForward(ws, m.out2.Forward(ws, c.a1))
	return c
}

func (m *Model) backward(ws *nn.Workspace, c *forwardCache, dOut *nn.Matrix) {
	dPre := nn.SigmoidBackward(ws, dOut, c.sigmoids)
	dA1 := m.out2.Backward(ws, c.a1, dPre, true)
	dPooled := m.out1.BackwardReLU(ws, c.pooled, c.a1, dA1, true)

	h := m.cfg.Hidden
	n := dPooled.Rows
	dT := ws.Take(n, h)
	dJ := ws.Take(n, h)
	dP := ws.Take(n, h)
	for i := 0; i < n; i++ {
		src := dPooled.Row(i)
		copy(dT.Row(i), src[:h])
		copy(dJ.Row(i), src[h:2*h])
		copy(dP.Row(i), src[2*h:])
	}
	m.encT.Backward(ws, c.bT, c.aT[:], dT)
	m.encJ.Backward(ws, c.bJ, c.aJ[:], dJ)
	m.encP.Backward(ws, c.bP, c.aP[:], dP)
}

// normalize maps a cardinality to the model's [0,1] log scale.
func (m *Model) normalize(card float64) float64 {
	if card < 0 {
		card = 0
	}
	return math.Log(card+1) / m.logScale
}

// denormalize inverts normalize.
func (m *Model) denormalize(s float64) float64 {
	return math.Exp(s*m.logScale) - 1
}

// EstimateCard predicts the cardinality of one encoded sample.
func (m *Model) EstimateCard(s Sample) float64 {
	return m.EstimateCardBatch([]Sample{s})[0]
}

// EstimateCardBatch predicts cardinalities for a batch of encoded samples.
func (m *Model) EstimateCardBatch(samples []Sample) []float64 {
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	var c forwardCache
	m.forward(ws, samples, &c)
	out := make([]float64, len(samples))
	for i, s := range c.sigmoids.Data {
		out[i] = m.denormalize(s)
	}
	return out
}

// Train fits the model, early-stopping on val (mean cardinality q-error).
func (m *Model) Train(train, val []Sample, progress func(EpochStats)) ([]EpochStats, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("mscn: empty training set")
	}
	maxCard := 1.0
	for _, s := range train {
		if s.Card > maxCard {
			maxCard = s.Card
		}
	}
	m.logScale = math.Log(maxCard + 1)
	loss := nn.LogQErrorLoss{Scale: m.logScale}

	// One workspace serves every batch of the run.
	ws := nn.NewWorkspace()
	var fc forwardCache
	batch := make([]Sample, 0, m.cfg.BatchSize)
	targets := make([]float64, 0, m.cfg.BatchSize)
	step := func(idx []int) float64 {
		batch, targets = batch[:0], targets[:0]
		for _, j := range idx {
			batch = append(batch, train[j])
			targets = append(targets, m.normalize(train[j].Card))
		}
		ws.Reset()
		c := m.forward(ws, batch, &fc)
		l, grad := loss.Eval(c.sigmoids.Data, targets)
		m.backward(ws, c, &nn.Matrix{Rows: len(batch), Cols: 1, Data: grad})
		return l
	}
	var validate func() float64
	if len(val) > 0 {
		validate = func() float64 { return m.ValidationQError(val) }
	}
	s := nn.Schedule{LR: m.cfg.LR, BatchSize: m.cfg.BatchSize, Epochs: m.cfg.Epochs,
		Patience: m.cfg.Patience, Seed: m.cfg.Seed, LRDecay: m.cfg.LRDecay}
	return nn.Fit(context.TODO(), m.Params(), len(train), s, step, validate, progress)
}

// ValidationQError computes the mean cardinality q-error over a sample set.
func (m *Model) ValidationQError(val []Sample) float64 {
	if len(val) == 0 {
		return math.NaN()
	}
	const chunk = 512
	var sum float64
	for lo := 0; lo < len(val); lo += chunk {
		hi := lo + chunk
		if hi > len(val) {
			hi = len(val)
		}
		preds := m.EstimateCardBatch(val[lo:hi])
		for i, p := range preds {
			sum += metrics.CardQError(val[lo+i].Card, p)
		}
	}
	return sum / float64(len(val))
}

// Estimator pairs a featurizer with a trained model to implement the
// query-level cardinality-estimation interface used by the experiments.
type Estimator struct {
	F *Featurizer
	M *Model
}

// EstimateCard featurizes the query and predicts its cardinality.
func (e *Estimator) EstimateCard(q query.Query) (float64, error) {
	tv, jv, pv, err := e.F.Encode(q)
	if err != nil {
		return 0, err
	}
	return e.M.EstimateCard(Sample{T: tv, J: jv, P: pv}), nil
}

// EstimateCards featurizes and predicts a batch of queries in one forward
// pass (the contain.BatchCardEstimator fast path).
func (e *Estimator) EstimateCards(queries []query.Query) ([]float64, error) {
	samples := make([]Sample, len(queries))
	for i, q := range queries {
		tv, jv, pv, err := e.F.Encode(q)
		if err != nil {
			return nil, err
		}
		samples[i] = Sample{T: tv, J: jv, P: pv}
	}
	return e.M.EstimateCardBatch(samples), nil
}

// modelBlob is the gob wire format of a serialized model.
type modelBlob struct {
	Cfg              Config
	DimT, DimJ, DimP int
	LogScale         float64
	Params           []byte
}

// Save serializes the model configuration, normalization and weights.
func (m *Model) Save() ([]byte, error) {
	params, err := nn.EncodeParams(m.Params())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	blob := modelBlob{Cfg: m.cfg, DimT: m.dimT, DimJ: m.dimJ, DimP: m.dimP, LogScale: m.logScale, Params: params}
	if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
		return nil, fmt.Errorf("mscn: save: %w", err)
	}
	return buf.Bytes(), nil
}

// Load reconstructs a model serialized by Save.
func Load(data []byte) (*Model, error) {
	var blob modelBlob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&blob); err != nil {
		return nil, fmt.Errorf("mscn: load: %w", err)
	}
	m := NewModel(blob.Cfg, blob.DimT, blob.DimJ, blob.DimP)
	m.logScale = blob.LogScale
	if err := nn.DecodeParams(blob.Params, m.Params()); err != nil {
		return nil, err
	}
	return m, nil
}
