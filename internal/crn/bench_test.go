package crn

// Benchmarks for the compute core on the hot paths: one full training epoch
// (forward + backward + Adam over a shuffled sample set), the serving-side
// PredictBatch and the pair head of a cache miss. Shapes mirror the
// repository-scale model (H=64, feature dimension ~70, 1-3 element sets per
// query). Run with
//
//	go test ./internal/crn -run '^$' -bench 'TrainEpoch|PredictBatch|PairHead' -benchmem
//
// `make bench-smoke` runs the whole suite once.

import (
	"context"
	"math/rand"
	"testing"

	"crn/internal/nn"
)

const (
	benchDim    = 70
	benchHidden = 64
)

func benchSamples(rng *rand.Rand, n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{
			V1:   randSet(rng, benchDim, 1+i%3),
			V2:   randSet(rng, benchDim, 1+(i+1)%3),
			Rate: rng.Float64(),
		}
	}
	return out
}

func benchModel() *Model {
	cfg := DefaultConfig()
	cfg.Hidden = benchHidden
	cfg.Epochs = 1
	cfg.Patience = 0
	return NewModel(cfg, benchDim)
}

// BenchmarkTrainEpoch measures one full training epoch: 2048 samples in
// batches of 64, q-error loss, Adam updates.
func BenchmarkTrainEpoch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	train := benchSamples(rng, 2048)
	m := benchModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Train(context.Background(), train, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictBatch measures the allocation profile of batched
// inference: 256 pairs per call on a fixed model.
func BenchmarkPredictBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pairs := benchSamples(rng, 256)
	m := benchModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatch(pairs)
	}
}

// BenchmarkPredictShared measures the factorized serving path: 64 unique
// sets probed all-pairs (4096 head evaluations) with one set-module pass.
func BenchmarkPredictShared(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	sets := make([][][]float64, 64)
	for i := range sets {
		sets[i] = randSet(rng, benchDim, 1+i%3)
	}
	var pairs [][2]int
	for i := range sets {
		for j := range sets {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	m := benchModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps1, reps2 := m.EncodeSets(sets)
		m.NewPairPredictor(reps1, reps2).Predict(pairs)
	}
}

// BenchmarkPairHead measures the pair head on a never-seen probe's shape:
// one request-local probe row against 32 resident rows in both directions,
// 64 pairs per call, as a bounded top-32 selection lays out a cache miss.
func BenchmarkPairHead(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	const resident = 32
	p := splitPredictor(rng, benchModel(), resident, 1)
	var probe int
	for q, row := range p.rowOf {
		if row == resident {
			probe = q
		}
	}
	var pairs [][2]int
	for q := range p.rowOf {
		if q != probe {
			pairs = append(pairs, [2]int{q, probe}, [2]int{probe, q})
		}
	}
	out := make([]float64, len(pairs))
	ws := nn.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		p.PredictInto(out, pairs, ws)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/pair")
}
