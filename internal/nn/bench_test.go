package nn

import (
	"math/rand"
	"testing"
)

func benchMatrices(rows, inner, cols int) (*Matrix, *Matrix, *Matrix) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(rows, inner)
	b := NewMatrix(inner, cols)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	return NewMatrix(rows, cols), a, b
}

func BenchmarkMatMul128(b *testing.B) {
	dst, x, y := benchMatrices(128, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, x, y)
	}
}

func BenchmarkMatMulBatchForward(b *testing.B) {
	// The CRN training shape: batch of set elements (640×70) into H=64.
	dst, x, y := benchMatrices(640, 70, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, x, y)
	}
}

func BenchmarkDenseForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense(rng, 256, 128)
	x := NewMatrix(64, 256)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := d.Forward(nil, x)
		d.Backward(nil, x, y, true)
	}
}

func BenchmarkSetEncoderForward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	enc := NewSetEncoder(rng, 70, 64)
	samples := make([][][]float64, 64)
	for i := range samples {
		set := make([][]float64, 5)
		for j := range set {
			v := make([]float64, 70)
			for k := range v {
				v[k] = rng.Float64()
			}
			set[j] = v
		}
		samples[i] = set
	}
	batch := batchOf(nil, samples, 70)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Forward(nil, batch, nil)
	}
}

func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	d := NewDense(rng, 256, 256)
	for _, p := range d.Params() {
		for i := range p.Grad {
			p.Grad[i] = rng.NormFloat64()
		}
	}
	opt := NewAdam(0.001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(d.Params())
	}
}

func BenchmarkQErrorLoss(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pred := make([]float64, 128)
	target := make([]float64, 128)
	for i := range pred {
		pred[i] = rng.Float64()
		target[i] = rng.Float64()
	}
	loss := QErrorLoss{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss.Eval(pred, target)
	}
}
