package nn

import (
	"math"
	"math/rand"
	"testing"
)

// fillRandom populates a matrix with standard normals, zeroing a fraction
// of entries to exercise the sparse dispatch paths.
func fillRandom(rng *rand.Rand, m *Matrix, zeroFrac float64) {
	for i := range m.Data {
		if rng.Float64() < zeroFrac {
			m.Data[i] = 0
		} else {
			m.Data[i] = rng.NormFloat64()
		}
	}
}

func maxAbsDiff(a, b *Matrix) float64 {
	var worst float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestOptimizedKernelsMatchNaive pins the blocked/unrolled kernels to the
// naive reference loops within 1e-9 across shapes that cover every unroll
// remainder (k mod 4, j mod 4) and sparsity regime.
func TestOptimizedKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{ // rows, inner, cols
		{1, 1, 1}, {2, 3, 5}, {4, 4, 4}, {7, 9, 11},
		{16, 70, 64}, {33, 65, 31}, {64, 256, 128}, {5, 128, 1},
	}
	for _, zf := range []float64{0, 0.5, 0.95} {
		for _, sh := range shapes {
			rows, inner, cols := sh[0], sh[1], sh[2]
			a := NewMatrix(rows, inner)
			b := NewMatrix(inner, cols)
			fillRandom(rng, a, zf)
			fillRandom(rng, b, 0)

			got := NewMatrix(rows, cols)
			want := NewMatrix(rows, cols)
			MatMul(got, a, b)
			MatMulNaive(want, a, b)
			if d := maxAbsDiff(got, want); d > 1e-9 {
				t.Errorf("MatMul %v zf=%v: max diff %v", sh, zf, d)
			}

			// aᵀ·b with a as the (inner × rows) operand.
			at := NewMatrix(inner, rows)
			fillRandom(rng, at, zf)
			got2 := NewMatrix(rows, cols)
			want2 := NewMatrix(rows, cols)
			bt := NewMatrix(inner, cols)
			fillRandom(rng, bt, 0)
			MatMulTransA(got2, at, bt)
			MatMulTransANaive(want2, at, bt)
			if d := maxAbsDiff(got2, want2); d > 1e-9 {
				t.Errorf("MatMulTransA %v zf=%v: max diff %v", sh, zf, d)
			}

			// a·bᵀ with b as a (cols × inner) operand.
			bb := NewMatrix(cols, inner)
			fillRandom(rng, bb, 0)
			got3 := NewMatrix(rows, cols)
			want3 := NewMatrix(rows, cols)
			MatMulTransB(got3, a, bb)
			MatMulTransBNaive(want3, a, bb)
			if d := maxAbsDiff(got3, want3); d > 1e-9 {
				t.Errorf("MatMulTransB %v zf=%v: max diff %v", sh, zf, d)
			}
		}
	}
}

// TestMatMulTransAAccAccumulates verifies the accumulate variant adds on
// top of existing destination contents (the direct-into-Grad contract).
func TestMatMulTransAAccAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewMatrix(6, 4)
	b := NewMatrix(6, 3)
	fillRandom(rng, a, 0.3)
	fillRandom(rng, b, 0)
	dst := NewMatrix(4, 3)
	for i := range dst.Data {
		dst.Data[i] = float64(i)
	}
	want := NewMatrix(4, 3)
	MatMulTransANaive(want, a, b)
	for i := range want.Data {
		want.Data[i] += float64(i)
	}
	MatMulTransAAcc(dst, a, b)
	if d := maxAbsDiff(dst, want); d > 1e-9 {
		t.Errorf("accumulate drift: %v", d)
	}
}

// TestMatMulTransAParallelMatchesSerial exercises the fixed-split
// partial-accumulator path (engaged by shape alone, so it runs — and
// produces the same bits — whatever GOMAXPROCS is) against the reference.
func TestMatMulTransAParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewMatrix(1024, 96) // 1024×96×64 ≥ transAMinWork: engages the fixed split
	b := NewMatrix(1024, 64)
	if a.Rows*a.Cols*b.Cols < transAMinWork {
		t.Fatal("test shape no longer crosses the parallel threshold; enlarge it")
	}
	fillRandom(rng, a, 0.2)
	fillRandom(rng, b, 0)
	got := NewMatrix(96, 64)
	want := NewMatrix(96, 64)
	MatMulTransA(got, a, b)
	MatMulTransANaive(want, a, b)
	if d := maxAbsDiff(got, want); d > 1e-9 {
		t.Errorf("parallel TransA drift: %v", d)
	}
	// Determinism for a fixed worker split.
	again := NewMatrix(96, 64)
	MatMulTransA(again, a, b)
	for i := range got.Data {
		if got.Data[i] != again.Data[i] {
			t.Fatalf("TransA not deterministic at %d", i)
		}
	}
}

// TestFusedDenseReLUMatchesUnfused pins the fused forward to the two-pass
// composition bit-for-bit.
func TestFusedDenseReLUMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewDense(rng, 9, 7)
	x := NewMatrix(13, 9)
	fillRandom(rng, x, 0.4)
	fused := d.ForwardReLU(nil, x)
	unfused := ReLUForward(nil, d.Forward(nil, x))
	for i := range fused.Data {
		if fused.Data[i] != unfused.Data[i] {
			t.Fatalf("fused[%d] = %v, two-pass = %v", i, fused.Data[i], unfused.Data[i])
		}
	}
}

// TestFusedDenseReLUGradCheck numerically verifies the fused
// ForwardReLU/BackwardReLU pair, including the needDX input gradient.
func TestFusedDenseReLUGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := NewDense(rng, 4, 3)
	x := NewMatrix(5, 4)
	fillRandom(rng, x, 0)

	forward := func() float64 {
		y := d.ForwardReLU(nil, x)
		var loss float64
		for _, v := range y.Data {
			loss += v * v
		}
		return loss
	}
	y := d.ForwardReLU(nil, x)
	dy := NewMatrix(y.Rows, y.Cols)
	for i, v := range y.Data {
		dy.Data[i] = 2 * v
	}
	d.W.ZeroGrad()
	d.B.ZeroGrad()
	dx := d.BackwardReLU(nil, x, y, dy, true)

	check := func(name string, w, grad []float64) {
		t.Helper()
		for i := range w {
			num := numericGrad(forward, w, i)
			if !almostEqual(num, grad[i], 1e-4*(1+math.Abs(num))) {
				t.Fatalf("%s[%d]: analytic %v numeric %v", name, i, grad[i], num)
			}
		}
	}
	check("dW", d.W.W, d.W.Grad)
	check("dB", d.B.W, d.B.Grad)
	check("dX", x.Data, dx.Data)

	// needDX=false must still accumulate parameter gradients identically.
	wGrad := append([]float64(nil), d.W.Grad...)
	d.W.ZeroGrad()
	d.B.ZeroGrad()
	if got := d.BackwardReLU(nil, x, y, dy, false); got != nil {
		t.Fatal("needDX=false should return nil")
	}
	for i := range wGrad {
		if wGrad[i] != d.W.Grad[i] {
			t.Fatalf("dW[%d] differs when skipping dx", i)
		}
	}
}

// TestSetEncoderWSMatchesPlain pins the encoder pass on a reused workspace
// — forward values and parameter gradients — to the nil-workspace
// allocating path, at depths 1 and 2.
func TestSetEncoderWSMatchesPlain(t *testing.T) {
	for _, dims := range [][]int{{6, 5}, {6, 5, 4}} {
		rng := rand.New(rand.NewSource(17))
		l := dims[0]
		samples := [][][]float64{
			{randVec(rng, l), randVec(rng, l)},
			{randVec(rng, l)},
			{randVec(rng, l), randVec(rng, l), randVec(rng, l)},
		}
		encA := NewSetEncoder(rand.New(rand.NewSource(3)), dims...)
		encB := NewSetEncoder(rand.New(rand.NewSource(3)), dims...)

		ws := NewWorkspace()
		dirty := ws.Take(64, 64) // recycled storage must not leak into results
		for i := range dirty.Data {
			dirty.Data[i] = 99
		}
		ws.Reset()
		batchA := batchOf(ws, samples, l)
		batchB := batchOf(nil, samples, l)
		actsA := make([]*Matrix, len(dims)-1)
		actsB := make([]*Matrix, len(dims)-1)
		pooledA := encA.Forward(ws, batchA, actsA)
		pooledB := encB.Forward(nil, batchB, actsB)
		for i := range pooledB.Data {
			if pooledA.Data[i] != pooledB.Data[i] {
				t.Fatalf("depth %d pooled[%d] differs: %v vs %v", len(actsA), i, pooledA.Data[i], pooledB.Data[i])
			}
		}
		dPooled := NewMatrix(pooledB.Rows, pooledB.Cols)
		for i := range dPooled.Data {
			dPooled.Data[i] = float64(i%5) - 2
		}
		encA.Backward(ws, batchA, actsA, dPooled)
		encB.Backward(nil, batchB, actsB, dPooled)
		for p := range encA.Params() {
			ga, gb := encA.Params()[p].Grad, encB.Params()[p].Grad
			for i := range ga {
				if ga[i] != gb[i] {
					t.Fatalf("depth %d param %d grad[%d]: ws %v plain %v", len(actsA), p, i, ga[i], gb[i])
				}
			}
		}
	}
}
