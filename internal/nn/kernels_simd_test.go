package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// These tests pin the dispatched kernel set against the generic Go
// fallbacks. On amd64 with AVX2+FMA they exercise the assembly in
// kernels_amd64.s; under -tags noasm (or on other architectures, or with
// CRN_NOSIMD set) the dispatched set IS the generic set and they pass
// trivially — the CI noasm leg keeps that configuration green.
//
// Tolerances follow the established equivalence discipline: the FMA kernels
// (axpy/axpy4/vecMat/dot/dot4) fuse roundings and may split accumulation
// across lanes, so they get the same 1e-9 gate the register-blocked kernels
// have against the naive references; addBiasReLU and reluMask do no
// reassociation and must match bit for bit, including NaN and signed-zero
// handling.

const simdTol = 1e-9

// kernelLens covers empty slices, every lane-tail residue around the 4- and
// 16-wide vector widths, and a few larger sizes.
var kernelLens = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 257}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func maxAbsDiffSlice(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// checkKernelsOnce runs every dispatched kernel against its generic fallback
// on freshly drawn slices of length n (with extra capacity on the non-dst
// operands, mirroring how matrix.go passes full-row views). Shared by the
// table test and the fuzz target.
func checkKernelsOnce(t *testing.T, rng *rand.Rand, n int, zeroOut bool) {
	t.Helper()
	draw := func(extra int) []float64 {
		s := randSlice(rng, n+extra)
		if zeroOut {
			for i := range s {
				if rng.Intn(2) == 0 {
					s[i] = 0
				}
			}
		}
		return s
	}

	// axpy
	dstA := draw(0)
	dstB := append([]float64(nil), dstA...)
	x := draw(3)
	a := rng.NormFloat64()
	axpy(dstA, a, x)
	axpyGeneric(dstB, a, x)
	if d := maxAbsDiffSlice(dstA, dstB); d > simdTol {
		t.Errorf("axpy n=%d: max diff %g", n, d)
	}

	// axpy2
	dstA = draw(0)
	dstB = append([]float64(nil), dstA...)
	c0, c1 := draw(2), draw(4)
	a0x, a1x := rng.NormFloat64(), rng.NormFloat64()
	axpy2(dstA, c0, c1, a0x, a1x)
	axpy2Generic(dstB, c0, c1, a0x, a1x)
	if d := maxAbsDiffSlice(dstA, dstB); d > simdTol {
		t.Errorf("axpy2 n=%d: max diff %g", n, d)
	}

	// pairHead: PairHeadRows rows of n columns against h weight rows.
	for _, h := range []int{0, 1, 3, 8} {
		coef := draw(2*PairHeadRows*h + 1)[:2*PairHeadRows*h]
		w3, w4 := draw((h+1)*n), draw((h+1)*n)
		zA := draw(PairHeadRows*n + 1)[:PairHeadRows*n]
		zB := append([]float64(nil), zA...)
		pairHead(zA, coef, w3, w4)
		pairHeadGeneric(zB, coef, w3, w4)
		if d := maxAbsDiffSlice(zA, zB); d > simdTol {
			t.Errorf("pairHead n=%d h=%d: max diff %g", n, h, d)
		}
	}

	// addVec and pairCoef, the pair head's input: bit-identical.
	sumA, sumB := draw(0), draw(0)
	pa, pb := draw(1), draw(3)
	addVec(sumA, pa, pb)
	addVecGeneric(sumB, pa, pb)
	mustBitsEqual(t, fmt.Sprintf("addVec n=%d", n), sumA, sumB)
	mnA, prA, mnB, prB := draw(0), draw(2), draw(0), draw(2)
	pairCoef(mnA, prA, pa, pb)
	pairCoefGeneric(mnB, prB, pa, pb)
	mustBitsEqual(t, fmt.Sprintf("pairCoef mn n=%d", n), mnA, mnB)
	mustBitsEqual(t, fmt.Sprintf("pairCoef pr n=%d", n), prA[:n], prB[:n])

	// axpy4
	dstA = draw(0)
	dstB = append([]float64(nil), dstA...)
	b0, b1, b2, b3 := draw(1), draw(2), draw(0), draw(5)
	a0, a1, a2, a3 := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	axpy4(dstA, b0, b1, b2, b3, a0, a1, a2, a3)
	axpy4Generic(dstB, b0, b1, b2, b3, a0, a1, a2, a3)
	if d := maxAbsDiffSlice(dstA, dstB); d > simdTol {
		t.Errorf("axpy4 n=%d: max diff %g", n, d)
	}

	// vecMat: K×n row-major b for a handful of K values, including K not a
	// multiple of 4 and the all-zero-a degenerate row.
	for _, k := range []int{0, 1, 3, 4, 7, 16} {
		av := randSlice(rng, k)
		if zeroOut && k > 0 {
			for i := range av {
				if rng.Intn(2) == 0 {
					av[i] = 0
				}
			}
		}
		bm := draw(k * n)[:k*n]
		dstA = draw(0)
		dstB = append([]float64(nil), dstA...)
		vecMat(dstA, av, bm)
		vecMatGeneric(dstB, av, bm)
		if d := maxAbsDiffSlice(dstA, dstB); d > simdTol {
			t.Errorf("vecMat n=%d k=%d: max diff %g", n, k, d)
		}
	}

	// dot / dot4
	av := draw(0)
	bv := draw(2)
	if d := math.Abs(dot(av, bv) - dotGeneric(av, bv)); d > simdTol {
		t.Errorf("dot n=%d: diff %g", n, d)
	}
	s0, s1, s2, s3 := dot4(av, b0, b1, b2, b3)
	g0, g1, g2, g3 := dot4Generic(av, b0, b1, b2, b3)
	if d := maxAbsDiffSlice([]float64{s0, s1, s2, s3}, []float64{g0, g1, g2, g3}); d > simdTol {
		t.Errorf("dot4 n=%d: max diff %g", n, d)
	}

	// biasReLUDot: the fused bias+ReLU+dot reduction of the CRN head.
	z := draw(0)
	bb := draw(1)
	ww := draw(2)
	if d := math.Abs(biasReLUDot(z, bb, ww) - biasReLUDotGeneric(z, bb, ww)); d > simdTol {
		t.Errorf("biasReLUDot n=%d: diff %g", n, d)
	}

	// addBiasReLU: bit-identical, including negative pre-activations that
	// must clamp to +0.
	rowA := draw(0)
	rowB := append([]float64(nil), rowA...)
	bias := draw(1)
	addBiasReLU(rowA, bias)
	addBiasReLUGeneric(rowB, bias)
	for i := range rowA {
		if math.Float64bits(rowA[i]) != math.Float64bits(rowB[i]) {
			t.Fatalf("addBiasReLU n=%d: bit mismatch at %d: %x vs %x", n, i, math.Float64bits(rowA[i]), math.Float64bits(rowB[i]))
		}
	}

	// reluMask: bit-identical.
	y := draw(2)
	dy := draw(1)
	dstA = make([]float64, n)
	dstB = make([]float64, n)
	reluMask(dstA, dy, y)
	reluMaskGeneric(dstB, dy, y)
	for i := range dstA {
		if math.Float64bits(dstA[i]) != math.Float64bits(dstB[i]) {
			t.Fatalf("reluMask n=%d: bit mismatch at %d", n, i)
		}
	}
}

func TestSIMDKernelsMatchGeneric(t *testing.T) {
	t.Logf("kernel ISA: %s", KernelISA())
	rng := rand.New(rand.NewSource(42))
	for _, n := range kernelLens {
		checkKernelsOnce(t, rng, n, false)
		checkKernelsOnce(t, rng, n, true) // sparsity: ~half the entries zero
	}
}

// TestPairHeadMatchesAxpy2 pins PairHead to its definition on the dispatched
// set, bit for bit: axpy2 applied row by row and k by k. The shapes are the
// CRN head's (cols = 2h, every lane-tail residue of the 8/4/1 column tiles),
// blocks whose trailing rows carry all-zero coefficients (a pair count that
// is not a multiple of PairHeadRows), and coefficient rows with exact zeros
// (coordinates where one representation is zero).
func TestPairHeadMatchesAxpy2(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, h := range []int{1, 3, 8, 64} {
		cols := 2 * h
		for live := 1; live <= PairHeadRows; live++ {
			w3, w4 := randSlice(rng, h*cols), randSlice(rng, h*cols)
			coef := make([]float64, 2*PairHeadRows*h)
			for k := 0; k < h; k++ {
				for r := 0; r < live; r++ {
					if rng.Intn(3) == 0 {
						continue // exact zero coefficients
					}
					coef[r*h+k] = -2 * math.Abs(rng.NormFloat64())
					coef[(PairHeadRows+r)*h+k] = math.Abs(rng.NormFloat64())
				}
			}
			z := randSlice(rng, PairHeadRows*cols)
			want := append([]float64(nil), z...)
			for r := 0; r < PairHeadRows; r++ {
				for k := 0; k < h; k++ {
					axpy2(want[r*cols:(r+1)*cols], w3[k*cols:(k+1)*cols], w4[k*cols:(k+1)*cols],
						coef[r*h+k], coef[(PairHeadRows+r)*h+k])
				}
			}
			PairHead(z, coef, w3, w4)
			for i := range z {
				if math.Float64bits(z[i]) != math.Float64bits(want[i]) {
					t.Fatalf("h=%d live=%d: z[%d][%d] = %x, axpy2 gives %x",
						h, live, i/cols, i%cols, math.Float64bits(z[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// mustBitsEqual fails unless got and want hold the same float64 bits, NaNs
// counting as equal to each other whatever their payloads.
func mustBitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d = %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestPairHeadInputKernels pins the kernels that build a pair's head input.
// The generic kernels must equal the scalar loops PredictInto ran before
// they existed — z[j] = q1[j] + q2[j], then −2·min(a, b) and a·b per
// coordinate — and the dispatched kernels the generic ones, bit for bit.
// The inputs are the head's (non-negative representations with exact
// zeros and ties) plus the values a min can get wrong: both signed zeros in
// either order, negatives, infinities and NaN.
func TestPairHeadInputKernels(t *testing.T) {
	t.Logf("kernel ISA: %s", KernelISA())
	negZero := math.Copysign(0, -1)
	special := []float64{0, negZero, 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), 1e300, 5e-324}
	rng := rand.New(rand.NewSource(17))
	for _, n := range kernelLens {
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			switch rng.Intn(4) {
			case 0:
				a[i], b[i] = special[rng.Intn(len(special))], special[rng.Intn(len(special))]
			case 1:
				a[i] = math.Abs(rng.NormFloat64())
				b[i] = a[i]
			default:
				a[i], b[i] = math.Abs(rng.NormFloat64()), math.Abs(rng.NormFloat64())
				if rng.Intn(3) == 0 {
					a[i] = 0
				}
			}
		}
		sum, mn, pr := make([]float64, n), make([]float64, n), make([]float64, n)
		for j := range sum {
			sum[j] = a[j] + b[j]
		}
		for k, av := range a {
			bv := b[k]
			mn[k], pr[k] = -2*min(av, bv), av*bv
		}
		for _, set := range []struct {
			name string
			add  func(dst, a, b []float64)
			coef func(mn, pr, a, b []float64)
		}{{"generic", addVecGeneric, pairCoefGeneric}, {"dispatched", addVec, pairCoef}} {
			gotSum, gotMn, gotPr := make([]float64, n), make([]float64, n), make([]float64, n)
			set.add(gotSum, a, b)
			set.coef(gotMn, gotPr, a, b)
			mustBitsEqual(t, fmt.Sprintf("%s sum n=%d", set.name, n), gotSum, sum)
			mustBitsEqual(t, fmt.Sprintf("%s −2·min n=%d", set.name, n), gotMn, mn)
			mustBitsEqual(t, fmt.Sprintf("%s product n=%d", set.name, n), gotPr, pr)
		}
	}
	// min(+0, −0) and min(−0, +0) are both −0: the ordering trap of a vector min.
	for _, pair := range [][2]float64{{0, negZero}, {negZero, 0}} {
		mn, pr := make([]float64, 5), make([]float64, 5)
		a := []float64{pair[0], pair[0], pair[0], pair[0], pair[0]}
		b := []float64{pair[1], pair[1], pair[1], pair[1], pair[1]}
		pairCoef(mn, pr, a, b)
		for k := range mn {
			if math.Float64bits(mn[k]) != math.Float64bits(0) { // −2·(−0) = +0
				t.Fatalf("min(%v, %v) lane %d: −2·min = %x, want +0", pair[0], pair[1], k, math.Float64bits(mn[k]))
			}
		}
	}
}

// TestSIMDKernelsSpecialValues pins the bit-identity contract of the
// non-reassociating kernels on the adversarial values the tolerance tests
// never draw: signed zero and NaN. max(0, x) in the scalar branch maps NaN
// and -0 to +0; the vector implementations must do exactly the same.
func TestSIMDKernelsSpecialValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()

	row := []float64{negZero, nan, -1, 1, 0, 2, negZero, nan, 0.5}
	bias := make([]float64, len(row))
	want := append([]float64(nil), row...)
	addBiasReLUGeneric(want, bias)
	got := append([]float64(nil), row...)
	addBiasReLU(got, bias)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("addBiasReLU special at %d: got %x want %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}

	y := []float64{negZero, 0, 1, -1, nan, 2, 0.1, negZero, 3}
	dy := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	wantDst := make([]float64, len(y))
	reluMaskGeneric(wantDst, dy, y)
	gotDst := make([]float64, len(y))
	reluMask(gotDst, dy, y)
	for i := range gotDst {
		if math.Float64bits(gotDst[i]) != math.Float64bits(wantDst[i]) {
			t.Errorf("reluMask special at %d: got %v want %v", i, gotDst[i], wantDst[i])
		}
	}
}

// TestSIMDMatMulDegenerateShapes runs the full matrix kernels against the
// naive references on the shapes the lane structure finds hardest: single
// rows, single columns, tail lanes just off the 4/16-wide boundaries, and
// batches with entire rows zeroed (the sparse dispatch path).
func TestSIMDMatMulDegenerateShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {1, 17, 1}, {1, 1, 17}, {17, 1, 1},
		{1, 64, 33}, {33, 64, 1}, {5, 3, 2}, {4, 4, 4},
		{2, 19, 31}, {31, 19, 2}, {16, 16, 16}, {3, 65, 129},
	}
	for _, sh := range shapes {
		for _, zeroRows := range []bool{false, true} {
			a := NewMatrix(sh.m, sh.k)
			b := NewMatrix(sh.k, sh.n)
			for i := range a.Data {
				a.Data[i] = rng.NormFloat64()
			}
			for i := range b.Data {
				b.Data[i] = rng.NormFloat64()
			}
			if zeroRows {
				for i := 0; i < sh.m; i += 2 {
					row := a.Row(i)
					for j := range row {
						row[j] = 0
					}
				}
			}

			got := NewMatrix(sh.m, sh.n)
			want := NewMatrix(sh.m, sh.n)
			MatMul(got, a, b)
			MatMulNaive(want, a, b)
			if d := maxAbsDiffSlice(got.Data, want.Data); d > simdTol {
				t.Errorf("MatMul %dx%dx%d zero=%v: max diff %g", sh.m, sh.k, sh.n, zeroRows, d)
			}

			gotTB := NewMatrix(sh.m, sh.n)
			wantTB := NewMatrix(sh.m, sh.n)
			bt := NewMatrix(sh.n, sh.k)
			for i := range bt.Data {
				bt.Data[i] = rng.NormFloat64()
			}
			aw := NewMatrix(sh.m, sh.k)
			for i := range aw.Data {
				aw.Data[i] = rng.NormFloat64()
			}
			MatMulTransB(gotTB, aw, bt)
			MatMulTransBNaive(wantTB, aw, bt)
			if d := maxAbsDiffSlice(gotTB.Data, wantTB.Data); d > simdTol {
				t.Errorf("MatMulTransB %dx%dx%d: max diff %g", sh.m, sh.k, sh.n, d)
			}

			gotTA := NewMatrix(sh.k, sh.n)
			wantTA := NewMatrix(sh.k, sh.n)
			ab := NewMatrix(sh.m, sh.k)
			bb := NewMatrix(sh.m, sh.n)
			for i := range ab.Data {
				ab.Data[i] = rng.NormFloat64()
			}
			for i := range bb.Data {
				bb.Data[i] = rng.NormFloat64()
			}
			if zeroRows {
				for i := 0; i < sh.m; i += 2 {
					row := ab.Row(i)
					for j := range row {
						row[j] = 0
					}
				}
			}
			MatMulTransA(gotTA, ab, bb)
			MatMulTransANaive(wantTA, ab, bb)
			if d := maxAbsDiffSlice(gotTA.Data, wantTA.Data); d > simdTol {
				t.Errorf("MatMulTransA %dx%dx%d zero=%v: max diff %g", sh.m, sh.k, sh.n, zeroRows, d)
			}
		}
	}
}

// FuzzSIMDKernels drives the dispatched-vs-generic comparison with
// fuzzer-chosen lengths and seeds, so lane-boundary mistakes (off-by-one
// tails, misaligned pointers from the extra-capacity slices) surface beyond
// the hand-picked table above.
func FuzzSIMDKernels(f *testing.F) {
	f.Add(int64(1), uint(8))
	f.Add(int64(2), uint(17))
	f.Add(int64(3), uint(129))
	f.Add(int64(4), uint(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint) {
		size := int(n % 300)
		rng := rand.New(rand.NewSource(seed))
		checkKernelsOnce(t, rng, size, seed%2 == 0)
	})
}
