package nn

// Kernel dispatch. The matrix kernels in matrix.go and the fused dense/ReLU
// row loops in layers.go funnel every inner loop through the function
// variables below. At package init exactly one implementation set is
// selected — hand-written AVX2+FMA assembly when the CPU supports it, with
// an AVX-512F pair head on hosts that have it (amd64 builds without the
// noasm tag; see kernels_amd64.go), the portable Go
// fallbacks in this file otherwise — and the choice never changes for the
// life of the process. Every call site shares the one dispatched set, so
// coalesced, cached, resident and plain serving paths stay mutually
// bit-identical whatever was selected.
//
// Equivalence discipline: the vector implementations may fuse
// multiply-adds (one rounding instead of two) and reassociate sums across
// lanes, so axpy/axpy4/dot/dot4 agree with the generic fallbacks to the
// tolerance gates in kernels_test.go / kernels_simd_test.go rather than
// bitwise — exactly the contract the register-blocked kernels already have
// against the naive references. addBiasReLU and reluMask perform no
// reassociation (elementwise add, compare, mask) and are pinned
// bit-identical to the generic loops. pairHead is pinned bit-identical to
// the same set's axpy2 (TestPairHeadMatchesAxpy2), and through it within
// tolerance of the generic set.

var (
	// axpy computes dst[j] += a·x[j]. len(x) must be ≥ len(dst).
	axpy func(dst []float64, a float64, x []float64) = axpyGeneric

	// axpy2 computes dst[j] += a0·b0[j] + a1·b1[j] — one hidden unit's
	// update of one CRN head row (see Axpy2). Both b slices must be ≥
	// len(dst).
	axpy2 func(dst, b0, b1 []float64, a0, a1 float64) = axpy2Generic

	// pairHead is the CRN head's row-blocked update (see PairHead): each of
	// the PairHeadRows rows of z receives, for k in order, exactly the axpy2
	// of the same ISA. The caller guarantees the shapes PairHead checks.
	pairHead func(z, coef, w3, w4 []float64) = pairHeadGeneric

	// axpy4 computes dst[j] += a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j] —
	// the quad-row update of MatMul's dense path and MatMulTransAAcc. Every
	// b slice must be ≥ len(dst).
	axpy4 func(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) = axpy4Generic

	// vecMat accumulates dst[j] += Σ_k a[k]·b[k*len(dst)+j] — one dense
	// output row of MatMul in a single call, so the vector implementation
	// can keep a register block of dst columns live across the whole k
	// loop. b is row-major len(a)×len(dst); len(b) must be ≥
	// len(a)·len(dst). Each dst element is accumulated serially in k order,
	// preserving the determinism invariant of matrix.go.
	vecMat func(dst, a, b []float64) = vecMatGeneric

	// dot computes Σ a[k]·b[k] over len(a). len(b) must be ≥ len(a).
	dot func(a, b []float64) float64 = dotGeneric

	// dot4 computes the four dot products of a against b0..b3 in one pass —
	// the quad-column update of MatMulTransB. Every b slice must be ≥ len(a).
	dot4 func(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) = dot4Generic

	// addBiasReLU computes row[j] = max(0, row[j]+bias[j]) — the fused
	// epilogue of Dense.ForwardReLU. len(bias) must be ≥ len(row).
	// Bit-identical across implementations.
	addBiasReLU func(row, bias []float64) = addBiasReLUGeneric

	// reluMask computes dst[i] = dy[i] when y[i] > 0, else 0 — the
	// ReLUBackward mask. len(dy) and len(y) must be ≥ len(dst).
	// Bit-identical across implementations.
	reluMask func(dst, dy, y []float64) = reluMaskGeneric

	// biasReLUDot computes Σ_j max(0, z[j]+bias[j])·w[j] — the CRN head's
	// fused hidden-layer epilogue (see BiasReLUDot). len(bias) and len(w)
	// must be ≥ len(z).
	biasReLUDot func(z, bias, w []float64) float64 = biasReLUDotGeneric

	// kernelISA names the selected implementation set.
	kernelISA = "generic"
)

// KernelISA reports which inner-loop kernel set package init selected:
// "avx512f+avx2+fma" on amd64 hosts that also have AVX-512F (the pair head
// runs at that width), "avx2+fma" on those with AVX2 and FMA3 only (unless
// built with -tags noasm or run with CRN_NOSIMD set), "generic" otherwise.
func KernelISA() string { return kernelISA }

// Axpy2 computes dst[j] += a0·b0[j] + a1·b1[j] through the dispatched
// kernel set — one row of the CRN head's update, the operation PairHead is
// defined by: internal/crn's one-pair-at-a-time reference loop and kernel
// timing call it from outside this package's matrix types. Both b slices
// must be at least len(dst) long.
func Axpy2(dst, b0, b1 []float64, a0, a1 float64) { axpy2(dst, b0, b1, a0, a1) }

// PairHeadRows is R, the number of head rows PairHead updates per pass over
// the weights.
const PairHeadRows = 4

// PairHead updates PairHeadRows rows of CRN head pre-activations in one pass
// over the weights:
//
//	z[r][j] += Σ_k mn[r][k]·w3[k][j] + pr[r][k]·w4[k][j]
//
// z is PairHeadRows×cols row-major; coef is h×(2·PairHeadRows) row-major,
// row k holding mn[0..R) then pr[0..R); w3 and w4 are h×cols row-major
// (longer slices are cut). Each element of z goes through exactly the
// operation sequence Axpy2(z[r], w3[k], w4[k], mn[r][k], pr[r][k]) applies
// for k = 0, 1, …, so the result equals that loop bit for bit on the
// dispatched kernel set; reading every weight row once per R rows instead of
// once per row is the whole difference. It panics on inconsistent shapes.
func PairHead(z, coef, w3, w4 []float64) {
	cols := len(z) / PairHeadRows
	h := len(coef) / (2 * PairHeadRows)
	if len(z) != cols*PairHeadRows || len(coef) != 2*PairHeadRows*h || len(w3) < h*cols || len(w4) < h*cols {
		panic("nn: PairHead shape mismatch")
	}
	pairHead(z, coef, w3[:h*cols], w4[:h*cols])
}

// BiasReLUDot computes Σ_j max(0, z[j]+bias[j])·w[j] through the dispatched
// kernel set — the CRN head's fused bias + ReLU + output-layer contraction.
// len(bias) and len(w) must be at least len(z).
func BiasReLUDot(z, bias, w []float64) float64 { return biasReLUDot(z, bias, w) }

// --- Generic fallbacks ------------------------------------------------------
//
// These are the portable kernels: the default on non-amd64 architectures
// and under -tags noasm, and the reference the SIMD implementations are
// tested against. They are exactly the loops the register-blocked kernels
// inlined before dispatch existed, so a noasm build reproduces the historic
// results bit for bit.

func axpyGeneric(dst []float64, a float64, x []float64) {
	x = x[:len(dst)]
	for j, v := range x {
		dst[j] += a * v
	}
}

func axpy2Generic(dst, b0, b1 []float64, a0, a1 float64) {
	b0 = b0[:len(dst)]
	b1 = b1[:len(dst)]
	for j, v := range b0 {
		dst[j] += a0*v + a1*b1[j]
	}
}

// pairHeadGeneric is axpy2Generic row by row and k by k, which makes it the
// generic axpy2's operation sequence by construction.
func pairHeadGeneric(z, coef, w3, w4 []float64) {
	cols := len(z) / PairHeadRows
	for k := 0; k < len(coef)/(2*PairHeadRows); k++ {
		c := coef[k*2*PairHeadRows : (k+1)*2*PairHeadRows]
		b0, b1 := w3[k*cols:(k+1)*cols], w4[k*cols:(k+1)*cols]
		for r := 0; r < PairHeadRows; r++ {
			axpy2Generic(z[r*cols:(r+1)*cols], b0, b1, c[r], c[PairHeadRows+r])
		}
	}
}

func axpy4Generic(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	b0 = b0[:len(dst)]
	b1 = b1[:len(dst)]
	b2 = b2[:len(dst)]
	b3 = b3[:len(dst)]
	for j, v := range b0 {
		dst[j] += a0*v + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

func vecMatGeneric(dst, a, b []float64) {
	bc := len(dst)
	k := 0
	for ; k+3 < len(a); k += 4 {
		axpy4Generic(dst,
			b[k*bc:k*bc+bc],
			b[(k+1)*bc:(k+1)*bc+bc],
			b[(k+2)*bc:(k+2)*bc+bc],
			b[(k+3)*bc:(k+3)*bc+bc],
			a[k], a[k+1], a[k+2], a[k+3])
	}
	for ; k < len(a); k++ {
		if av := a[k]; av != 0 {
			axpyGeneric(dst, av, b[k*bc:k*bc+bc])
		}
	}
}

func dotGeneric(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for k, av := range a {
		s += av * b[k]
	}
	return s
}

func dot4Generic(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	b0 = b0[:len(a)]
	b1 = b1[:len(a)]
	b2 = b2[:len(a)]
	b3 = b3[:len(a)]
	for k, av := range a {
		s0 += av * b0[k]
		s1 += av * b1[k]
		s2 += av * b2[k]
		s3 += av * b3[k]
	}
	return s0, s1, s2, s3
}

func addBiasReLUGeneric(row, bias []float64) {
	bias = bias[:len(row)]
	for j, b := range bias {
		if v := row[j] + b; v > 0 {
			row[j] = v
		} else {
			row[j] = 0
		}
	}
}

func biasReLUDotGeneric(z, bias, w []float64) float64 {
	bias = bias[:len(z)]
	w = w[:len(z)]
	var s float64
	for j, zv := range z {
		if a := zv + bias[j]; a > 0 {
			s += a * w[j]
		}
	}
	return s
}

func reluMaskGeneric(dst, dy, y []float64) {
	dyd := dy[:len(dst)]
	yd := y[:len(dst)]
	for i := range dst {
		if yd[i] > 0 {
			dst[i] = dyd[i]
		} else {
			dst[i] = 0
		}
	}
}
