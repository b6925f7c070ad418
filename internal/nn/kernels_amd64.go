//go:build amd64 && !noasm

package nn

import "os"

// Runtime dispatch for the AVX2+FMA kernel set in kernels_amd64.s, and for
// its one AVX-512F member: on a host that also has AVX-512F with ZMM state
// enabled, pairHead — the CRN head's hot loop — runs pairHeadAVX512 on every
// shape whose column count is a multiple of 32 and pairHeadAVX2 on the rest.
// The two are bit-identical (the same FMAs per element, in the same order),
// so the choice never shows in a result. The selection runs once, before any
// kernel can be called: main-package inits and test setup both happen after
// package nn's init, so no caller ever observes a mid-flight switch. Build
// with -tags noasm to compile this file (and the assembly) out entirely, or
// set CRN_NOSIMD=1 to keep the generic kernels at runtime on a capable host
// — the operational kill switch for comparing or excluding the vector paths
// without a rebuild.

// cpuid executes CPUID with the given leaf/subleaf (implemented in
// kernels_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the OS-enabled extended-state mask (implemented in
// kernels_amd64.s). Only valid once CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

//go:noescape
func axpyAVX2(dst []float64, a float64, x []float64)

//go:noescape
func axpy2AVX2(dst, b0, b1 []float64, a0, a1 float64)

//go:noescape
func pairHeadAVX2(z, coef, w3, w4 []float64)

//go:noescape
func pairHeadAVX512(z, coef, w3, w4 []float64)

//go:noescape
func addVecAVX2(dst, a, b []float64)

//go:noescape
func pairCoefAVX2(mn, pr, a, b []float64)

//go:noescape
func axpy4AVX2(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)

//go:noescape
func vecMatAVX2(dst, a, b []float64)

//go:noescape
func dotAVX2(a, b []float64) float64

//go:noescape
func dot4AVX2(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64)

//go:noescape
func addBiasReLUAVX2(row, bias []float64)

//go:noescape
func reluMaskAVX2(dst, dy, y []float64)

//go:noescape
func biasReLUDotAVX2(z, bias, w []float64) float64

func init() {
	if os.Getenv("CRN_NOSIMD") != "" || !hasAVX2FMA() {
		return
	}
	axpy = axpyAVX2
	axpy2 = axpy2AVX2
	pairHead = pairHeadAVX2
	addVec = addVecAVX2
	pairCoef = pairCoefAVX2
	axpy4 = axpy4AVX2
	vecMat = vecMatAVX2
	dot = dotAVX2
	dot4 = dot4AVX2
	addBiasReLU = addBiasReLUAVX2
	reluMask = reluMaskAVX2
	biasReLUDot = biasReLUDotAVX2
	kernelISA = "avx2+fma"
	if hasAVX512F() {
		pairHead = pairHeadWide
		kernelISA = "avx512f+avx2+fma"
	}
}

// pairHeadWide runs pairHeadAVX512 on the shapes it tiles — 32 columns per
// register tile — and pairHeadAVX2 on the rest.
func pairHeadWide(z, coef, w3, w4 []float64) {
	if len(z)/PairHeadRows%32 == 0 {
		pairHeadAVX512(z, coef, w3, w4)
		return
	}
	pairHeadAVX2(z, coef, w3, w4)
}

// hasAVX512F reports whether the host CPU supports AVX-512F and the OS has
// enabled the opmask and full ZMM state (XCR0 bits 5–7 beside SSE and AVX).
// Only called once hasAVX2FMA has held, so CPUID leaf 7 and XGETBV exist.
func hasAVX512F() bool {
	if lo, _ := xgetbv(); lo&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<16) != 0
}

// hasAVX2FMA reports whether the host CPU supports the vector kernel set
// (AVX2 + FMA3) and the OS has enabled YMM state saving.
func hasAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX): the OS context-switches YMM registers.
	if lo, _ := xgetbv(); lo&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}
