//go:build amd64 && !noasm

package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestPairHeadAVX512MatchesAVX2 pins the AVX-512F pair head to the AVX2 one
// bit for bit on every shape it is dispatched on — cols a multiple of 32 —
// with random weights, exact-zero coefficients and padding rows, and checks
// that the dispatcher sends every other shape to the AVX2 kernel. It skips
// on hosts without AVX-512F.
func TestPairHeadAVX512MatchesAVX2(t *testing.T) {
	if !hasAVX2FMA() || !hasAVX512F() {
		t.Skip("host has no AVX-512F")
	}
	rng := rand.New(rand.NewSource(11))
	for _, cols := range []int{32, 64, 96, 128, 160, 256, 8, 36, 100} {
		for _, h := range []int{1, 2, 7, 32, 64} {
			w3, w4 := randSlice(rng, h*cols), randSlice(rng, h*cols)
			coef := randSlice(rng, 2*PairHeadRows*h)
			for k := range coef {
				if rng.Intn(4) == 0 {
					coef[k] = 0
				}
			}
			z := randSlice(rng, PairHeadRows*cols)
			want := append([]float64(nil), z...)
			pairHeadAVX2(want, coef, w3, w4)
			pairHeadWide(z, coef, w3, w4)
			for i := range z {
				if math.Float64bits(z[i]) != math.Float64bits(want[i]) {
					t.Fatalf("cols=%d h=%d: z[%d][%d] = %x, AVX2 gives %x",
						cols, h, i/cols, i%cols, math.Float64bits(z[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}
