// Package nn is the from-scratch neural-network substrate of the
// reproduction: row-major float64 matrices, dense layers, ReLU/Sigmoid
// activations, one mean-pooled set encoder of configurable depth
// (SetEncoder: depth 1 is CRN's MLPi, depth 2 MSCN's set modules), the
// Adam optimizer, the paper's q-error training loss and Fit, the one
// training loop both models run (shuffled mini-batches, Adam, per-epoch
// validation, plateau decay, early stopping with best-weight restore). The
// original system trains with TensorFlow (§3.3); this package replaces it
// with a deterministic, dependency-free implementation verified by numeric
// gradient checks.
//
// Every layer operation is one function that takes a *Workspace; a nil
// workspace allocates its outputs (see Workspace), so the training loops
// and serving paths run on recycled arenas and tests can call the same
// functions without one.
//
// The matrix kernels come in two tiers: the optimized kernels below
// (register-blocked inner loops, sparsity-aware row dispatch, a parallel
// transpose-accumulate for weight gradients) and the straightforward
// reference kernels in reference.go. The optimized kernels may reassociate
// floating-point sums, so they agree with the reference to the 1e-9 gate
// enforced by the kernel tests rather than bitwise. Results are
// deterministic across machines with the same kernel ISA because no kernel
// lets core count affect any output element's summation order:
// MatMul/MatMulTransB parallelize by partitioning output rows (each element
// is still accumulated serially in fixed k order), and MatMulTransAAcc
// splits its shared dimension into a shape-derived fixed chunk count
// (transASplit), never GOMAXPROCS. Any new kernel must preserve this
// invariant. The inner loops themselves are the dispatched kernel set of
// kernels.go (AVX2+FMA assembly where available, portable Go otherwise;
// see KernelISA) — selection happens once at init, so within a process
// every serving path shares one kernel set and estimates stay bit-identical
// across batch compositions and entry points, while results may differ by
// ulps between hosts that dispatch different ISAs (or a noasm build).
package nn

import (
	"fmt"
	"runtime"
	"sync"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// rowWorkers returns how many goroutines a row range is worth: at most
// GOMAXPROCS, and at least minRowsPerWorker rows per goroutine. Callers
// dispatch the serial case without building a closure, so small kernels
// stay allocation-free.
func rowWorkers(rows, minRowsPerWorker int) int {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows/minRowsPerWorker {
		workers = rows / minRowsPerWorker
	}
	return workers
}

// parallelRows runs fn over [0, rows) split across workers when the work is
// large enough to amortize goroutine overhead.
func parallelRows(rows, minRowsPerWorker int, fn func(lo, hi int)) {
	workers := rowWorkers(rows, minRowsPerWorker)
	if workers <= 1 {
		fn(0, rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MatMul computes dst = a·b. dst must not alias a or b.
//
// Each output row is produced by one goroutine with a k-major accumulation:
// rows of a that are mostly zero (one-hot feature vectors) take a
// zero-skipping path, dense rows a 4-way unrolled path that loads/stores the
// destination row once per four inner products.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if rowWorkers(a.Rows, 16) <= 1 {
		matMulRows(dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, 16, func(lo, hi int) {
		matMulRows(dst, a, b, lo, hi)
	})
}

func matMulRows(dst, a, b *Matrix, lo, hi int) {
	ac, bc := a.Cols, b.Cols
	bd := b.Data
	for i := lo; i < hi; i++ {
		dstRow := dst.Data[i*bc : i*bc+bc]
		for j := range dstRow {
			dstRow[j] = 0
		}
		aRow := a.Data[i*ac : i*ac+ac]
		nz := 0
		for _, v := range aRow {
			if v != 0 {
				nz++
			}
		}
		if nz*4 <= len(aRow) {
			// Sparse row (feature one-hots): touch only nonzero k.
			for k, av := range aRow {
				if av == 0 {
					continue
				}
				axpy(dstRow, av, bd[k*bc:k*bc+bc])
			}
			continue
		}
		vecMat(dstRow, aRow, bd[:ac*bc])
	}
}

// transAMinWork is the flop threshold below which MatMulTransAAcc stays
// serial: per-worker accumulator slabs and the merge pass only pay off on
// large gradients.
const transAMinWork = 1 << 22

// transASplit is the fixed partial-accumulator count of the parallel
// MatMulTransAAcc path. The split depends only on the product's shape —
// never on GOMAXPROCS — so the floating-point summation order, and with it
// every trained weight, is identical on every machine; the scheduler just
// runs the fixed set of goroutines with whatever parallelism exists.
const transASplit = 8

// MatMulTransA computes dst = aᵀ·b (used for weight gradients:
// dW = xᵀ·dy). dst must not alias a or b.
func MatMulTransA(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMulTransA shape mismatch (%dx%d)ᵀ·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	for j := range dst.Data {
		dst.Data[j] = 0
	}
	MatMulTransAAcc(dst, a, b)
}

// MatMulTransAAcc accumulates dst += aᵀ·b without clearing dst first — the
// shape gradient descent needs: Dense.Backward adds dW = xᵀ·dy straight
// into the parameter's Grad with no intermediate matrix. Large products are
// split over the shared outer dimension into transASplit fixed chunks run
// concurrently, each accumulating into a private slab merged back in chunk
// order. The split (and so the result, bit for bit) depends only on the
// shape, not on core count.
func MatMulTransAAcc(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMulTransAAcc shape mismatch (%dx%d)ᵀ·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	rows := a.Rows
	workers := transASplit
	if workers > rows/32 {
		workers = rows / 32
	}
	if workers <= 1 || rows*a.Cols*b.Cols < transAMinWork {
		transAAccRange(dst.Data, a, b, 0, rows)
		return
	}
	// Per-worker accumulators, merged at the end. Worker 0 owns dst itself.
	partials := make([][]float64, workers-1)
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			acc := dst.Data
			if w > 0 {
				acc = takeSlab(len(dst.Data))
				partials[w-1] = acc
			}
			transAAccRange(acc, a, b, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, p := range partials {
		if p == nil {
			continue
		}
		axpy(dst.Data, 1, p)
		putSlab(p)
	}
}

// transAAccRange accumulates rows [lo, hi) of the shared outer dimension
// into acc, four input rows per pass so each destination row is loaded and
// stored once per quad.
func transAAccRange(acc []float64, a, b *Matrix, lo, hi int) {
	ac, bc := a.Cols, b.Cols
	ad, bd := a.Data, b.Data
	k := lo
	for ; k+3 < hi; k += 4 {
		aR0 := ad[k*ac : k*ac+ac]
		aR1 := ad[(k+1)*ac : (k+1)*ac+ac]
		aR2 := ad[(k+2)*ac : (k+2)*ac+ac]
		aR3 := ad[(k+3)*ac : (k+3)*ac+ac]
		aR1 = aR1[:len(aR0)]
		aR2 = aR2[:len(aR0)]
		aR3 = aR3[:len(aR0)]
		bR0 := bd[k*bc : k*bc+bc]
		bR1 := bd[(k+1)*bc : (k+1)*bc+bc]
		bR2 := bd[(k+2)*bc : (k+2)*bc+bc]
		bR3 := bd[(k+3)*bc : (k+3)*bc+bc]
		bR1 = bR1[:len(bR0)]
		bR2 = bR2[:len(bR0)]
		bR3 = bR3[:len(bR0)]
		for i, a0 := range aR0 {
			a1, a2, a3 := aR1[i], aR2[i], aR3[i]
			dr := acc[i*bc : i*bc+bc][:len(bR0)]
			if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
				axpy4(dr, bR0, bR1, bR2, bR3, a0, a1, a2, a3)
				continue
			}
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			if a0 != 0 {
				axpy(dr, a0, bR0)
			}
			if a1 != 0 {
				axpy(dr, a1, bR1)
			}
			if a2 != 0 {
				axpy(dr, a2, bR2)
			}
			if a3 != 0 {
				axpy(dr, a3, bR3)
			}
		}
	}
	for ; k < hi; k++ {
		aRow := ad[k*ac : k*ac+ac]
		bRow := bd[k*bc : k*bc+bc]
		for i, av := range aRow {
			if av == 0 {
				continue
			}
			axpy(acc[i*bc:i*bc+bc], av, bRow)
		}
	}
}

// slabPool recycles the per-worker accumulator slabs of MatMulTransAAcc.
var slabPool sync.Pool

func takeSlab(n int) []float64 {
	if s, ok := slabPool.Get().([]float64); ok && cap(s) >= n {
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	return make([]float64, n)
}

func putSlab(s []float64) { slabPool.Put(s) } //nolint:staticcheck // slice header boxing is fine here

// MatMulTransB computes dst = a·bᵀ (used for input gradients:
// dx = dy·Wᵀ). dst must not alias a or b.
//
// Four rows of b are dotted against each row of a per pass, so the a row
// streams from cache once per four outputs.
func MatMulTransB(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("nn: MatMulTransB shape mismatch (%dx%d)·(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if rowWorkers(a.Rows, 16) <= 1 {
		matMulTransBRows(dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, 16, func(lo, hi int) {
		matMulTransBRows(dst, a, b, lo, hi)
	})
}

func matMulTransBRows(dst, a, b *Matrix, lo, hi int) {
	ac, dc := a.Cols, dst.Cols
	bd := b.Data
	for i := lo; i < hi; i++ {
		aRow := a.Data[i*ac : i*ac+ac]
		dstRow := dst.Data[i*dc : i*dc+dc]
		j := 0
		for ; j+3 < b.Rows; j += 4 {
			dstRow[j], dstRow[j+1], dstRow[j+2], dstRow[j+3] = dot4(aRow,
				bd[j*ac:j*ac+ac],
				bd[(j+1)*ac:(j+1)*ac+ac],
				bd[(j+2)*ac:(j+2)*ac+ac],
				bd[(j+3)*ac:(j+3)*ac+ac])
		}
		for ; j < b.Rows; j++ {
			dstRow[j] = dot(aRow, bd[j*ac:j*ac+ac])
		}
	}
}
