package nn

import (
	"math"
	"math/rand"
)

// Param is one trainable tensor: weights, accumulated gradient and Adam
// moment estimates, all sharing the tensor's shape.
type Param struct {
	Rows, Cols int
	W          []float64
	Grad       []float64
	M, V       []float64 // Adam first/second moment estimates
}

// NewParam allocates a zeroed parameter tensor.
func NewParam(rows, cols int) *Param {
	n := rows * cols
	return &Param{
		Rows: rows, Cols: cols,
		W:    make([]float64, n),
		Grad: make([]float64, n),
		M:    make([]float64, n),
		V:    make([]float64, n),
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// HeInit fills the parameter with He-normal initial weights, the standard
// initialization for ReLU networks.
func (p *Param) HeInit(rng *rand.Rand, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	for i := range p.W {
		p.W[i] = rng.NormFloat64() * std
	}
}

// Dense is a fully-connected layer: y = x·W + b.
type Dense struct {
	In, Out int
	W, B    *Param

	// wView and gView are prebuilt matrix views over W.W and W.Grad
	// (updated in place, so the backing slices never move): handing the
	// kernels &wView instead of a fresh composite literal keeps the hot
	// paths free of per-call escape allocations.
	wView, gView Matrix
}

// NewDense creates a dense layer with He-initialized weights and zero bias.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	d := &Dense{In: in, Out: out, W: NewParam(in, out), B: NewParam(1, out)}
	d.W.HeInit(rng, in)
	d.wView = Matrix{Rows: in, Cols: out, Data: d.W.W}
	d.gView = Matrix{Rows: in, Cols: out, Data: d.W.Grad}
	return d
}

// weights returns the weight tensor as a matrix view (shared storage).
func (d *Dense) weights() *Matrix { return &d.wView }

// gradW returns the weight gradient as a matrix view (shared storage).
func (d *Dense) gradW() *Matrix { return &d.gView }

// Forward computes y = x·W + b for a batch x (n×In) into a workspace
// buffer and returns y (n×Out).
func (d *Dense) Forward(ws *Workspace, x *Matrix) *Matrix {
	y := ws.Take(x.Rows, d.Out)
	MatMul(y, x, d.weights())
	bias := d.B.W
	for i := 0; i < y.Rows; i++ {
		row := y.Row(i)[:len(bias)]
		for j, b := range bias {
			row[j] += b
		}
	}
	return y
}

// ForwardReLU computes y = max(0, x·W + b) in one fused pass: the bias add
// and the activation run over the matmul output while it is still hot in
// cache, and no intermediate pre-activation matrix is materialized. The
// output values are bit-identical to ReLUForward(ws, Forward(ws, x)).
func (d *Dense) ForwardReLU(ws *Workspace, x *Matrix) *Matrix {
	y := ws.Take(x.Rows, d.Out)
	MatMul(y, x, d.weights())
	bias := d.B.W
	for i := 0; i < y.Rows; i++ {
		addBiasReLU(y.Row(i)[:len(bias)], bias)
	}
	return y
}

// Backward accumulates dW += xᵀ·dy and db += Σ dy, and returns
// dx = dy·Wᵀ. x must be the input that produced dy's forward pass. dW
// accumulates straight into W.Grad (no intermediate gradient matrix); when
// needDX is false the input gradient — dead weight for a first layer — is
// skipped entirely and nil is returned.
func (d *Dense) Backward(ws *Workspace, x, dy *Matrix, needDX bool) *Matrix {
	MatMulTransAAcc(d.gradW(), x, dy)
	db := d.B.Grad
	for i := 0; i < dy.Rows; i++ {
		// FMA with multiplier 1 rounds like a plain add, so this stays
		// bit-identical to the scalar accumulation whatever was dispatched.
		axpy(db, 1, dy.Row(i))
	}
	if !needDX {
		return nil
	}
	dx := ws.Take(x.Rows, d.In)
	MatMulTransB(dx, dy, d.weights())
	return dx
}

// BackwardReLU backpropagates through the fused ForwardReLU: y must be the
// fused output, dy the gradient w.r.t. y. The ReLU mask is applied into a
// scratch buffer (dy is left untouched) and the dense backward follows.
func (d *Dense) BackwardReLU(ws *Workspace, x, y, dy *Matrix, needDX bool) *Matrix {
	return d.Backward(ws, x, ReLUBackward(ws, dy, y), needDX)
}

// Params returns the layer's trainable tensors.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// NumParams returns the number of scalar parameters.
func (d *Dense) NumParams() int { return d.In*d.Out + d.Out }

// ReLUForward applies max(0,x) elementwise into a workspace buffer.
func ReLUForward(ws *Workspace, x *Matrix) *Matrix {
	y := ws.Take(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
		} else {
			y.Data[i] = 0
		}
	}
	return y
}

// ReLUBackward masks dy by the activation pattern of the forward output y.
func ReLUBackward(ws *Workspace, dy, y *Matrix) *Matrix {
	dx := ws.Take(dy.Rows, dy.Cols)
	reluMask(dx.Data, dy.Data, y.Data)
	return dx
}

// SigmoidForward applies 1/(1+e^-x) elementwise into a workspace buffer.
func SigmoidForward(ws *Workspace, x *Matrix) *Matrix {
	y := ws.Take(x.Rows, x.Cols)
	for i, v := range x.Data {
		y.Data[i] = 1 / (1 + math.Exp(-v))
	}
	return y
}

// SigmoidBackward computes dx = dy ⊙ y(1-y) from the forward output y.
func SigmoidBackward(ws *Workspace, dy, y *Matrix) *Matrix {
	dx := ws.Take(dy.Rows, dy.Cols)
	yd := y.Data[:len(dx.Data)]
	dyd := dy.Data[:len(dx.Data)]
	for i := range dx.Data {
		v := yd[i]
		dx.Data[i] = dyd[i] * v * (1 - v)
	}
	return dx
}

// SetBatch is a batch of variable-size sets of feature vectors, stored as
// one concatenated matrix plus per-sample offsets: sample i owns rows
// Offsets[i]:Offsets[i+1] of X. Every set must be non-empty (a query always
// has at least one table, §3.2.1).
type SetBatch struct {
	X       *Matrix
	Offsets []int
}

// NumSamples returns the number of sets in the batch.
func (b SetBatch) NumSamples() int { return len(b.Offsets) - 1 }

// BuildSetBatch concatenates the element vectors of n sets — set(i) is
// sample i's — into a SetBatch backed by workspace buffers. Vectors shorter
// than dim are zero-padded.
func BuildSetBatch(ws *Workspace, n, dim int, set func(i int) [][]float64) SetBatch {
	total := 0
	for i := 0; i < n; i++ {
		total += len(set(i))
	}
	x := ws.Take(total, dim)
	offsets := ws.TakeInts(n + 1)
	row := 0
	for i := 0; i < n; i++ {
		offsets[i] = row
		for _, v := range set(i) {
			dst := x.Row(row)
			// Zero-pad short vectors: recycled storage would otherwise
			// leak a previous batch's values into the tail.
			for k := copy(dst, v); k < len(dst); k++ {
				dst[k] = 0
			}
			row++
		}
	}
	offsets[n] = row
	return SetBatch{X: x, Offsets: offsets}
}

// SetEncoder is a per-set module with average pooling: every element
// vector passes through a stack of Dense+ReLU layers, and the last layer's
// outputs are averaged over the set. At depth 1 it is the paper's MLPi
// (§3.2.2), Qvec = 1/|V| Σ ReLU(v·U + b); MSCN's set modules are depth 2
// (Kipf et al. §4).
type SetEncoder struct {
	Layers []*Dense
}

// NewSetEncoder builds an encoder with the given layer widths: dims[0] is
// the element dimension, dims[len-1] the pooled output width, and every
// adjacent pair is one layer.
func NewSetEncoder(rng *rand.Rand, dims ...int) *SetEncoder {
	if len(dims) < 2 {
		panic("nn: SetEncoder needs at least input and output dims")
	}
	e := &SetEncoder{}
	for i := 0; i+1 < len(dims); i++ {
		e.Layers = append(e.Layers, NewDense(rng, dims[i], dims[i+1]))
	}
	return e
}

// Forward returns the pooled per-sample representations (n×Out), with
// every layer's dense product and ReLU fused and all outputs taken from the
// workspace. acts, when non-nil, must have one slot per layer and receives
// each layer's per-element activations, the intermediates Backward needs.
func (e *SetEncoder) Forward(ws *Workspace, b SetBatch, acts []*Matrix) (pooled *Matrix) {
	x := b.X
	for i, l := range e.Layers {
		x = l.ForwardReLU(ws, x)
		if acts != nil {
			acts[i] = x
		}
	}
	n := b.NumSamples()
	pooled = ws.Take(n, x.Cols)
	for i := 0; i < n; i++ {
		lo, hi := b.Offsets[i], b.Offsets[i+1]
		out := pooled.Row(i)
		if hi == lo {
			for j := range out {
				out[j] = 0 // empty set pools to zero
			}
			continue
		}
		copy(out, x.Row(lo))
		for r := lo + 1; r < hi; r++ {
			axpy(out, 1, x.Row(r)) // multiplier 1: bit-identical to +=
		}
		inv := 1 / float64(hi-lo)
		for j := range out {
			out[j] *= inv
		}
	}
	return pooled
}

// Backward propagates dPooled (n×Out) through the pooling and every layer,
// accumulating parameter gradients. acts must come from Forward on the same
// batch. The pooling spread and the last ReLU mask are fused into one pass,
// and the input gradient — the encoder is the first layer, so nothing
// consumes it — is never computed.
func (e *SetEncoder) Backward(ws *Workspace, b SetBatch, acts []*Matrix, dPooled *Matrix) {
	last := len(e.Layers) - 1
	top := acts[last]
	dPre := ws.Take(top.Rows, top.Cols)
	for i := 0; i < b.NumSamples(); i++ {
		lo, hi := b.Offsets[i], b.Offsets[i+1]
		if hi == lo {
			continue
		}
		inv := 1 / float64(hi-lo)
		src := dPooled.Row(i)
		for r := lo; r < hi; r++ {
			act := top.Row(r)[:len(src)]
			dst := dPre.Row(r)[:len(src)]
			for j, v := range src {
				if act[j] > 0 {
					dst[j] = v * inv
				} else {
					dst[j] = 0
				}
			}
		}
	}
	input := func(i int) *Matrix {
		if i == 0 {
			return b.X
		}
		return acts[i-1]
	}
	d := e.Layers[last].Backward(ws, input(last), dPre, last > 0)
	for i := last - 1; i >= 0; i-- {
		d = e.Layers[i].BackwardReLU(ws, input(i), acts[i], d, i > 0)
	}
}

// Params returns the trainable tensors of all layers.
func (e *SetEncoder) Params() []*Param {
	var out []*Param
	for _, l := range e.Layers {
		out = append(out, l.Params()...)
	}
	return out
}
