package nn

import "sync"

// Workspace is a reusable scratch arena for forward/backward passes. Instead
// of allocating fresh matrices per batch, kernels take buffers from a
// workspace; Reset recycles every buffer for the next batch, so a training
// run or serving loop converges to zero allocations per call once the arena
// has grown to the largest batch shape seen.
//
// The contract: matrices returned by Take are valid until the next Reset,
// may contain garbage (callers must fully overwrite them), and
// must not be retained across Reset. A Workspace is NOT safe for concurrent
// use — give each goroutine its own (GetWorkspace/PutWorkspace pool them).
//
// All Take methods are nil-safe: a nil *Workspace degrades to plain
// allocation, so every workspace-threaded code path doubles as the
// allocating fallback.
type Workspace struct {
	mats     []*Matrix
	nextMat  int
	ints     [][]int
	nextInts int
}

// NewWorkspace creates an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reset recycles every buffer handed out since the last Reset. Previously
// returned matrices and slices become invalid (their storage is reused).
func (w *Workspace) Reset() {
	if w == nil {
		return
	}
	w.nextMat = 0
	w.nextInts = 0
}

// Take returns a rows×cols matrix backed by recycled storage. Contents are
// unspecified; callers must overwrite every element they read.
func (w *Workspace) Take(rows, cols int) *Matrix {
	if w == nil {
		return NewMatrix(rows, cols)
	}
	var m *Matrix
	if w.nextMat < len(w.mats) {
		m = w.mats[w.nextMat]
	} else {
		m = &Matrix{}
		w.mats = append(w.mats, m)
	}
	w.nextMat++
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// TakeInts returns a recycled int slice of length n (contents unspecified).
func (w *Workspace) TakeInts(n int) []int {
	if w == nil {
		return make([]int, n)
	}
	var s []int
	if w.nextInts < len(w.ints) {
		s = w.ints[w.nextInts]
	} else {
		w.ints = append(w.ints, nil)
	}
	if cap(s) < n {
		s = make([]int, n)
	}
	s = s[:n]
	w.ints[w.nextInts] = s
	w.nextInts++
	return s
}

// wsPool backs GetWorkspace/PutWorkspace so concurrent serving paths can
// borrow a private arena per request without allocating one each time.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// GetWorkspace borrows a workspace from the shared pool.
func GetWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// PutWorkspace resets a workspace and returns it to the shared pool. The
// caller must not use it (or any matrix taken from it) afterwards.
func PutWorkspace(w *Workspace) {
	if w == nil {
		return
	}
	w.Reset()
	wsPool.Put(w)
}
