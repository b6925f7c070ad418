package nn

import (
	"math/rand"
	"testing"
)

func TestWorkspaceReuseAndGrowth(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Take(4, 4)
	if a.Rows != 4 || a.Cols != 4 || len(a.Data) != 16 {
		t.Fatalf("Take shape: %dx%d len %d", a.Rows, a.Cols, len(a.Data))
	}
	b := ws.Take(2, 2)
	if &a.Data[0] == &b.Data[0] {
		t.Fatal("distinct takes within one cycle must not alias")
	}
	ws.Reset()
	c := ws.Take(3, 5)
	if &c.Data[0] != &a.Data[0] {
		t.Error("after Reset the first take should reuse the first slot's storage")
	}
	// Growth reallocates only the outgrown slot.
	ws.Reset()
	d := ws.Take(100, 100)
	if len(d.Data) != 10000 {
		t.Fatalf("grown take len %d", len(d.Data))
	}
}

func TestWorkspaceTakeInts(t *testing.T) {
	ws := NewWorkspace()
	s := ws.TakeInts(5)
	if len(s) != 5 {
		t.Fatalf("TakeInts len %d", len(s))
	}
	s2 := ws.TakeInts(3)
	s2[0] = 7
	if s[0] == 7 && &s[0] == &s2[0] {
		t.Fatal("distinct int takes must not alias")
	}
	ws.Reset()
	if got := ws.TakeInts(4); len(got) != 4 {
		t.Fatalf("post-reset TakeInts len %d", len(got))
	}
}

func TestNilWorkspaceFallsBackToAllocation(t *testing.T) {
	var ws *Workspace
	m := ws.Take(2, 3)
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("nil Take shape %dx%d", m.Rows, m.Cols)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("nil Take should be zeroed (NewMatrix semantics)")
		}
	}
	if got := ws.TakeInts(4); len(got) != 4 {
		t.Fatalf("nil TakeInts len %d", len(got))
	}
	ws.Reset() // must not panic
}

// TestWorkspaceForwardAllocationFree locks in the tentpole property: a
// warmed workspace serves a full fused forward/backward pass with zero
// allocations.
func TestWorkspaceForwardAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDense(rng, 32, 16)
	x := NewMatrix(8, 32)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	dy := NewMatrix(8, 16)
	for i := range dy.Data {
		dy.Data[i] = rng.NormFloat64()
	}
	ws := NewWorkspace()
	run := func() {
		ws.Reset()
		y := d.ForwardReLU(ws, x)
		d.BackwardReLU(ws, x, y, dy, true)
	}
	run() // warm the arena
	if n := testing.AllocsPerRun(20, run); n > 0 {
		t.Errorf("fused pass allocates %v times per run on a warmed workspace", n)
	}
}

func TestWorkspacePool(t *testing.T) {
	ws := GetWorkspace()
	ws.Take(4, 4)
	PutWorkspace(ws) // resets before pooling
	w2 := GetWorkspace()
	m := w2.Take(2, 2)
	_ = m
	PutWorkspace(w2)
	PutWorkspace(nil) // must not panic
}

// TestBuildSetBatchWSZeroPadsShortVectors pins the defined behavior for
// undersized element vectors on recycled storage: the tail is zero, exactly
// as the allocating path has always produced.
func TestBuildSetBatchWSZeroPadsShortVectors(t *testing.T) {
	ws := NewWorkspace()
	dirty := ws.Take(2, 4)
	for i := range dirty.Data {
		dirty.Data[i] = 99
	}
	ws.Reset()
	b := batchOf(ws, [][][]float64{{{1, 2}}, {{3}}}, 4)
	want := []float64{1, 2, 0, 0, 3, 0, 0, 0}
	for i, v := range want {
		if b.X.Data[i] != v {
			t.Fatalf("X[%d] = %v, want %v (stale arena values leaked)", i, b.X.Data[i], v)
		}
	}
}
