package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
)

// ParamSnapshot is the serializable state of one parameter tensor. Only the
// weights are persisted; optimizer state is training-session local.
type ParamSnapshot struct {
	Rows, Cols int
	W          []float64
}

// Snapshot captures the parameter's weights.
func (p *Param) Snapshot() ParamSnapshot {
	return ParamSnapshot{Rows: p.Rows, Cols: p.Cols, W: append([]float64(nil), p.W...)}
}

// SnapshotInto is Snapshot reusing a previous snapshot's buffer when the
// capacity fits — best-weights tracking during training snapshots every
// improving epoch, and reuse keeps that allocation-free after the first.
func (p *Param) SnapshotInto(prev ParamSnapshot) ParamSnapshot {
	w := prev.W
	if cap(w) < len(p.W) {
		w = make([]float64, len(p.W))
	}
	w = w[:len(p.W)]
	copy(w, p.W)
	return ParamSnapshot{Rows: p.Rows, Cols: p.Cols, W: w}
}

// Restore loads weights from a snapshot; shapes must match.
func (p *Param) Restore(s ParamSnapshot) error {
	if s.Rows != p.Rows || s.Cols != p.Cols {
		return fmt.Errorf("nn: snapshot shape %dx%d does not match parameter %dx%d",
			s.Rows, s.Cols, p.Rows, p.Cols)
	}
	copy(p.W, s.W)
	return nil
}

// EncodeParams serializes a parameter list with encoding/gob.
func EncodeParams(params []*Param) ([]byte, error) {
	snaps := make([]ParamSnapshot, len(params))
	for i, p := range params {
		snaps[i] = p.Snapshot()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snaps); err != nil {
		return nil, fmt.Errorf("nn: encode params: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeParams restores a parameter list serialized by EncodeParams; the
// target list must have the same length and shapes.
func DecodeParams(data []byte, params []*Param) error {
	var snaps []ParamSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snaps); err != nil {
		return fmt.Errorf("nn: decode params: %w", err)
	}
	if len(snaps) != len(params) {
		return fmt.Errorf("nn: snapshot has %d tensors, model has %d", len(snaps), len(params))
	}
	for i, s := range snaps {
		if err := params[i].Restore(s); err != nil {
			return err
		}
	}
	return nil
}

// NumParams sums the scalar parameter counts of a parameter list.
func NumParams(params []*Param) int {
	n := 0
	for _, p := range params {
		n += len(p.W)
	}
	return n
}

// Shuffle returns a permutation of [0,n) drawn from rng; training loops use
// it to reorder samples between epochs deterministically.
func Shuffle(rng *rand.Rand, n int) []int {
	perm := rng.Perm(n)
	return perm
}

// Batches splits indices into contiguous mini-batches of at most batchSize.
func Batches(indices []int, batchSize int) [][]int {
	if batchSize <= 0 {
		batchSize = len(indices)
	}
	var out [][]int
	for lo := 0; lo < len(indices); lo += batchSize {
		hi := lo + batchSize
		if hi > len(indices) {
			hi = len(indices)
		}
		out = append(out, indices[lo:hi])
	}
	return out
}
