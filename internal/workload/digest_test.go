package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"crn/internal/exec"
	"crn/internal/query"
)

// workloadDigest is the sha256 TestWorkloadDigest computes. A change that
// deliberately alters what the offline pipeline draws (a new rng call, a
// different attempt budget, a filter on the training labels) updates it in
// the same diff; any other change must leave it alone.
const workloadDigest = "b39560cc553f0237170b93d1dc7096db3eebbef9aa00d55b2b60c353c3888985"

// TestWorkloadDigest pins every offline drawer bit for bit: the SQL and
// labels of a labeled cnt_test2 pair set, a crd_test1 query set, non-empty
// crd_test2 sets from the training and the scale generator, a non-empty
// pool and one training set, hashed in that order.
func TestWorkloadDigest(t *testing.T) {
	d := testDB(t)
	ex, err := exec.New(d)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()

	g := NewGenerator(s, d, 31)
	pairs, err := g.Pairs(CntTest2Dist(60))
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := LabelPairs(ex, pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	hashPairs(h, "cnt_test2", labeled)

	qs, err := g.Queries(CrdTest1Dist(30))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "# crd_test1\n")
	for _, q := range qs {
		fmt.Fprintf(h, "%s\n", q.SQL())
	}

	for _, gen := range []struct {
		name string
		g    *Generator
	}{{"crd_test2", g}, {"scale", NewScaleGenerator(s, d, 32)}} {
		lqs, err := gen.g.NonEmptyQueries(ex, CrdTest2Dist(30))
		if err != nil {
			t.Fatal(err)
		}
		hashQueries(h, gen.name, lqs)
	}

	poolQs, err := NewGenerator(s, d, 33).NonEmptyPoolQueries(ex, 60)
	if err != nil {
		t.Fatal(err)
	}
	hashQueries(h, "pool", poolQs)

	train, val, err := NewGenerator(s, d, 34).TrainingSet(ex, 200, 2, 35)
	if err != nil {
		t.Fatal(err)
	}
	hashPairs(h, "train", train)
	hashPairs(h, "val", val)

	if got := hex.EncodeToString(h.Sum(nil)); got != workloadDigest {
		t.Fatalf("offline workload digest = %s, want %s", got, workloadDigest)
	}
}

// signatureDigest is the sha256 TestSignatureDigest computes. A change that
// deliberately alters how a query's signature is built or scored updates it
// in the same diff; any other change must leave it alone.
const signatureDigest = "1459d60f1ea959554da2def0f6dc02117427680058d9072fe356c0b5c0462506"

// TestSignatureDigest pins top-K candidate ranking bit for bit on drawn
// workloads: the PatternKey and the big-endian range bounds (Lo, Hi per
// range) of every query of a non-empty pool and a non-empty crd_test2 probe
// set, then Similarity's bits for every ordered pair of those queries (probe
// first), hashed in that order.
func TestSignatureDigest(t *testing.T) {
	d := testDB(t)
	ex, err := exec.New(d)
	if err != nil {
		t.Fatal(err)
	}
	poolQs, err := NewGenerator(s, d, 33).NonEmptyPoolQueries(ex, 60)
	if err != nil {
		t.Fatal(err)
	}
	probes, err := NewGenerator(s, d, 31).NonEmptyQueries(ex, CrdTest2Dist(30))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var sigs []query.Signature
	for _, lq := range append(poolQs, probes...) {
		sig := lq.Q.Signature()
		var bounds []byte
		for _, r := range sig.Ranges {
			bounds = binary.BigEndian.AppendUint64(bounds, uint64(r.Lo))
			bounds = binary.BigEndian.AppendUint64(bounds, uint64(r.Hi))
		}
		fmt.Fprintf(h, "%x\t%x\n", sig.PatternKey(), bounds)
		sigs = append(sigs, sig)
	}
	var bits [8]byte
	for _, probe := range sigs {
		for _, old := range sigs {
			binary.BigEndian.PutUint64(bits[:], math.Float64bits(probe.Similarity(&old)))
			h.Write(bits[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != signatureDigest {
		t.Fatalf("signature digest = %s, want %s", got, signatureDigest)
	}
}

func hashPairs(h hash.Hash, name string, ps []LabeledPair) {
	fmt.Fprintf(h, "# %s\n", name)
	for _, p := range ps {
		fmt.Fprintf(h, "%s\t%s\t%.17g\n", p.Q1.SQL(), p.Q2.SQL(), p.Rate)
	}
}

func hashQueries(h hash.Hash, name string, qs []LabeledQuery) {
	fmt.Fprintf(h, "# %s\n", name)
	for _, q := range qs {
		fmt.Fprintf(h, "%s\t%d\n", q.Q.SQL(), q.Card)
	}
}
