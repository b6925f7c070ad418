package telemetry

import (
	"fmt"
	"hash/maphash"
	"testing"
)

var testSeed = maphash.MakeSeed()

// hashOf is the key hash Note and Truth take (query.Query.KeyHash in the
// estimator).
func hashOf(key string) uint64 { return maphash.String(testSeed, key) }

func TestAccuracyJoinAndArms(t *testing.T) {
	tel := New()
	a := tel.Accuracy
	a.Note("q1", hashOf("q1"), 100, ArmCRN)
	a.Note("q2", hashOf("q2"), 10, ArmFallback)
	a.Truth("q1", hashOf("q1"), 200)       // q-error 2 on the CRN arm
	a.Truth("q2", hashOf("q2"), 1000)      // q-error 100 on the fallback arm
	a.Truth("q-gone", hashOf("q-gone"), 5) // no recent estimate
	if j := a.joined.Load(); j != 2 {
		t.Fatalf("joined %d, want 2", j)
	}
	if u := a.unmatched.Load(); u != 1 {
		t.Fatalf("unmatched %d, want 1", u)
	}
	crn := a.Hist(ArmCRN).Snapshot()
	fb := a.Hist(ArmFallback).Snapshot()
	if crn.Total() != 1 || fb.Total() != 1 {
		t.Fatalf("arm totals crn=%d fb=%d, want 1/1", crn.Total(), fb.Total())
	}
	if q := crn.Quantile(0.5); q < 2/1.25 || q > 2*1.25 {
		t.Fatalf("crn arm q-error %v, want ≈2", q)
	}
	if q := fb.Quantile(0.5); q < 100/1.25 || q > 100*1.25 {
		t.Fatalf("fallback arm q-error %v, want ≈100", q)
	}
	// A truth is consumed: the second arrival is unmatched.
	a.Truth("q1", hashOf("q1"), 200)
	if u := a.unmatched.Load(); u != 2 {
		t.Fatalf("unmatched after re-truth %d, want 2", u)
	}
}

func TestAccuracyOverwriteAndEviction(t *testing.T) {
	tel := New()
	a := tel.Accuracy
	// Overwrite: the join sees the newest estimate for a key.
	a.Note("q", hashOf("q"), 10, ArmCRN)
	a.Note("q", hashOf("q"), 1000, ArmFallback)
	a.Truth("q", hashOf("q"), 1000)
	if fb := a.Hist(ArmFallback).Snapshot().Total(); fb != 1 {
		t.Fatalf("overwritten estimate not joined on newest arm (fb=%d)", fb)
	}
	if q := a.Hist(ArmFallback).Snapshot().Quantile(0.5); q > 1.25 {
		t.Fatalf("overwritten estimate q-error %v, want ≈1", q)
	}
	// Bounded ring: flooding 2× the slot count keeps at most one joinable
	// estimate per slot — colliding notes overwrite.
	joinedBefore := a.joined.Load()
	const flood = accuracySlots * 2
	for i := 0; i < flood; i++ {
		k := fmt.Sprintf("flood-%d", i)
		a.Note(k, hashOf(k), 1, ArmCRN)
	}
	for i := 0; i < flood; i++ {
		k := fmt.Sprintf("flood-%d", i)
		a.Truth(k, hashOf(k), 1)
	}
	joined := a.joined.Load() - joinedBefore
	if joined > accuracySlots {
		t.Fatalf("joined %d of %d floods, ring bound is %d slots", joined, flood, accuracySlots)
	}
	if a.unmatched.Load() == 0 {
		t.Fatal("flooding past the ring bound must overwrite some estimates")
	}
}

// TestQError: Truth observes the cardinality q-error (metrics.CardQError),
// with both sides clamped to one row.
func TestQError(t *testing.T) {
	cases := []struct {
		est, truth, want float64
	}{
		{100, 100, 1},
		{50, 100, 2},
		{200, 100, 2},
		{0, 100, 100}, // zero clamps to 1
		{100, 0, 100},
		{0, 0, 1},
	}
	for _, c := range cases {
		a := New().Accuracy
		a.Note("k", hashOf("k"), c.est, ArmCRN)
		a.Truth("k", hashOf("k"), c.truth)
		snap := a.Hist(ArmCRN).Snapshot()
		if q := snap.Quantile(0.5); snap.Total() != 1 || q < c.want/1.25 || q > c.want*1.25 {
			t.Errorf("Truth(est %v, truth %v) observed %v (%d samples), want ≈%v", c.est, c.truth, q, snap.Total(), c.want)
		}
	}
	var a *Accuracy
	a.Note("k", hashOf("k"), 1, ArmCRN) // nil-safe
	a.Truth("k", hashOf("k"), 1)
	if a.Hist(ArmCRN) != nil {
		t.Fatal("nil tracker must hand out nil histograms")
	}
}
