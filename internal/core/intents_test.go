package core

import (
	"testing"

	"repro/internal/punct"
	"repro/internal/stream"
)

func desiredSeg(seg int64) Feedback {
	return NewDesired(punct.OnAttr(2, 0, punct.Eq(stream.Int(seg))))
}

func TestCheckDesiredReorderingIsCorrect(t *testing.T) {
	ref := []stream.Tuple{tup(1, 10), tup(2, 20), tup(1, 30), tup(2, 40)}
	// Exploited run: segment-2 tuples promoted to the front, set intact.
	actual := []stream.Tuple{tup(2, 20), tup(2, 40), tup(1, 10), tup(1, 30)}
	rep := CheckDesired(ref, actual, desiredSeg(2))
	if !rep.OK() || rep.Err() != nil {
		t.Fatalf("pure reorder must be correct: %+v", rep)
	}
	if rep.SubsetCount == 0 || rep.MeanRankActual >= rep.MeanRankRef {
		t.Errorf("promotion should improve mean rank: ref %.1f actual %.1f",
			rep.MeanRankRef, rep.MeanRankActual)
	}
}

func TestCheckDesiredDroppingIsIncorrect(t *testing.T) {
	ref := []stream.Tuple{tup(1, 10), tup(2, 20)}
	actual := []stream.Tuple{tup(2, 20)} // desired must never drop
	rep := CheckDesired(ref, actual, desiredSeg(2))
	if rep.OK() {
		t.Fatal("dropping a tuple under desired feedback must be incorrect")
	}
}

func TestCheckDesiredAddingIsIncorrect(t *testing.T) {
	ref := []stream.Tuple{tup(1, 10)}
	actual := []stream.Tuple{tup(1, 10), tup(2, 99)}
	if CheckDesired(ref, actual, desiredSeg(2)).OK() {
		t.Fatal("inventing tuples under desired feedback must be incorrect")
	}
}

func TestCheckDesiredNullResponse(t *testing.T) {
	ref := []stream.Tuple{tup(1, 10), tup(2, 20)}
	rep := CheckDesired(ref, ref, desiredSeg(2))
	if !rep.OK() || rep.MeanRankActual < rep.MeanRankRef {
		t.Error("null response: correct but not an improvement")
	}
}

func TestCheckDemandedPartialsLicensed(t *testing.T) {
	f := NewDemanded(punct.OnAttr(2, 0, punct.Eq(stream.Int(1))))
	ref := []stream.Tuple{tup(1, 100), tup(2, 200)}
	// Actual: an early partial for the demanded subset, then the exact
	// results.
	actual := []stream.Tuple{tup(1, 50), tup(1, 100), tup(2, 200)}
	rep := CheckDemanded(ref, actual, f)
	if !rep.OK() || rep.Partials != 1 {
		t.Fatalf("licensed partial: %+v", rep)
	}
}

func TestCheckDemandedViolations(t *testing.T) {
	f := NewDemanded(punct.OnAttr(2, 0, punct.Eq(stream.Int(1))))
	ref := []stream.Tuple{tup(1, 100), tup(2, 200)}
	// Missing an exact result.
	rep := CheckDemanded(ref, []stream.Tuple{tup(1, 100)}, f)
	if rep.OK() || len(rep.Missing) != 1 {
		t.Fatalf("missing exact result must fail: %+v", rep)
	}
	// Extra outside the demanded subset.
	rep = CheckDemanded(ref, []stream.Tuple{tup(1, 100), tup(2, 200), tup(2, 999)}, f)
	if rep.OK() || len(rep.BadExtras) != 1 {
		t.Fatalf("unlicensed extra must fail: %+v", rep)
	}
}
