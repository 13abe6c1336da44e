package core

import (
	"testing"

	"repro/internal/punct"
	"repro/internal/stream"
)

var fbSchema = stream.MustSchema(
	stream.F("segment", stream.KindInt),
	stream.F("ts", stream.KindTime),
	stream.F("speed", stream.KindFloat),
)

func TestIntentNotation(t *testing.T) {
	cases := []struct {
		i     Intent
		sigil string
		name  string
	}{
		{Assumed, "¬", "assumed"},
		{Desired, "?", "desired"},
		{Demanded, "!", "demanded"},
	}
	for _, tc := range cases {
		if tc.i.Sigil() != tc.sigil || tc.i.String() != tc.name {
			t.Errorf("intent %v: sigil %q name %q", tc.i, tc.i.Sigil(), tc.i.String())
		}
	}
}

func TestFeedbackStringParseRoundTrip(t *testing.T) {
	for _, s := range []string{
		"¬[*, <=1970-01-01T00:00:00.000100Z, *]",
		"?[7, *, *]",
		"![*, *, >=50]",
	} {
		f, err := ParseFeedback(s, fbSchema)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		back, err := ParseFeedback(f.String(), fbSchema)
		if err != nil {
			t.Fatalf("reparse %q: %v", f.String(), err)
		}
		if back.Intent != f.Intent || !back.Pattern.Equal(f.Pattern) {
			t.Errorf("round trip %q → %q", s, f.String())
		}
	}
	if _, err := ParseFeedback("[*, *, *]", fbSchema); err == nil {
		t.Error("missing sigil must fail")
	}
	if _, err := ParseFeedback("", fbSchema); err == nil {
		t.Error("empty feedback must fail")
	}
}

func TestFeedbackRelayedPreservesIdentity(t *testing.T) {
	f := NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(3))))
	f.Origin, f.Seq = "pace", 7
	g := f.Relayed(punct.OnAttr(2, 0, punct.Eq(stream.Int(3))))
	if g.Origin != "pace" || g.Seq != 7 || g.Hops != 1 {
		t.Errorf("relay metadata: %+v", g)
	}
	if f.Hops != 0 {
		t.Error("Relayed must not mutate the original")
	}
}

func TestFeedbackMatches(t *testing.T) {
	f := NewAssumed(punct.OnAttr(3, 2, punct.Ge(stream.Float(50))))
	fast := stream.NewTuple(stream.Int(1), stream.TimeMicros(0), stream.Float(60))
	slow := stream.NewTuple(stream.Int(1), stream.TimeMicros(0), stream.Float(40))
	if !f.Matches(fast) || f.Matches(slow) {
		t.Error("Matches")
	}
}
