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
