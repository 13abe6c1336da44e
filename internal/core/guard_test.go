package core

import (
	"fmt"
	"testing"

	"repro/internal/punct"
	"repro/internal/stream"
)

func ts(us int64) stream.Value { return stream.TimeMicros(us) }

func TestGuardTableSuppress(t *testing.T) {
	g := NewGuardTable(2)
	g.Install(NewAssumed(punct.OnAttr(2, 0, punct.Le(ts(100)))))
	if !g.Suppress(stream.NewTuple(ts(50), stream.Float(1))) {
		t.Error("tuple in the subset must be suppressed")
	}
	if g.Suppress(stream.NewTuple(ts(150), stream.Float(1))) {
		t.Error("tuple outside the subset must pass")
	}
	if g.Active() != 1 || !g.Suppress(stream.NewTuple(ts(100), stream.Float(1))) {
		t.Errorf("a probe must leave the guard in place: active = %d", g.Active())
	}
}

func TestGuardTableSubsumption(t *testing.T) {
	g := NewGuardTable(2)
	if !g.Install(NewAssumed(punct.OnAttr(2, 0, punct.Le(ts(100))))) {
		t.Error("first install must change the table")
	}
	// Narrower guard: redundant, table unchanged.
	if g.Install(NewAssumed(punct.OnAttr(2, 0, punct.Le(ts(50))))) {
		t.Error("subsumed guard must be a no-op")
	}
	if g.Active() != 1 {
		t.Errorf("active = %d", g.Active())
	}
	// Wider guard: replaces the old one.
	if !g.Install(NewAssumed(punct.OnAttr(2, 0, punct.Le(ts(200))))) {
		t.Error("wider guard must install")
	}
	if g.Active() != 1 {
		t.Errorf("active after widen = %d (old guard should be merged away)", g.Active())
	}
	if !g.Suppress(stream.NewTuple(ts(150), stream.Float(1))) || g.Suppress(stream.NewTuple(ts(250), stream.Float(1))) {
		t.Error("the wider guard must decide what is suppressed")
	}
}

func TestGuardTableExpiration(t *testing.T) {
	// §4.4: once embedded punctuation covers the feedback predicate, the
	// guard holds no information and must be released.
	g := NewGuardTable(2)
	g.Install(NewAssumed(punct.OnAttr(2, 0, punct.Le(ts(100)))))
	g.ObservePunct(punct.NewEmbedded(punct.OnAttr(2, 0, punct.Le(ts(50)))))
	if g.Active() != 1 || !g.Suppress(stream.NewTuple(ts(75), stream.Float(1))) {
		t.Error("guard must survive a weaker punctuation")
	}
	g.ObservePunct(punct.NewEmbedded(punct.OnAttr(2, 0, punct.Le(ts(100)))))
	if g.Active() != 0 || g.Suppress(stream.NewTuple(ts(75), stream.Float(1))) {
		t.Error("guard must be released when covered")
	}
}

func TestGuardTableMultipleDisjointGuards(t *testing.T) {
	g := NewGuardTable(1)
	g.Install(NewAssumed(punct.OnAttr(1, 0, punct.Eq(stream.Int(1)))))
	g.Install(NewAssumed(punct.OnAttr(1, 0, punct.Eq(stream.Int(2)))))
	if g.Active() != 2 {
		t.Errorf("active = %d", g.Active())
	}
	if !g.Suppress(stream.NewTuple(stream.Int(1))) || !g.Suppress(stream.NewTuple(stream.Int(2))) {
		t.Error("both guards must fire")
	}
	if g.Suppress(stream.NewTuple(stream.Int(3))) {
		t.Error("unguarded value must pass")
	}
	// Exact-value punctuation releases only the matching guard.
	g.ObservePunct(punct.NewEmbedded(punct.OnAttr(1, 0, punct.Eq(stream.Int(1)))))
	if g.Active() != 1 {
		t.Errorf("active after partial expiration = %d", g.Active())
	}
	if g.Suppress(stream.NewTuple(stream.Int(1))) {
		t.Error("expired guard must not fire")
	}
	if !g.Suppress(stream.NewTuple(stream.Int(2))) {
		t.Error("remaining guard must still fire")
	}
}

// A feedback over another schema (a hostile remote frame) is refused, and
// the probe neither suppresses a tuple of either arity nor panics.
func TestGuardTableRefusesForeignArity(t *testing.T) {
	g := NewGuardTable(2)
	g.Install(NewAssumed(punct.OnAttr(2, 0, punct.Le(ts(10)))))
	for _, p := range []punct.Pattern{punct.AllWild(3), punct.OnAttr(5, 4, punct.Le(ts(100))), punct.AllWild(0)} {
		if g.Install(NewAssumed(p)) {
			t.Errorf("installed %v into an arity-2 table", p)
		}
	}
	run := []stream.Tuple{stream.NewTuple(ts(50), stream.Float(1)), stream.NewTuple(ts(50)), stream.NewTuple(ts(1), ts(1), ts(1))}
	if g.Active() != 1 || g.Suppress(run[0]) || g.Suppress(run[1]) || g.Suppress(run[2]) {
		t.Errorf("foreign-arity feedback changed what the table suppresses: %v", g.Guards())
	}
}

// BenchmarkGuardTable times the per-tuple guard probe on 32-tuple runs of
// the speed map's shape (segment, detector, ts, speed) against 0, 1, 16 and
// 256 live guards of the viewer's shape ¬[≠segment, *, ts range, *]. About
// one tuple in six falls in a guard's time range.
func BenchmarkGuardTable(b *testing.B) {
	for _, n := range []int{0, 1, 16, 256} {
		g := NewGuardTable(4)
		for k := 0; k < n; k++ {
			g.Install(NewAssumed(punct.NewPattern(punct.Ne(stream.Int(int64(k%8))), punct.Wild,
				punct.Range(ts(int64(k)*600), ts(int64(k)*600+99)), punct.Wild)))
		}
		run := make([]stream.Tuple, 32)
		for i := range run {
			run[i] = stream.NewTuple(stream.Int(int64(i%8)), stream.Int(1), ts(int64(i)*53*int64(max(n, 1))%(int64(max(n, 1))*600)), stream.Float(40))
		}
		b.Run(fmt.Sprintf("guards=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, t := range run {
					g.Suppress(t)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(run)), "ns/tuple")
		})
	}
}

func TestResponseDid(t *testing.T) {
	r := Response{Actions: []Action{ActGuardInput, ActPropagate}}
	if !r.Did(ActGuardInput) || !r.Did(ActPropagate) || r.Did(ActPurgeState) {
		t.Error("Response.Did")
	}
	for a := ActNone; a <= ActCloseWindows; a++ {
		if a.String() == "action(?)" {
			t.Errorf("missing name for action %d", a)
		}
	}
}
