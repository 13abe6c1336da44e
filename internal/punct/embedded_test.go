package punct

import (
	"math/rand"
	"testing"

	"repro/internal/stream"
)

func le(us int64) Pred { return Le(stream.TimeMicros(us)) }

func TestSchemeWatermarkProgress(t *testing.T) {
	s := NewScheme(3)
	wm, set, _ := s.State()
	s.Observe(NewEmbedded(OnAttr(3, 1, le(100))))
	if set[0] || set[2] {
		t.Error("an attribute no punctuation bounds has no frontier")
	}
	if !set[1] || wm[1] != 100 {
		t.Errorf("frontier after ≤100: %d %v", wm[1], set[1])
	}
	// Regressing punctuation must not move the frontier backwards.
	s.Observe(NewEmbedded(OnAttr(3, 1, le(50))))
	if wm[1] != 100 {
		t.Errorf("frontier regressed: %d", wm[1])
	}
	s.Observe(NewEmbedded(OnAttr(3, 1, Lt(stream.TimeMicros(201)))))
	if wm[1] != 200 {
		t.Errorf("<201 should advance the frontier to 200: %d", wm[1])
	}
}

func TestSchemeCoversPattern(t *testing.T) {
	s := NewScheme(2)
	s.Observe(NewEmbedded(OnAttr(2, 0, le(100))))
	if !s.CoversPattern(OnAttr(2, 0, le(80))) {
		t.Error("feedback below the watermark should be covered")
	}
	if s.CoversPattern(OnAttr(2, 0, le(120))) {
		t.Error("feedback above the watermark must not be covered")
	}
	// Multi-attribute: covering one conjunct suffices.
	multi := NewPattern(le(80), Ge(stream.Float(50)))
	if !s.CoversPattern(multi) {
		t.Error("covering one bound conjunct excludes the whole subset")
	}
}

func TestSchemeClosedValues(t *testing.T) {
	s := NewScheme(2)
	s.Observe(NewEmbedded(OnAttr(2, 0, Eq(stream.Int(4)))))
	if !s.CoversPattern(OnAttr(2, 0, Eq(stream.Int(4)))) {
		t.Error("closed value must cover equal feedback")
	}
	if s.CoversPattern(OnAttr(2, 0, Eq(stream.Int(5)))) {
		t.Error("different value must not be covered")
	}
	s.Observe(NewEmbedded(OnAttr(2, 0, OneOf(stream.Int(7), stream.Int(8)))))
	if !s.CoversPattern(OnAttr(2, 0, OneOf(stream.Int(4), stream.Int(7)))) {
		t.Error("set feedback covered element-wise")
	}
	if s.CoversPattern(OnAttr(2, 0, OneOf(stream.Int(4), stream.Int(9)))) {
		t.Error("partially closed set must not be covered")
	}
}

// Multi-attribute punctuation is a promise like any other: it covers the
// patterns that imply it, and only those.
func TestSchemeRecordsMultiAttributePunct(t *testing.T) {
	s := NewScheme(2)
	s.Observe(NewEmbedded(NewPattern(le(100), Eq(stream.Float(5)))))
	if !s.CoversPattern(NewPattern(le(80), Eq(stream.Float(5)))) {
		t.Error("a pattern implying the punctuation must be covered")
	}
	if s.CoversPattern(OnAttr(2, 0, le(80))) || s.CoversPattern(OnAttr(2, 1, Eq(stream.Float(5)))) {
		t.Error("one conjunct of a multi-attribute punctuation promises nothing alone")
	}
}

func TestSchemeArityMismatchSafe(t *testing.T) {
	s := NewScheme(2)
	s.Observe(NewEmbedded(OnAttr(3, 0, le(10)))) // wrong arity: ignored
	s.Observe(NewEmbedded(OnAttr(3, 0, Eq(stream.Int(1)))))
	if _, set, _ := s.State(); set[0] || s.CoversPattern(OnAttr(2, 0, le(5))) {
		t.Error("wrong-arity punctuation must be ignored")
	}
	if s.CoversPattern(OnAttr(3, 0, Eq(stream.Int(1)))) {
		t.Error("a pattern of another arity is never covered")
	}
}

// The recorded list stays as small as the promises are distinct: a pattern
// replaces those it subsumes, one already covered is not recorded, a
// frontier drops what it covers, and Forget keeps only the frontier.
func TestSchemeRecordedStaysBounded(t *testing.T) {
	s := NewScheme(2)
	_, _, recorded := s.State()
	seg := func(v int64, us int64) Pattern { return NewPattern(le(us), Eq(stream.Int(v))) }
	for us := int64(1); us <= 100; us++ {
		s.Observe(NewEmbedded(seg(3, us))) // each subsumes the last
		s.Observe(NewEmbedded(seg(3, 1)))  // covered: not recorded
	}
	if len(*recorded) != 1 || !(*recorded)[0].Equal(seg(3, 100)) {
		t.Fatalf("recorded %v, want only %v", *recorded, seg(3, 100))
	}
	s.Observe(NewEmbedded(seg(4, 200)))
	s.Observe(NewEmbedded(OnAttr(2, 0, le(150))))
	if len(*recorded) != 1 || !(*recorded)[0].Equal(seg(4, 200)) {
		t.Fatalf("after frontier 150: recorded %v, want only %v", *recorded, seg(4, 200))
	}
	s.Forget()
	if len(*recorded) != 0 || !s.CoversPattern(seg(3, 100)) || s.CoversPattern(seg(4, 200)) {
		t.Fatalf("Forget must keep the frontier alone: recorded %v", *recorded)
	}
}

// Folding punctuation that advances the frontier, or that the tracker
// already covers, allocates nothing: it runs per punctuation per table.
func TestSchemeObserveAllocs(t *testing.T) {
	s := NewScheme(2)
	s.Observe(NewEmbedded(NewPattern(le(1<<40), Eq(stream.Int(3)))))
	s.Observe(NewEmbedded(OnAttr(2, 1, OneOf(stream.Int(7), stream.Int(8)))))
	progress := make([]Embedded, 64)
	for i := range progress {
		progress[i] = NewEmbedded(OnAttr(2, 0, le(int64(i+1)*10)))
	}
	covered := []Embedded{
		NewEmbedded(OnAttr(2, 0, le(5))),
		NewEmbedded(NewPattern(le(1), Eq(stream.Int(3)))),
		NewEmbedded(OnAttr(2, 1, OneOf(stream.Int(8), stream.Int(7)))),
	}
	i := 0
	if n := testing.AllocsPerRun(len(progress)-1, func() {
		s.Observe(progress[i%len(progress)])
		s.Observe(covered[i%len(covered)])
		i++
	}); n != 0 {
		t.Fatalf("steady-state Observe allocates %.1f per run, want 0", n)
	}
}

// randPunctPred draws a predicate over the ints 0..9 of a shape the stream
// asserts as punctuation, or the wildcard.
func randPunctPred(r *rand.Rand) Pred {
	v := func() stream.Value { return stream.Int(r.Int63n(10)) }
	switch r.Intn(5) {
	case 0:
		return Le(v())
	case 1:
		return Lt(v())
	case 2:
		return Eq(v())
	case 3:
		return OneOf(v(), v(), v())
	}
	return Wild
}

// randQueryPred draws a predicate a guard or a pending pattern may carry.
func randQueryPred(r *rand.Rand) Pred {
	v := func() stream.Value { return stream.Int(r.Int63n(10)) }
	switch r.Intn(5) {
	case 0:
		return Ge(v())
	case 1:
		return OneOf(v(), v())
	case 2:
		a, b := v(), v()
		if b.I < a.I {
			a, b = b, a
		}
		return Range(a, b)
	}
	return randPunctPred(r)
}

// Property: CoversPattern is sound. Whenever it reports p covered, every
// tuple matching p matches some punctuation the tracker observed, over
// random single- and multi-attribute ≤, <, = and In punctuation. Tuples are
// enumerated over the whole domain, and each cover rule must fire, the
// element-wise In one included, so the property is not vacuous.
func TestSchemeCoverSoundProperty(t *testing.T) {
	const arity, domain = 3, 10
	r := rand.New(rand.NewSource(61))
	var tuples []stream.Tuple
	for a := range int64(domain) {
		for b := range int64(domain) {
			for c := range int64(domain) {
				tuples = append(tuples, stream.NewTuple(stream.Int(a), stream.Int(b), stream.Int(c)))
			}
		}
	}
	var byOne, elementWise int
	for trial := 0; trial < 300; trial++ {
		s := NewScheme(arity)
		var seen []Pattern
		for range 1 + r.Intn(8) {
			p := NewPattern(randPunctPred(r), randPunctPred(r), randPunctPred(r))
			if r.Intn(2) == 0 { // single-attribute: the progress and exact-value shapes
				a := r.Intn(arity)
				p = OnAttr(arity, a, p.Pred(a))
			}
			if p.IsAllWild() {
				continue
			}
			s.Observe(NewEmbedded(p))
			seen = append(seen, p)
			for probe := 0; probe < 20; probe++ {
				q := NewPattern(randQueryPred(r), randQueryPred(r), randQueryPred(r))
				if !s.CoversPattern(q) {
					continue
				}
				one := false
				for _, o := range seen {
					one = one || q.Implies(o)
				}
				if one {
					byOne++
				} else if hasSet(q) {
					elementWise++
				}
				for _, tp := range tuples {
					if !q.Matches(tp) {
						continue
					}
					promised := false
					for _, o := range seen {
						promised = promised || o.Matches(tp)
					}
					if !promised {
						t.Fatalf("trial %d: %v reported covered, but %v matches none of %v", trial, q, tp, seen)
					}
				}
			}
		}
	}
	if byOne < 100 || elementWise < 30 {
		t.Fatalf("property barely exercised: %d covered by one punctuation, %d by a set closed element-wise", byOne, elementWise)
	}
}

func hasSet(p Pattern) bool {
	for _, pr := range p.preds {
		if pr.Op == In {
			return true
		}
	}
	return false
}
