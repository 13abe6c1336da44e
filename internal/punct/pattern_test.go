package punct

import (
	"math/rand"
	"testing"

	"repro/internal/stream"
)

func TestPatternMatches(t *testing.T) {
	p := NewPattern(Eq(stream.Int(3)), Wild, Ge(stream.Float(50)))
	hit := stream.NewTuple(stream.Int(3), stream.TimeMicros(10), stream.Float(51))
	miss1 := stream.NewTuple(stream.Int(4), stream.TimeMicros(10), stream.Float(51))
	miss2 := stream.NewTuple(stream.Int(3), stream.TimeMicros(10), stream.Float(49))
	if !p.Matches(hit) || p.Matches(miss1) || p.Matches(miss2) {
		t.Error("pattern matching broken")
	}
	if p.Matches(stream.NewTuple(stream.Int(3))) {
		t.Error("arity mismatch must not match")
	}
}

func TestPatternBoundAndWild(t *testing.T) {
	p := OnAttr(3, 1, Le(stream.TimeMicros(100)))
	if b := p.Bound(); len(b) != 1 || b[0] != 1 {
		t.Errorf("Bound = %v", b)
	}
	if p.IsAllWild() || !AllWild(3).IsAllWild() {
		t.Error("IsAllWild")
	}
}

func TestPatternImplies(t *testing.T) {
	narrow := NewPattern(Eq(stream.Int(3)), Le(stream.TimeMicros(50)), Wild)
	wide := NewPattern(Wild, Le(stream.TimeMicros(100)), Wild)
	if !narrow.Implies(wide) {
		t.Error("narrow should imply wide")
	}
	if wide.Implies(narrow) {
		t.Error("wide must not imply narrow")
	}
}

func TestPatternProject(t *testing.T) {
	// Output keeps (speed, segment): mapping output→input = [2, 0].
	p := NewPattern(Eq(stream.Int(3)), Wild, Ge(stream.Float(50)))
	proj := p.Project([]int{2, 0})
	if !proj.Pred(0).Matches(stream.Float(55)) || proj.Pred(0).Matches(stream.Float(45)) {
		t.Error("projected speed predicate wrong")
	}
	if !proj.Pred(1).Matches(stream.Int(3)) || proj.Pred(1).Matches(stream.Int(4)) {
		t.Error("projected segment predicate wrong")
	}
}

func TestPatternWith(t *testing.T) {
	p := AllWild(3)
	q := p.With(0, Eq(stream.Int(1)))
	if p.Pred(0).Op != Any {
		t.Error("With must not mutate the receiver")
	}
	if q.Pred(0).Op != EQ {
		t.Error("With must set the predicate")
	}
}

// String renders a pattern in bracket notation, one predicate per attribute.
func TestPatternString(t *testing.T) {
	for _, tc := range []struct {
		p    Pattern
		want string
	}{
		{AllWild(3), "[*, *, *]"},
		{NewPattern(Eq(stream.Int(3)), Wild, Ge(stream.Float(50))), "[3, *, >=50]"},
		{NewPattern(Wild, Le(stream.TimeMicros(100_000)), Wild), "[*, <=1970-01-01T00:00:00.100000Z, *]"},
		{NewPattern(OneOf(stream.Int(1), stream.Int(2), stream.Int(3)), Wild, Lt(stream.Float(5))), "[{1|2|3}, *, <5]"},
		{NewPattern(Wild, Wild, Range(stream.Float(10), stream.Float(20))), "[*, *, [10..20]]"},
		{NewPattern(Ne(stream.Int(4)), Wild, Wild), "[!=4, *, *]"},
		{NewPattern(NullPred(), Wild, Wild), "[null, *, *]"},
	} {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// Property: Project then match agrees with matching the original pattern on
// the pre-image for carried attributes.
func TestPatternProjectSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		p := NewPattern(randomPred(r), randomPred(r), randomPred(r))
		mapping := []int{r.Intn(4) - 1, r.Intn(4) - 1} // output of arity 2
		proj := p.Project(mapping)
		// Build a random input tuple and its projection.
		in := stream.NewTuple(
			stream.Int(r.Int63n(20)-10),
			stream.Int(r.Int63n(20)-10),
			stream.Int(r.Int63n(20)-10),
		)
		outVals := make([]stream.Value, 2)
		for i, src := range mapping {
			if src >= 0 && src < 3 {
				outVals[i] = in.At(src)
			} else {
				outVals[i] = stream.Int(0)
			}
		}
		out := stream.NewTuple(outVals...)
		// If the input matches p, the projected tuple must match proj
		// whenever the projection carries the bound attributes.
		if p.Matches(in) {
			carriedAll := true
			carried := map[int]bool{}
			for _, src := range mapping {
				if src >= 0 {
					carried[src] = true
				}
			}
			for _, b := range p.Bound() {
				if !carried[b] {
					carriedAll = false
				}
			}
			if carriedAll && !proj.Matches(out) {
				t.Fatalf("projection lost a match: p=%v mapping=%v in=%v", p, mapping, in)
			}
		}
	}
}
