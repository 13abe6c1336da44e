package core

import (
	"math/rand"
	"testing"

	"repro/internal/punct"
	"repro/internal/stream"
)

func tup(vals ...int64) stream.Tuple {
	vs := make([]stream.Value, len(vals))
	for i, v := range vals {
		vs[i] = stream.Int(v)
	}
	return stream.NewTuple(vs...)
}

func TestCheckExploitationNullResponse(t *testing.T) {
	ref := []stream.Tuple{tup(1, 10), tup(2, 20), tup(3, 30)}
	f := NewAssumed(punct.OnAttr(2, 0, punct.Eq(stream.Int(2))))
	rep := CheckExploitation(ref, ref, f)
	if !rep.OK() || rep.Suppressed != 0 {
		t.Errorf("null response must be correct: %+v", rep)
	}
}

func TestCheckExploitationMaximal(t *testing.T) {
	ref := []stream.Tuple{tup(1, 10), tup(2, 20), tup(3, 30)}
	actual := []stream.Tuple{tup(1, 10), tup(3, 30)}
	f := NewAssumed(punct.OnAttr(2, 0, punct.Eq(stream.Int(2))))
	rep := CheckExploitation(ref, actual, f)
	if !rep.OK() || rep.Suppressed != 1 {
		t.Errorf("maximal exploitation must be correct: %+v", rep)
	}
}

func TestCheckExploitationViolations(t *testing.T) {
	ref := []stream.Tuple{tup(1, 10), tup(2, 20)}
	f := NewAssumed(punct.OnAttr(2, 0, punct.Eq(stream.Int(2))))
	// Missing a tuple outside the subset: lower-bound violation.
	rep := CheckExploitation(ref, []stream.Tuple{tup(2, 20)}, f)
	if rep.OK() || len(rep.Missing) != 1 || rep.Err() == nil {
		t.Errorf("dropping a non-subset tuple must violate Def. 1: %+v", rep)
	}
	// Inventing a tuple: upper-bound violation.
	rep = CheckExploitation(ref, []stream.Tuple{tup(1, 10), tup(2, 20), tup(9, 90)}, f)
	if rep.OK() || len(rep.Extra) != 1 {
		t.Errorf("inventing tuples must violate Def. 1: %+v", rep)
	}
}

func TestCheckExploitationMultiset(t *testing.T) {
	ref := []stream.Tuple{tup(1, 10), tup(1, 10)}
	f := NewAssumed(punct.OnAttr(2, 0, punct.Eq(stream.Int(9))))
	rep := CheckExploitation(ref, []stream.Tuple{tup(1, 10)}, f)
	if rep.OK() {
		t.Error("dropping one of two duplicates outside the subset must fail")
	}
}

// Property: for random streams and random subsets, the three canonical
// responses (null, maximal, partial) all satisfy Definition 1, and any
// response dropping a non-subset tuple fails it.
func TestCheckExploitationProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		var ref []stream.Tuple
		n := 1 + r.Intn(20)
		for i := 0; i < n; i++ {
			ref = append(ref, tup(r.Int63n(5), r.Int63n(5)))
		}
		cut := r.Int63n(5)
		f := NewAssumed(punct.OnAttr(2, 0, punct.Le(stream.Int(cut))))
		var maximal, partial []stream.Tuple
		for i, tp := range ref {
			if f.Matches(tp) {
				if i%2 == 0 {
					partial = append(partial, tp)
				}
				continue
			}
			maximal = append(maximal, tp)
			partial = append(partial, tp)
		}
		if rep := CheckExploitation(ref, ref, f); !rep.OK() {
			t.Fatalf("null response rejected: %+v", rep)
		}
		if rep := CheckExploitation(ref, maximal, f); !rep.OK() {
			t.Fatalf("maximal response rejected: %+v", rep)
		}
		if rep := CheckExploitation(ref, partial, f); !rep.OK() {
			t.Fatalf("partial response rejected: %+v", rep)
		}
	}
}

// TestAttrMapPatterns holds both directions of one attribute mapping to
// worked cases: InputPattern takes feedback up it, OutputPattern takes
// punctuation down it (ok false: consumed).
func TestAttrMapPatterns(t *testing.T) {
	eq := func(v int64) punct.Pred { return punct.Eq(stream.Int(v)) }
	w := punct.Wild
	// Join output (a, t, id, b) from A(a,t,id) and B(t,id,b): §4.2 example.
	// Left map: a→0, t→1, id→2, b→-1.
	leftMap := AttrMap{InputArity: 3, ToInput: []int{0, 1, 2, -1}}
	// (x, y, x, z): input 0 carried twice, input 1 dropped, z computed.
	twice := AttrMap{InputArity: 2, ToInput: []int{0, -1, 0, -1}}
	cases := []struct {
		name string
		up   bool // InputPattern, else OutputPattern
		m    AttrMap
		p    punct.Pattern
		want punct.Pattern
		ok   bool
	}{
		{"feedback up a join's left input", true, leftMap,
			punct.NewPattern(w, eq(3), eq(4), w), punct.NewPattern(w, eq(3), eq(4)), true},
		{"feedback up: an input carried twice takes the bound copy's predicate", true, twice,
			punct.NewPattern(eq(1), w, w, w), punct.NewPattern(eq(1), w), true},
		{"feedback up: ... whichever copy is bound", true, twice,
			punct.NewPattern(w, w, eq(1), w), punct.NewPattern(eq(1), w), true},
		{"punctuation down a join's left input", false, leftMap,
			punct.NewPattern(w, eq(3), eq(4)), punct.NewPattern(w, eq(3), eq(4), w), true},
		{"punctuation down: the first carrying output gets it", false, twice,
			punct.NewPattern(eq(1), w), punct.NewPattern(eq(1), w, w, w), true},
		{"punctuation down: a dropped bound attribute consumes it", false, twice,
			punct.NewPattern(eq(1), eq(2)), punct.Pattern{}, false},
		{"punctuation down: a rename relays unchanged", false, Identity(2),
			punct.NewPattern(w, eq(2)), punct.NewPattern(w, eq(2)), true},
	}
	for _, c := range cases {
		got, ok := c.m.InputPattern(c.p), true
		if !c.up {
			got, ok = c.m.OutputPattern(c.p)
		}
		if ok != c.ok || ok && !got.Equal(c.want) {
			t.Errorf("%s: %v -> %v, %v; want %v, %v", c.name, c.p, got, ok, c.want, c.ok)
		}
	}
}

// TestSafePropagationPaperExamples encodes §4.2's JOIN example exactly:
// streams A(a,t,id) and B(t,id,b), equi-join on (t,id), output C(a,t,id,b).
func TestSafePropagationPaperExamples(t *testing.T) {
	leftMap := AttrMap{InputArity: 3, ToInput: []int{0, 1, 2, -1}}
	rightMap := AttrMap{InputArity: 3, ToInput: []int{-1, 0, 1, 2}}

	// f = ¬[*,3,4,*]: propagates to both inputs.
	f1 := punct.NewPattern(punct.Wild, punct.Eq(stream.Int(3)), punct.Eq(stream.Int(4)), punct.Wild)
	props := SafePropagationMulti(f1, []AttrMap{leftMap, rightMap})
	if !props[0].OK || !props[1].OK {
		t.Fatalf("¬[*,3,4,*] must propagate to both: %+v", props)
	}
	wantL := punct.NewPattern(punct.Wild, punct.Eq(stream.Int(3)), punct.Eq(stream.Int(4)))
	wantR := punct.NewPattern(punct.Eq(stream.Int(3)), punct.Eq(stream.Int(4)), punct.Wild)
	if !props[0].Pattern.Equal(wantL) || !props[1].Pattern.Equal(wantR) {
		t.Errorf("propagated patterns: left %v right %v", props[0].Pattern, props[1].Pattern)
	}

	// f = ¬[50,*,*,*]: only propagates to A.
	f2 := punct.NewPattern(punct.Eq(stream.Int(50)), punct.Wild, punct.Wild, punct.Wild)
	props = SafePropagationMulti(f2, []AttrMap{leftMap, rightMap})
	if !props[0].OK || props[1].OK {
		t.Fatalf("¬[50,*,*,*] must propagate only left: %+v", props)
	}

	// f = ¬[50,*,*,50]: no safe propagation exists (<49,2,3,50> example).
	f3 := punct.NewPattern(punct.Eq(stream.Int(50)), punct.Wild, punct.Wild, punct.Eq(stream.Int(50)))
	props = SafePropagationMulti(f3, []AttrMap{leftMap, rightMap})
	if props[0].OK || props[1].OK {
		t.Fatalf("¬[50,*,*,50] must not propagate anywhere: %+v", props)
	}
}

func TestSafePropagationRejectsAllWild(t *testing.T) {
	if prop := SafePropagation(punct.AllWild(2), Identity(2)); prop.OK {
		t.Error("all-wildcard feedback must be refused")
	}
}

func TestSafePropagationArityMismatch(t *testing.T) {
	p := punct.OnAttr(3, 0, punct.Eq(stream.Int(1)))
	if prop := SafePropagation(p, Identity(2)); prop.OK {
		t.Error("arity mismatch must be refused")
	}
}

// Property: safe propagation is semantically sound — suppressing input
// tuples matching the propagated pattern never suppresses an output tuple
// outside the feedback subset. We verify on a simulated projection
// operator applying the mapping.
func TestSafePropagationSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 2000; trial++ {
		inArity := 2 + r.Intn(3)
		outArity := 1 + r.Intn(inArity)
		// Random partial mapping output→input, mostly injective.
		perm := r.Perm(inArity)
		toInput := make([]int, outArity)
		for i := range toInput {
			switch r.Intn(5) {
			case 0:
				toInput[i] = -1 // computed attr
			case 1:
				toInput[i] = r.Intn(inArity) // maybe an input carried twice
			default:
				toInput[i] = perm[i]
			}
		}
		m := AttrMap{InputArity: inArity, ToInput: toInput}
		// Random feedback over the output schema.
		preds := make([]punct.Pred, outArity)
		for i := range preds {
			if r.Intn(2) == 0 {
				preds[i] = punct.Wild
			} else {
				preds[i] = punct.Le(stream.Int(r.Int63n(10)))
			}
		}
		p := punct.NewPattern(preds...)
		prop := SafePropagation(p, m)
		if !prop.OK {
			continue
		}
		// Simulate: input tuple → output tuple via mapping (computed
		// attrs get a constant).
		for trial2 := 0; trial2 < 50; trial2++ {
			in := make([]stream.Value, inArity)
			for i := range in {
				in[i] = stream.Int(r.Int63n(12))
			}
			inT := stream.NewTuple(in...)
			out := make([]stream.Value, outArity)
			for i, src := range toInput {
				if src >= 0 {
					out[i] = in[src]
				} else {
					out[i] = stream.Int(0)
				}
			}
			outT := stream.NewTuple(out...)
			if prop.Pattern.Matches(inT) && !p.Matches(outT) {
				t.Fatalf("unsound propagation: pattern %v mapping %v input %v output %v",
					p, toInput, inT, outT)
			}
		}
	}
}

// Property: the downstream relay is sound — when OutputPattern relays q from
// input punctuation p, no input tuple outside p (the only tuples that may
// still come) maps to an output tuple matching q, so q promises nothing p
// did not. Mappings may drop, compute and carry an input twice.
func TestOutputPatternSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	relayed := 0
	for trial := 0; trial < 2000; trial++ {
		inArity := 1 + r.Intn(4)
		toInput := make([]int, 1+r.Intn(5))
		for i := range toInput {
			toInput[i] = r.Intn(inArity+1) - 1 // -1: computed
		}
		m := AttrMap{InputArity: inArity, ToInput: toInput}
		preds := make([]punct.Pred, inArity)
		for i := range preds {
			preds[i] = punct.Wild
			if r.Intn(2) == 0 {
				preds[i] = punct.Le(stream.Int(r.Int63n(10)))
			}
		}
		p := punct.NewPattern(preds...)
		q, ok := m.OutputPattern(p)
		if !ok {
			continue
		}
		relayed++
		if q.Arity() != len(toInput) {
			t.Fatalf("relayed %v has arity %d, mapping %v", q, q.Arity(), toInput)
		}
		for trial2 := 0; trial2 < 50; trial2++ {
			in := make([]int64, inArity)
			for i := range in {
				in[i] = r.Int63n(12)
			}
			out := make([]int64, len(toInput))
			for i, src := range toInput {
				if src >= 0 {
					out[i] = in[src]
				} else {
					out[i] = r.Int63n(12) // computed: anything
				}
			}
			if inT, outT := tup(in...), tup(out...); !p.Matches(inT) && q.Matches(outT) {
				t.Fatalf("unsound relay: %v -> %v through %v: input %v maps to %v", p, q, toInput, inT, outT)
			}
		}
	}
	if relayed < 200 {
		t.Fatalf("only %d of 2000 trials relayed: the property is barely exercised", relayed)
	}
}
