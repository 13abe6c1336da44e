package punct

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// byteSource hands out the bytes of a fuzz input, then zeros.
type byteSource []byte

func (b *byteSource) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// value draws a value of a drawn kind.
func (b *byteSource) value() stream.Value { return b.valueOf(b.next()) }

// valueOf draws a value of kind k%6 from a small domain with the edges the
// opcodes and the reference disagree on if either is wrong: the int64
// extremes, 2^53+1 (which a float cannot tell from 2^53), −0, NaN, the
// infinities, the largest finite float, the empty string, null.
func (b *byteSource) valueOf(k int) stream.Value {
	ints := []int64{-2, -1, 0, 1, 2, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	floats := []float64{-1.5, math.Copysign(0, -1), 0, 0.5, 1, 2, 1 << 53, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	strs := []string{"", "a", "b"}
	i := b.next()
	switch k % 6 {
	case 0:
		return stream.Int(ints[i%len(ints)])
	case 1:
		return stream.Float(floats[i%len(floats)])
	case 2:
		return stream.String_(strs[i%len(strs)])
	case 3:
		return stream.TimeMicros(ints[i%len(ints)])
	case 4:
		return stream.Bool(i%2 == 1)
	}
	return stream.Null
}

// pred draws a predicate over the drawn values: every comparison, Between
// with bounds of one kind or of two, In-sets on both sides of setThreshold
// (of one kind or mixed), IsNull and the wildcard.
func (b *byteSource) pred() Pred {
	ops := []Op{EQ, NE, LT, LE, GT, GE, Between, In, IsNull, Any}
	op := ops[b.next()%len(ops)]
	switch op {
	case Between:
		lo := b.value()
		hi := b.value()
		if b.next()%4 != 0 { // mostly one kind, so the range opcodes compile
			hi.Kind, hi.S = lo.Kind, lo.S
		}
		return Range(lo, hi)
	case In:
		set := make([]stream.Value, b.next()%9)
		k, mixed := b.next(), b.next()%3 == 0
		for i := range set {
			if mixed {
				k = b.next()
			}
			set[i] = b.valueOf(k)
		}
		return OneOf(set...)
	case IsNull:
		return Pred{Op: IsNull}
	case Any:
		return Wild
	}
	return Pred{Op: op, Val: b.value()}
}

// exprCase decodes a conjunction of one to four steps over an arity of one
// to five columns, the same predicates as a pattern (wildcards included),
// and a run of up to 168 tuples — most of that arity, some one wider or
// narrower — each tuple's Seq its position in the run.
func exprCase(data []byte) (int, []ExprStep, Pattern, []stream.Tuple) {
	b := byteSource(data)
	arity := 1 + b.next()%5
	steps := make([]ExprStep, 1+b.next()%4)
	for i := range steps {
		steps[i] = ExprStep{Col: b.next() % arity, Pred: b.pred()}
	}
	preds := make([]Pred, arity)
	for i := range preds {
		preds[i] = b.pred()
	}
	run := make([]stream.Tuple, b.next()%41+64*(b.next()%3))
	for i := range run {
		n := arity
		if b.next()%16 == 0 {
			n += b.next()%3 - 1
		}
		vals := make([]stream.Value, n)
		for c := range vals {
			vals[c] = b.value()
		}
		run[i] = stream.Tuple{Values: vals, Seq: int64(i)}
	}
	return arity, steps, NewPattern(preds...), run
}

// checkExpr asserts that e.Matches agrees with ref tuple by tuple, and that
// Filter, handed the run's tuples of the Expr's arity, keeps exactly, and in
// order, the tuples ref matches — the run's own tuples, not copies.
func checkExpr(t *testing.T, e *Expr, ref func(stream.Tuple) bool, run []stream.Tuple) {
	t.Helper()
	var want []int64
	var in []stream.Tuple
	for _, tp := range run {
		ok := ref(tp)
		if e.Matches(tp) != ok {
			t.Fatalf("%s: Matches(%v) = %v, reference %v", e, tp, !ok, ok)
		}
		if ok {
			want = append(want, tp.Seq)
		}
		if len(tp.Values) == e.arity {
			in = append(in, tp)
		}
	}
	got := e.Filter(in)
	for i, tp := range got {
		if len(got) != len(want) || tp.Seq != want[i] || len(tp.Values) > 0 && &tp.Values[0] != &run[tp.Seq].Values[0] {
			t.Fatalf("%s over %v: kept %v, reference keeps seqs %v", e, run, got, want)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s over %v: kept %v, reference keeps seqs %v", e, run, got, want)
	}
}

// checkFilter decodes a case and holds both compiled forms to Pred.Matches:
// NewExpr's conjunction to the steps' own predicates, and Compile's to the
// pattern's Matches. It returns both.
func checkFilter(t *testing.T, data []byte) (*Expr, *Expr) {
	t.Helper()
	arity, steps, pat, run := exprCase(data)
	e, err := NewExpr(arity, steps...)
	if err != nil {
		t.Fatal(err)
	}
	checkExpr(t, e, func(tp stream.Tuple) bool {
		ok := len(tp.Values) == arity
		for _, s := range steps {
			ok = ok && s.Pred.Matches(tp.Values[s.Col])
		}
		return ok
	}, run)
	c := pat.Compile(stream.Schema{})
	checkExpr(t, c, pat.Matches, run)
	return e, c
}

// TestExprFilterMatchesReference is the differential test behind
// FuzzExprFilter: 20000 random conjunctions, patterns and runs, which
// between them must compile every opcode.
func TestExprFilterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[uint8]bool{}
	data := make([]byte, 2048)
	for i := 0; i < 20000; i++ {
		rng.Read(data)
		e, c := checkFilter(t, data)
		for _, s := range append(e.steps, c.steps...) {
			seen[s.code] = true
		}
	}
	for code := opGeneric; code <= opIn; code++ {
		if !seen[code] {
			t.Errorf("opcode %d never compiled", code)
		}
	}
}

// FuzzExprFilter checks Matches and Filter against Pred.Matches on
// arbitrary conjunctions, patterns and runs.
func FuzzExprFilter(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 16; i++ {
		data := make([]byte, 64+rng.Intn(1024))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFilter(t, data)
	})
}

// Arity mismatches must match nothing, exactly like Pattern.Matches.
func TestCompiledArityMismatch(t *testing.T) {
	pat := OnAttr(3, 1, Le(stream.Int(5)))
	tup := stream.NewTuple(stream.Int(1), stream.Int(1))
	if pat.Matches(tup) || pat.Compile(stream.Schema{}).Matches(tup) {
		t.Error("arity mismatch must not match")
	}
	// Compiling against a schema of a different arity yields an Expr that
	// never matches.
	s2, err := stream.NewSchema(stream.F("a", stream.KindInt), stream.F("b", stream.KindInt))
	if err != nil {
		t.Fatal(err)
	}
	c := pat.Compile(s2)
	if c.Matches(tup) || c.Matches(stream.NewTuple(stream.Int(1), stream.Int(1), stream.Int(1))) {
		t.Error("schema/pattern arity mismatch must match nothing")
	}
}

// The common feedback shape evaluates only its bound attribute.
func TestCompiledSkipsWildcards(t *testing.T) {
	pat := OnAttr(6, 3, Le(stream.TimeMicros(1000)))
	c := pat.Compile(stream.Schema{})
	if len(c.steps) != 1 {
		t.Fatalf("bound predicates = %d, want 1", len(c.steps))
	}
	tup := stream.NewTuple(stream.Int(0), stream.Int(0), stream.Int(0),
		stream.TimeMicros(999), stream.Int(0), stream.Int(0))
	if !c.Matches(tup) {
		t.Error("must match")
	}
}

func BenchmarkExprSetMembership(b *testing.B) {
	set := make([]stream.Value, 64)
	for i := range set {
		set[i] = stream.Int(int64(i * 3))
	}
	c := OnAttr(2, 0, OneOf(set...)).Compile(stream.Schema{})
	tup := stream.NewTuple(stream.Int(93), stream.Int(7))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !c.Matches(tup) {
			b.Fatal("must match")
		}
	}
}
