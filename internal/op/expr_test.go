package op

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/punct"
	"repro/internal/stream"
)

// exprArity is the width of the tuples the expression tests filter.
const exprArity = 3

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

// value draws a value of a drawn kind from a small domain with the edges the
// opcodes and the generic path disagree on if either is wrong: the int64
// extremes, −0, NaN, the infinities, the empty string, null.
func (b *byteSource) value() stream.Value {
	ints := []int64{-2, -1, 0, 1, 2, math.MaxInt64, math.MinInt64}
	floats := []float64{-1.5, math.Copysign(0, -1), 0, 0.5, 1, 2, math.NaN(), math.Inf(1), math.Inf(-1)}
	strs := []string{"", "a", "b"}
	k, i := b.next(), b.next()
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
// with bounds of one kind or of two, In-sets on both sides of the compiled
// set threshold, IsNull and the wildcard.
func (b *byteSource) pred() punct.Pred {
	ops := []punct.Op{punct.EQ, punct.NE, punct.LT, punct.LE, punct.GT, punct.GE, punct.Between, punct.In, punct.IsNull, punct.Any}
	op := ops[b.next()%len(ops)]
	switch op {
	case punct.Between:
		lo := b.value()
		hi := b.value()
		if b.next()%4 != 0 { // mostly one kind, so the Between opcodes compile
			hi.Kind, hi.S = lo.Kind, lo.S
		}
		return punct.Range(lo, hi)
	case punct.In:
		set := make([]stream.Value, b.next()%7)
		for i := range set {
			set[i] = b.value()
		}
		return punct.OneOf(set...)
	case punct.IsNull:
		return punct.NullPred()
	case punct.Any:
		return punct.Wild
	}
	return punct.Pred{Op: op, Val: b.value()}
}

// exprCase decodes a conjunction of one to four steps over exprArity columns
// and a run of up to 40 tuples, each tuple's Seq its position in the run.
func exprCase(data []byte) ([]ExprStep, []stream.Tuple) {
	b := byteSource(data)
	steps := make([]ExprStep, 1+b.next()%4)
	for i := range steps {
		steps[i] = ExprStep{Col: b.next() % exprArity, Pred: b.pred()}
	}
	run := make([]stream.Tuple, b.next()%41)
	for i := range run {
		vals := make([]stream.Value, exprArity)
		for c := range vals {
			vals[c] = b.value()
		}
		run[i] = stream.Tuple{Values: vals, Seq: int64(i)}
	}
	return steps, run
}

// checkFilter decodes a case and asserts that Filter keeps exactly, and in
// order, the tuples for which every step's compiled predicate matches, and
// that Eval agrees tuple by tuple. It returns the compiled expression.
func checkFilter(t *testing.T, data []byte) *Expr {
	t.Helper()
	steps, run := exprCase(data)
	e, err := NewExpr(exprArity, steps...)
	if err != nil {
		t.Fatal(err)
	}
	preds := make([]punct.CompiledPred, len(steps))
	for i, s := range steps {
		preds[i] = punct.CompilePred(s.Pred)
	}
	var want []int64
	for _, tp := range run {
		ok := true
		for i, s := range steps {
			ok = ok && preds[i].Matches(tp.Values[s.Col])
		}
		if ok {
			want = append(want, tp.Seq)
		}
		if e.Eval(tp) != ok {
			t.Fatalf("%s: Eval(%v) = %v, reference %v", e, tp, !ok, ok)
		}
	}
	got := e.Filter(append([]stream.Tuple(nil), run...))
	if len(got) != len(want) {
		t.Fatalf("%s over %v: kept %v, reference keeps seqs %v", e, run, got, want)
	}
	for i, tp := range got {
		if tp.Seq != want[i] || &tp.Values[0] != &run[tp.Seq].Values[0] {
			t.Fatalf("%s over %v: kept %v, reference keeps seqs %v", e, run, got, want)
		}
	}
	return e
}

// TestExprFilterMatchesReference is the differential test behind
// FuzzExprFilter: 20000 random conjunctions and runs, which between them
// must compile every opcode.
func TestExprFilterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[uint8]bool{}
	data := make([]byte, 512)
	for i := 0; i < 20000; i++ {
		rng.Read(data)
		e := checkFilter(t, data)
		for _, s := range e.steps {
			seen[s.code] = true
		}
	}
	for code := opGeneric; code <= opFloatBetween; code++ {
		if !seen[code] {
			t.Errorf("opcode %d never compiled", code)
		}
	}
}

// FuzzExprFilter checks Filter and Eval against the conjunction of the
// steps' compiled predicates on arbitrary conjunctions and runs.
func FuzzExprFilter(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 16; i++ {
		data := make([]byte, 64+rng.Intn(256))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFilter(t, data)
	})
}
