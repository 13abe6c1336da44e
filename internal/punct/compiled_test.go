package punct

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

// Property: Compile preserves Matches exactly, across every predicate
// operator, kind mix, and null placement.
func TestCompiledMatchesEquivalence(t *testing.T) {
	vals := []stream.Value{
		stream.Null,
		stream.Int(-3), stream.Int(0), stream.Int(7), stream.Int(100),
		stream.Float(-3), stream.Float(6.5), stream.Float(7),
		stream.String_(""), stream.String_("a"), stream.String_("zz"),
		stream.TimeMicros(0), stream.TimeMicros(1_000_000),
		stream.Bool(false), stream.Bool(true),
	}
	preds := func(r *rand.Rand) Pred {
		v := vals[r.Intn(len(vals))]
		switch r.Intn(10) {
		case 0:
			return Wild
		case 1:
			return Eq(v)
		case 2:
			return Ne(v)
		case 3:
			return Lt(v)
		case 4:
			return Le(v)
		case 5:
			return Gt(v)
		case 6:
			return Ge(v)
		case 7:
			return Range(v, vals[r.Intn(len(vals))])
		case 8:
			set := make([]stream.Value, 1+r.Intn(8)) // crosses setThreshold
			for i := range set {
				set[i] = vals[r.Intn(len(vals))]
			}
			return OneOf(set...)
		default:
			return NullPred()
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		arity := 1 + r.Intn(5)
		ps := make([]Pred, arity)
		for i := range ps {
			ps[i] = preds(r)
		}
		pat := NewPattern(ps...)
		c := pat.Compile(stream.Schema{})
		for trial := 0; trial < 50; trial++ {
			tv := make([]stream.Value, arity)
			for i := range tv {
				tv[i] = vals[r.Intn(len(vals))]
			}
			tup := stream.NewTuple(tv...)
			if pat.Matches(tup) != c.Matches(tup) {
				t.Logf("pattern %v tuple %v: interpreted=%v compiled=%v",
					pat, tup, pat.Matches(tup), c.Matches(tup))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Arity mismatches must match nothing, exactly like the interpreted form.
func TestCompiledArityMismatch(t *testing.T) {
	pat := OnAttr(3, 1, Le(stream.Int(5)))
	tup := stream.NewTuple(stream.Int(1), stream.Int(1))
	if pat.Matches(tup) || pat.Compile(stream.Schema{}).Matches(tup) {
		t.Error("arity mismatch must not match")
	}
	// Compiling against a schema of a different arity is a sentinel that
	// never matches.
	s3, err := stream.NewSchema(stream.F("a", stream.KindInt), stream.F("b", stream.KindInt))
	if err != nil {
		t.Fatal(err)
	}
	c := pat.Compile(s3)
	if c.Matches(tup) || c.Matches(stream.NewTuple(stream.Int(1), stream.Int(1), stream.Int(1))) {
		t.Error("schema/pattern arity mismatch must match nothing")
	}
}

// The common feedback shape evaluates only its bound attribute.
func TestCompiledSkipsWildcards(t *testing.T) {
	pat := OnAttr(6, 3, Le(stream.TimeMicros(1000)))
	c := pat.Compile(stream.Schema{})
	if len(c.preds) != 1 {
		t.Fatalf("bound predicates = %d, want 1", len(c.preds))
	}
	tup := stream.NewTuple(stream.Int(0), stream.Int(0), stream.Int(0),
		stream.TimeMicros(999), stream.Int(0), stream.Int(0))
	if !c.Matches(tup) {
		t.Error("must match")
	}
}

func BenchmarkCompiledSetMembership(b *testing.B) {
	set := make([]stream.Value, 64)
	for i := range set {
		set[i] = stream.Int(int64(i * 3))
	}
	pat := OnAttr(2, 0, OneOf(set...))
	c := pat.Compile(stream.Schema{})
	tup := stream.NewTuple(stream.Int(93), stream.Int(7))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !c.Matches(tup) {
			b.Fatal("must match")
		}
	}
}
