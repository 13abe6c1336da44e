package punct

import (
	"sync/atomic"

	"repro/internal/stream"
)

// compiledCount counts pattern compilations process-wide; exec registers it
// as a global telemetry var. Compilation is off the tuple path (patterns
// compile at guard install / pattern observe time), so one atomic add is
// free at the granularity that matters.
var compiledCount atomic.Int64

// CompiledCount reports how many patterns have been compiled.
func CompiledCount() int64 { return compiledCount.Load() }

// Compiled is the evaluation form of a Pattern: a flat table of the bound
// (non-wildcard) predicates only, with set predicates backed by hash maps
// instead of linear scans and integer-domain comparisons devirtualized.
// Matching a compiled pattern performs no allocation and skips wildcard
// attributes entirely — the common feedback shape ¬[*, …, ≤ts, …, *] costs
// one comparison per probe regardless of arity.
//
// A Compiled is immutable after construction and safe for concurrent use.
type Compiled struct {
	arity int
	preds []compiledPred
}

// compiledPred is one bound attribute predicate in evaluation form.
type compiledPred struct {
	attr int
	pred Pred
	// fastKind enables the devirtualized comparison path: when the
	// predicate's operand(s) are Int/Time/Bool, ordering is plain int64
	// comparison on Value.I for values of the same kind family.
	fastKind bool
	// set indexes In-predicate members by Value.Hash for O(1) membership;
	// buckets hold the values to resolve hash collisions with Equal.
	set map[uint64][]stream.Value
}

// setThreshold is the In-set size above which membership switches from a
// linear scan to the hash index; tiny sets scan faster than they hash.
const setThreshold = 4

// Compile builds the evaluation form of the pattern. The schema, when
// non-zero, is used to sanity-align arity (a pattern compiled against a
// schema of different arity matches nothing, mirroring Matches); passing
// the zero Schema compiles against the pattern's own arity.
func (p Pattern) Compile(schema stream.Schema) *Compiled {
	compiledCount.Add(1)
	arity := len(p.preds)
	if schema.Arity() > 0 {
		arity = schema.Arity()
	}
	c := &Compiled{arity: arity}
	if len(p.preds) != arity {
		// Arity mismatch: compile to a never-matching sentinel.
		c.preds = []compiledPred{{attr: -1}}
		return c
	}
	for i, pr := range p.preds {
		if pr.IsWild() {
			continue
		}
		c.preds = append(c.preds, newCompiledPred(i, pr))
	}
	return c
}

// newCompiledPred builds the evaluation form of one bound predicate.
func newCompiledPred(attr int, pr Pred) compiledPred {
	cp := compiledPred{attr: attr, pred: pr}
	switch pr.Op {
	case EQ, NE, LT, LE, GT, GE:
		cp.fastKind = intDomain(pr.Val.Kind)
	case Between:
		// Both bounds must share one integer-domain kind: mixed-kind
		// bounds have SQL-style incomparability semantics that only
		// the generic path reproduces.
		cp.fastKind = intDomain(pr.Val.Kind) && pr.Hi.Kind == pr.Val.Kind
	case In:
		if len(pr.Set) > setThreshold {
			cp.set = make(map[uint64][]stream.Value, len(pr.Set))
			for _, v := range pr.Set {
				h := v.Hash()
				cp.set[h] = append(cp.set[h], v)
			}
		}
	}
	return cp
}

// CompiledPred is the evaluation form of a single predicate outside any
// Pattern: the same devirtualized integer-domain comparisons and
// hash-indexed In-sets that Compile builds per bound attribute. op.Expr
// embeds these as flat expression steps.
type CompiledPred struct {
	cp compiledPred
}

// CompilePred builds the evaluation form of pr.
func CompilePred(pr Pred) CompiledPred {
	return CompiledPred{cp: newCompiledPred(0, pr)}
}

// Matches reports whether v satisfies the predicate. Equivalent to
// Pred.Matches; performs no allocation.
//
//pace:hotpath
func (c *CompiledPred) Matches(v stream.Value) bool {
	return c.cp.matches(v)
}

// intDomain reports whether the kind orders by the Value.I field alone.
func intDomain(k stream.Kind) bool {
	return k == stream.KindInt || k == stream.KindTime || k == stream.KindBool
}

// Arity returns the attribute count the compiled pattern was built for.
func (c *Compiled) Arity() int { return c.arity }

// Matches reports whether the tuple satisfies every bound predicate. It is
// equivalent to the source Pattern's Matches and performs no allocation.
//
//pace:hotpath
func (c *Compiled) Matches(t stream.Tuple) bool {
	if c.arity != t.Arity() {
		return false
	}
	for i := range c.preds {
		cp := &c.preds[i]
		if cp.attr < 0 {
			return false // arity-mismatch sentinel
		}
		if !cp.matches(t.Values[cp.attr]) {
			return false
		}
	}
	return true
}

func (cp *compiledPred) matches(v stream.Value) bool {
	p := &cp.pred
	if p.Op == IsNull {
		return v.Kind == stream.KindNull
	}
	if v.Kind == stream.KindNull {
		return false
	}
	if cp.fastKind {
		// Same-kind integer-domain comparison: Int/Time/Bool order by I.
		// Mixed Int/Float comparisons fall through to the generic path.
		if v.Kind == p.Val.Kind {
			switch p.Op {
			case EQ:
				return v.I == p.Val.I
			case NE:
				return v.I != p.Val.I
			case LT:
				return v.I < p.Val.I
			case LE:
				return v.I <= p.Val.I
			case GT:
				return v.I > p.Val.I
			case GE:
				return v.I >= p.Val.I
			case Between:
				return v.I >= p.Val.I && v.I <= p.Hi.I
			}
		}
	}
	if p.Op == In && cp.set != nil {
		for _, m := range cp.set[v.Hash()] {
			if v.Equal(m) {
				return true
			}
		}
		return false
	}
	return p.Matches(v)
}
