package gen

import (
	"math/rand"
	"sort"

	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
)

// Disorder injects bounded out-of-order arrival into an item sequence —
// the "distributed, unreliable, bursty, disordered data sources, typical
// of many streams" the paper's abstract motivates. Tuples are displaced by
// up to Bound positions; punctuation is weakened so it stays truthful
// under the displacement (a punctuation asserting ≤v is only emitted once
// every tuple with ts ≤ v has drained from the shuffle buffer).
//
//pace:allow-unreached shared test infrastructure: the out-of-order tests of gen, op and exec use it
type Disorder struct {
	// Bound is the maximum displacement in positions (0 = no-op).
	Bound int
	// TsAttr locates the timestamp attribute punctuation ranges over.
	TsAttr int
	Seed   int64
}

// Apply returns a new item sequence with bounded disorder. The result
// contains exactly the input's tuples; punctuation is re-derived from the
// actually-emitted prefix so the OOP truthfulness invariant holds:
// after [*,…,≤v,…] no later tuple has ts ≤ v.
func (d Disorder) Apply(items []queue.Item) []queue.Item {
	if d.Bound <= 0 {
		return append([]queue.Item(nil), items...)
	}
	r := rand.New(rand.NewSource(d.Seed))

	// Separate tuples and remember punctuation positions (by count of
	// preceding tuples) and their asserted bounds.
	var tuples []stream.Tuple
	type punctMark struct {
		afterTuples int
		bound       int64
		arity       int
	}
	var marks []punctMark
	for _, it := range items {
		switch it.Kind {
		case queue.ItemTuple:
			tuples = append(tuples, it.Tuple)
		case queue.ItemPunct:
			attr, v, ok := it.Punct.Pattern.Progress()
			if !ok || attr != d.TsAttr {
				continue // non-progress punctuation is dropped
			}
			marks = append(marks, punctMark{afterTuples: len(tuples), bound: v, arity: it.Punct.Pattern.Arity()})
		}
	}

	// Bounded shuffle: each tuple draws a sort key of index + U[0,Bound].
	type keyed struct {
		key float64
		t   stream.Tuple
	}
	ks := make([]keyed, len(tuples))
	for i, t := range tuples {
		ks[i] = keyed{key: float64(i) + r.Float64()*float64(d.Bound), t: t}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].key < ks[j].key })

	// Re-emit, inserting each punctuation once it is safe: all tuples of
	// the original prefix it covered have been emitted AND no pending
	// tuple at or below its bound remains (which bounded displacement
	// guarantees after afterTuples + Bound emissions).
	out := make([]queue.Item, 0, len(items))
	mi := 0
	for i, k := range ks {
		out = append(out, queue.TupleItem(k.t))
		emitted := i + 1
		for mi < len(marks) && emitted >= marks[mi].afterTuples+d.Bound {
			m := marks[mi]
			mi++
			out = append(out, queue.PunctItem(punct.NewEmbedded(
				punct.OnAttr(m.arity, d.TsAttr, punct.Le(stream.Ordinal(k.t.At(d.TsAttr).Kind, m.bound))))))
		}
	}
	for mi < len(marks) {
		m := marks[mi]
		mi++
		out = append(out, queue.PunctItem(punct.NewEmbedded(
			punct.OnAttr(m.arity, d.TsAttr, punct.Le(stream.Ordinal(arityKind(tuples, d.TsAttr), m.bound))))))
	}
	return out
}

func arityKind(tuples []stream.Tuple, attr int) stream.Kind {
	if len(tuples) > 0 {
		return tuples[0].At(attr).Kind
	}
	return stream.KindTime
}
