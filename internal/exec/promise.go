package exec

import (
	"fmt"

	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
)

// promises holds one stream to embedded punctuation's contract (§3.1, after
// Tucker et al.): once the stream has said "no more tuples matching p", no
// later tuple of it matches p. What the stream has said is a punct.Scheme,
// the record guard tables and the fan-in aligner keep, and a tuple breaks
// the contract when that record covers its point. Drive holds its script to
// it, and a Collector what it receives.
type promises struct{ said *punct.Scheme }

func newPromises(arity int) promises { return promises{said: punct.NewScheme(arity)} }

// keep returns the breach t is, if the stream's punctuation covers its
// exact point: an attribute's frontier at or above t's value, or a recorded
// pattern t matches (a null attribute matches only IS NULL and the wildcard).
func (p promises) keep(t stream.Tuple) error {
	const breach = "tuple %v follows punctuation %v, which covers it"
	frontier, set, recorded := p.said.State()
	for a, f := range frontier {
		v := t.Values[a]
		if bound := punct.Le(stream.Ordinal(v.Kind, f)); set[a] && bound.Matches(v) {
			return fmt.Errorf(breach, t, punct.OnAttr(len(frontier), a, bound))
		}
	}
	for _, q := range *recorded {
		if q.Matches(t) {
			return fmt.Errorf(breach, t, q)
		}
	}
	return nil
}

// PromiseBreach returns the first breach of embedded punctuation's contract
// in items, one stream of the given arity: a tuple that punctuation earlier
// among them covers. Drive checks its script with it; a test that calls an
// operator by hand checks what it fed.
func PromiseBreach(arity int, items []queue.Item) error {
	p := newPromises(arity)
	for _, it := range items {
		switch it.Kind {
		case queue.ItemPunct:
			p.said.Observe(*it.Punct)
		case queue.ItemTuple:
			if err := p.keep(it.Tuple); err != nil {
				return err
			}
		}
	}
	return nil
}
