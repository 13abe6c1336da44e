package queue

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/punct"
	"repro/internal/stream"
)

// Property: recycling never hands a consumer memory that is still in use or
// takes away memory it is still entitled to. The producer builds every run of
// tuples in a recycled slab (Aliases.Get) exactly as the runtime's run-building
// sites do; the consumer honours the contract — a tuple is read while its page
// is held, what outlives the page is a clone — and releases each page at once,
// so the producer is overwriting recycled pages and recycled slabs throughout.
// Every tuple must read right on arrival, every clone and every punctuation
// bound must still read right once the stream has ended. Run under -race this
// also proves the pools' hand-offs are properly synchronized, and the race
// build's sentinel makes a slab recycled too early unmistakable.
func TestPageRecyclingNoAliasing(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		opts := Options{
			PageSize: 1 + r.Intn(65),
			Depth:    1 + r.Intn(4), // shallow: maximizes page and slab reuse in flight
		}
		c := New(opts)
		var aliases Aliases
		c.BindAliases(&aliases)
		n := 200 + r.Intn(800)
		runs := make([]int, 0, n) // run lengths, drawn here: r is not shared
		for left := n; left > 0; left -= runs[len(runs)-1] {
			runs = append(runs, min(left, 1+r.Intn(40)))
		}
		go func() {
			i := 0
			for _, run := range runs {
				aliases.Begin(nil)
				slab := aliases.Get(2 * run)
				for ; run > 0; run, i = run-1, i+1 {
					if i%7 == 3 {
						c.PutPunct(punct.NewEmbedded(punct.OnAttr(2, 0, punct.Le(stream.Int(int64(i))))))
						continue
					}
					vals := slab[:2:2]
					slab = slab[2:]
					vals[0], vals[1] = stream.Int(int64(i)), stream.String_("payload")
					c.PutTuple(stream.Tuple{Values: vals, Seq: int64(i)})
				}
				aliases.End()
			}
			c.CloseSend()
		}()

		right := func(t stream.Tuple, i int) bool {
			return t.Seq == int64(i) && t.At(0) == stream.Int(int64(i)) && t.At(1).AsString() == "payload"
		}
		var kept []stream.Tuple
		var gotPuncts []int64
		ok, next := true, 0
		for {
			p, more := c.Recv()
			if !more {
				break
			}
			for _, it := range p.Items {
				switch it.Kind {
				case ItemTuple:
					if next%7 == 3 {
						next++
					}
					ok = ok && right(it.Tuple, next)
					kept = append(kept, it.Tuple.Clone())
					next++
				case ItemPunct:
					gotPuncts = append(gotPuncts, it.Punct.Pattern.Pred(0).Val.AsInt())
				}
			}
			// Ownership transfer: nothing above retains the page, slices of
			// p.Items or its tuples' values, so the producer may overwrite
			// all of them from here on.
			Release(p)
		}

		ti, pi := 0, 0
		for i := 0; i < n; i++ {
			if i%7 == 3 {
				if pi >= len(gotPuncts) || gotPuncts[pi] != int64(i) {
					return false
				}
				pi++
				continue
			}
			if ti >= len(kept) || !right(kept[ti], i) {
				return false
			}
			ti++
		}
		return ok && ti == len(kept) && pi == len(gotPuncts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// A released page must come back cleared: stale items must not leak into
// the next producer's stream, and the pool must not pin the old tuples.
func TestReleaseClearsPage(t *testing.T) {
	p := GetPage(8)
	p.AppendTuple(stream.NewTuple(stream.Int(1)))
	p.AppendTuple(stream.NewTuple(stream.Int(2)))
	Release(p)
	q := GetPage(8)
	if q.Len() != 0 {
		t.Fatalf("pooled page not empty: %d items", q.Len())
	}
	// Whether or not q is the same object as p, its backing slots must be
	// zero up to capacity.
	full := q.Items[:cap(q.Items)]
	for i := range full {
		if full[i].Tuple.Values != nil || full[i].Punct != nil {
			t.Fatalf("slot %d retains data from a previous life: %+v", i, full[i])
		}
	}
	Release(q)
}
