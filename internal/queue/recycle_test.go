package queue

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/punct"
	"repro/internal/stream"
)

// Property: page recycling never aliases data still held downstream. A
// consumer that copies tuples out of a page and immediately Releases it —
// the runtime's ownership-transfer contract — must observe exactly the
// produced sequence even while the producer is drawing recycled pages from
// the pool and overwriting their Item slots. Run under -race this also
// proves the pool's hand-off is properly synchronized.
func TestPageRecyclingNoAliasing(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		opts := Options{
			PageSize: 1 + r.Intn(65),
			Depth:    1 + r.Intn(4), // shallow: maximizes page reuse in flight
		}
		c := New(opts)
		n := 200 + r.Intn(800)
		go func() {
			for i := 0; i < n; i++ {
				if i%7 == 3 {
					c.PutPunct(punct.NewEmbedded(punct.OnAttr(2, 0, punct.Le(stream.Int(int64(i))))))
				} else {
					c.PutTuple(stream.NewTuple(stream.Int(int64(i)), stream.String_("payload")).WithSeq(int64(i)))
				}
			}
			c.CloseSend()
		}()

		// Retain tuples and punct bounds long after their pages have been
		// recycled; verify them only once the stream ends.
		var gotTuples []stream.Tuple
		var gotPuncts []int64
		for {
			p, ok := c.Recv()
			if !ok {
				break
			}
			for _, it := range p.Items {
				switch it.Kind {
				case ItemTuple:
					gotTuples = append(gotTuples, it.Tuple)
				case ItemPunct:
					gotPuncts = append(gotPuncts, it.Punct.Pattern.Pred(0).Val.AsInt())
				}
			}
			// Ownership transfer: nothing above retains the page or slices
			// of p.Items, so the producer may overwrite it from here on.
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
			if ti >= len(gotTuples) {
				return false
			}
			got := gotTuples[ti]
			if got.Seq != int64(i) || got.At(0).AsInt() != int64(i) || got.At(1).AsString() != "payload" {
				return false
			}
			ti++
		}
		return ti == len(gotTuples) && pi == len(gotPuncts)
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
