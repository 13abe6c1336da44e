package queue

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/punct"
	"repro/internal/stream"
)

// Property: for any page size, depth and item mix, a Conn delivers
// exactly the produced sequence, in order, terminated by EOS.
func TestConnDeliveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		opts := Options{
			PageSize: 1 + r.Intn(65),
			Depth:    1 + r.Intn(8),
		}
		c := New(opts)
		n := r.Intn(500)
		kinds := make([]ItemKind, n)
		for i := range kinds {
			if r.Intn(5) == 0 {
				kinds[i] = ItemPunct
			}
		}
		go func() {
			for i, k := range kinds {
				if k == ItemPunct {
					c.PutPunct(punct.NewEmbedded(punct.OnAttr(1, 0, punct.Le(stream.Int(int64(i))))))
				} else {
					c.PutTuple(tupleOf(int64(i)))
				}
			}
			c.CloseSend()
		}()
		items := drain(c)
		if len(items) != n+1 || items[n].Kind != ItemEOS {
			return false
		}
		for i, it := range items[:n] {
			switch kinds[i] {
			case ItemPunct:
				if it.Kind != ItemPunct || it.Punct.Pattern.Pred(0).Val.AsInt() != int64(i) {
					return false
				}
			default:
				if it.Kind != ItemTuple || it.Tuple.At(0).AsInt() != int64(i) {
					return false
				}
			}
		}
		st := c.Stats()
		wantPuncts := int64(0)
		for _, k := range kinds {
			if k == ItemPunct {
				wantPuncts++
			}
		}
		return st.Puncts == wantPuncts && st.Tuples == int64(n)-wantPuncts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: punctuation is never delayed behind a partial page — the page
// containing a punctuation ends with it.
func TestPunctTerminatesPageProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(Options{PageSize: 2 + r.Intn(32)})
		n := 50 + r.Intn(200)
		go func() {
			for i := 0; i < n; i++ {
				if r.Intn(4) == 0 {
					c.PutPunct(punct.NewEmbedded(punct.OnAttr(1, 0, punct.Le(stream.Int(int64(i))))))
				} else {
					c.PutTuple(tupleOf(int64(i)))
				}
			}
			c.CloseSend()
		}()
		for {
			p, ok := c.Recv()
			if !ok {
				return true
			}
			for i, it := range p.Items {
				if it.Kind == ItemPunct && i != len(p.Items)-1 {
					return false // punctuation mid-page: it did not flush
				}
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
