package queue

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/stream"
)

func tupleOf(i int64) stream.Tuple { return stream.NewTuple(stream.Int(i)) }

func punctLE(v int64) punct.Embedded {
	return punct.NewEmbedded(punct.OnAttr(1, 0, punct.Le(stream.Int(v))))
}

// drain reads all items until EOS, preserving order.
func drain(c *Conn) []Item {
	var items []Item
	for {
		p, ok := c.Recv()
		if !ok {
			return items
		}
		items = append(items, p.Items...)
	}
}

func TestConnPreservesOrder(t *testing.T) {
	c := New(Options{PageSize: 4})
	const n = 100
	go func() {
		for i := int64(0); i < n; i++ {
			c.PutTuple(tupleOf(i))
		}
		c.CloseSend()
	}()
	items := drain(c)
	if items[len(items)-1].Kind != ItemEOS {
		t.Fatal("last item must be EOS")
	}
	seen := int64(0)
	for _, it := range items[:len(items)-1] {
		if it.Kind != ItemTuple || it.Tuple.At(0).AsInt() != seen {
			t.Fatalf("order broken at %d: %+v", seen, it)
		}
		seen++
	}
	if seen != n {
		t.Fatalf("got %d tuples", seen)
	}
}

func TestConnPunctuationFlushesPage(t *testing.T) {
	c := New(Options{PageSize: 1000})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Only 2 tuples — far below page size. Without punct-flush the
		// page would sit unflushed.
		c.PutTuple(tupleOf(1))
		c.PutTuple(tupleOf(2))
		c.PutPunct(punctLE(2))
	}()
	p, ok := c.Recv()
	if !ok || p.Len() != 3 || p.Items[2].Kind != ItemPunct {
		t.Fatalf("punctuation must flush the partial page: %+v ok=%v", p, ok)
	}
	<-done
	st := c.Stats()
	if st.Tuples != 2 || st.Puncts != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestConnControlChannel(t *testing.T) {
	c := New(DefaultOptions())
	fb := core.NewAssumed(punct.OnAttr(1, 0, punct.Le(stream.Int(5))))
	c.SendFeedback(fb)
	ms := c.PollControl()
	if len(ms) != 1 || ms[0].Kind != CtrlFeedback || ms[0].Feedback.Intent != core.Assumed {
		t.Fatalf("control: %+v", ms)
	}
	if ms := c.PollControl(); len(ms) != 0 {
		t.Error("control queue should be empty")
	}
	if c.Stats().Controls != 1 {
		t.Error("control counter")
	}
}

func TestConnAbortUnblocksProducer(t *testing.T) {
	c := New(Options{PageSize: 1, Depth: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Depth 1, page size 1: the third Put would block forever
		// without Abort.
		for i := int64(0); i < 100; i++ {
			c.PutTuple(tupleOf(i))
		}
		c.CloseSend()
	}()
	c.Recv() // consume one page, then walk away
	c.Abort()
	wg.Wait() // must terminate
}

func TestConnSendControlAfterProducerDone(t *testing.T) {
	c := New(DefaultOptions())
	closed := make(chan struct{})
	go func() {
		c.CloseSend()
		close(closed)
	}()
	drain(c)
	// The EOS page is published before CloseSend marks the producer gone.
	<-closed
	// Producer gone: control sends are dropped as moot.
	for i := 0; i < 10; i++ {
		c.SendControl(Control{Kind: CtrlShutdown})
	}
	if ms := c.PollControl(); len(ms) != 0 {
		t.Error("post-EOS control messages must be dropped")
	}
	if n := c.Stats().Controls; n != 0 {
		t.Errorf("Controls counts accepted messages only, got %d", n)
	}
}

func TestConnControlNeverBlocksSender(t *testing.T) {
	// The control path must be unbounded: a consumer can enqueue
	// arbitrarily many messages while the producer is stuck elsewhere.
	c := New(DefaultOptions())
	for i := 0; i < 100_000; i++ {
		c.SendControl(Control{Kind: CtrlFeedback})
	}
	if n := len(c.PollControl()); n != 100_000 {
		t.Errorf("drained %d control messages, want 100000", n)
	}
}

func TestPageHelpers(t *testing.T) {
	p := GetPage(4)
	p.Append(TupleItem(tupleOf(1)))
	p.Append(PunctItem(punctLE(1)))
	p.Append(EOSItem())
	if p.Len() != 3 || p.Full(4) {
		t.Error("page accounting")
	}
	if p.Items[0].Kind != ItemTuple || p.Items[1].Kind != ItemPunct || p.Items[2].Kind != ItemEOS {
		t.Error("item kinds")
	}
	p.Reset()
	if p.Len() != 0 {
		t.Error("reset")
	}
}

// drainPages reads all pages until EOS, copying each page's items so the
// comparison survives any later page recycling.
func drainPages(c *Conn) [][]Item {
	var pages [][]Item
	for {
		p, ok := c.Recv()
		if !ok {
			return pages
		}
		pages = append(pages, append([]Item(nil), p.Items...))
	}
}

// TestPutTuplesEquivalence pins the chunked-append contract: PutTuples must
// produce the identical page stream — same items, same page boundaries — as
// calling PutTuple on each tuple in order, across page sizes and run shapes
// (shorter than a page, exactly a page, spanning several, landing on a
// partially-filled page after a punctuation flush).
func TestPutTuplesEquivalence(t *testing.T) {
	for _, ps := range []int{1, 2, 3, 4, 64} {
		for _, runs := range [][]int{{1}, {5}, {64}, {65}, {200}, {3, 1, 7}, {64, 64}, {100, 29, 2}} {
			mkBatches := func() [][]stream.Tuple {
				v := int64(0)
				out := make([][]stream.Tuple, len(runs))
				for r, n := range runs {
					out[r] = make([]stream.Tuple, n)
					for i := range out[r] {
						out[r][i] = tupleOf(v)
						v++
					}
				}
				return out
			}
			single := New(Options{PageSize: ps})
			go func() {
				for r, batch := range mkBatches() {
					for _, tp := range batch {
						single.PutTuple(tp)
					}
					if r%2 == 0 { // leave a partially-filled page behind sometimes
						single.PutPunct(punctLE(int64(r)))
					}
				}
				single.CloseSend()
			}()
			want := drainPages(single)

			batched := New(Options{PageSize: ps})
			go func() {
				for r, batch := range mkBatches() {
					batched.PutTuples(batch)
					if r%2 == 0 {
						batched.PutPunct(punctLE(int64(r)))
					}
				}
				batched.CloseSend()
			}()
			got := drainPages(batched)

			if !pagesEqual(want, got) {
				t.Fatalf("page=%d runs=%v: page streams diverge: %d vs %d pages",
					ps, runs, len(want), len(got))
			}
			if single.Stats().Tuples != batched.Stats().Tuples {
				t.Fatalf("page=%d runs=%v: tuple counters diverge", ps, runs)
			}
		}
	}
}

func pagesEqual(a, b [][]Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.Kind != y.Kind {
				return false
			}
			switch x.Kind {
			case ItemTuple:
				if x.Tuple.At(0).AsInt() != y.Tuple.At(0).AsInt() {
					return false
				}
			case ItemPunct:
				if x.Punct.String() != y.Punct.String() {
					return false
				}
			}
		}
	}
	return true
}
