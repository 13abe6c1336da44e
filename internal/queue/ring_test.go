package queue

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/stream"
	"repro/internal/testguard"
)

func feedbackSeq(seq int64) core.Feedback {
	f := core.NewAssumed(punct.OnAttr(1, 0, punct.Le(stream.Int(seq))))
	f.Seq = seq
	return f
}

// yield makes one side slower than the other without a clock.
func yield(n int) {
	for ; n > 0; n-- {
		runtime.Gosched()
	}
}

// ringStep is one producer action of a random schedule.
type ringStep struct {
	kind ItemKind // ItemTuple, ItemPunct or ItemBarrier
	lag  int      // yields before the action
}

// TestRingScheduleProperty drives random schedules of tuples, punctuation,
// barriers, control messages and consumer aborts through one connection, with
// either side randomly the slower one, on one, two and four processors. The
// consumer must see exactly the produced items in order — no page twice, none
// lost — up to EOS or its own abort, both sides must terminate, and the park
// counters must respect the hysteresis: every park ends with a wake-up, a
// wake-up is either forced or follows half a ring of pages, so no schedule
// parks more often than that however the speeds compare.
func TestRingScheduleProperty(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for seed := int64(1); seed <= 40; seed++ {
				testguard.Within(t, time.Minute, func() { ringSchedule(t, seed) })
			}
		})
	}
}

func ringSchedule(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	opts := Options{PageSize: 1 + r.Intn(8), Depth: 1 + r.Intn(16)}
	c := New(opts)
	half := max(1, opts.Depth/2)

	// A side is slow when it yields often; the consumer of the odd seeds is
	// about twice as fast as its producer, that of the even ones half.
	prodLag, consLag := 2, 1
	if seed%2 == 0 {
		prodLag, consLag = 1, 2
	}
	steps := make([]ringStep, 200+r.Intn(2000))
	forced := int64(1) // EOS
	for i := range steps {
		steps[i].lag = r.Intn(2 * prodLag)
		switch x := r.Intn(40); {
		case x == 0:
			steps[i].kind = ItemBarrier
			forced++
		case x < 4:
			steps[i].kind = ItemPunct
			forced++
		}
	}
	abortAfter := -1 // pages the consumer takes before walking away
	if r.Intn(4) == 0 {
		abortAfter = r.Intn(len(steps)/opts.PageSize + 1)
	}
	controls := r.Intn(20)
	lags := make([]int, 64)
	for i := range lags {
		lags[i] = r.Intn(2 * consLag)
	}

	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		for i, s := range steps {
			yield(s.lag)
			switch s.kind {
			case ItemTuple:
				c.PutTuple(tupleOf(int64(i)))
			case ItemPunct:
				c.PutPunct(punct.NewEmbedded(punct.OnAttr(1, 0, punct.Le(stream.Int(int64(i))))))
			case ItemBarrier:
				c.PutBarrier(int64(i))
			}
			c.PollControl()
		}
		c.CloseSend()
	}()

	next, pages, sawEOS := 0, 0, false
	for pages != abortAfter {
		p, ok := c.Recv()
		if !ok {
			break
		}
		if sawEOS {
			t.Fatalf("seed %d: page after EOS", seed)
		}
		for _, it := range p.Items {
			if it.Kind == ItemEOS {
				sawEOS = true
				continue
			}
			if next >= len(steps) || it.Kind != steps[next].kind {
				t.Fatalf("seed %d: item %d is kind %d, produced %+v", seed, next, it.Kind, steps[min(next, len(steps)-1)])
			}
			var got int64
			switch it.Kind {
			case ItemTuple:
				got = it.Tuple.At(0).AsInt()
			case ItemPunct:
				got = it.Punct.Pattern.Pred(0).Val.AsInt()
			case ItemBarrier:
				got = it.BarrierEpoch()
			}
			if got != int64(next) {
				t.Fatalf("seed %d: item %d carries %d: lost, duplicated or reordered", seed, next, got)
			}
			next++
		}
		Release(p)
		pages++
		if pages <= controls {
			c.SendControl(Control{Kind: CtrlFeedback})
		}
		yield(lags[pages%len(lags)])
	}
	if abortAfter < 0 && (!sawEOS || next != len(steps)) {
		t.Fatalf("seed %d: stream ended at item %d of %d (EOS %v)", seed, next, len(steps), sawEOS)
	}
	c.Abort()
	<-prodDone // a producer parked on the full ring must get out

	st := c.Stats()
	if limit := st.Pages/int64(half) + forced + 1; st.ConsumerParks > limit {
		t.Errorf("seed %d (%+v): consumer parked %d times over %d pages and %d forced flushes, want at most %d",
			seed, opts, st.ConsumerParks, st.Pages, forced, limit)
	}
	// A control message wakes a parked producer too; it parks again if the
	// ring is still full.
	if limit := st.Pages/int64(half) + st.Controls + 2; st.ProducerParks > limit {
		t.Errorf("seed %d (%+v): producer parked %d times over %d pages and %d controls, want at most %d",
			seed, opts, st.ProducerParks, st.Pages, st.Controls, limit)
	}
}

// TestRingNoLostWakeup is the regression for the one interleaving a
// hysteresis protocol can lose: the consumer arms on an empty ring while the
// producer publishes exactly one page (below half: no wake-up) and then
// forces. Whichever of arm, publish and force comes first, the consumer must
// receive both pages of every round.
func TestRingNoLostWakeup(t *testing.T) {
	rounds := 100_000
	if testing.Short() {
		rounds = 10_000
	}
	c := New(Options{PageSize: 1, Depth: 16})
	ack := make(chan struct{})
	testguard.Within(t, 2*time.Minute, func() {
		go func() {
			for i := 0; i < rounds; i++ {
				c.PutTuple(tupleOf(int64(i))) // one full page, unforced
				c.PutPunct(punctLE(int64(i))) // forced
				<-ack
			}
			c.CloseSend()
		}()
		for i := 0; i < rounds; i++ {
			for _, want := range []ItemKind{ItemTuple, ItemPunct} {
				p, ok := c.Recv()
				if !ok || p.Len() != 1 || p.Items[0].Kind != want {
					t.Errorf("round %d: got %+v ok=%v, want one item of kind %d", i, p, ok, want)
					return
				}
				Release(p)
			}
			ack <- struct{}{}
		}
	})
	if p, ok := c.Recv(); !ok || p.Items[0].Kind != ItemEOS {
		t.Fatalf("want the EOS page, got %+v ok=%v", p, ok)
	}
	if _, ok := c.Recv(); ok {
		t.Fatal("Recv after EOS must report closed")
	}
}

// awaitParks returns once c's consumer has parked n times in all: past its
// polling phase, only a signal gets it going again.
func awaitParks(c *Conn, n int64) {
	for c.Stats().ConsumerParks < n {
		runtime.Gosched()
	}
}

// parkedConsumer starts a consumer on c that reports the last item's kind of
// every page it receives, and returns once that consumer has parked on the
// empty ring.
func parkedConsumer(c *Conn) <-chan ItemKind {
	got := make(chan ItemKind)
	go func() {
		defer close(got)
		for {
			p, ok := c.Recv()
			if !ok {
				return
			}
			got <- p.Items[p.Len()-1].Kind
			Release(p)
		}
	}()
	awaitParks(c, 1)
	return got
}

func (c *Conn) armed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.consArmed
}

// TestRingWakeHysteresis pins when a parked consumer is told about pages:
// not below half a ring, at half a ring, and at once by punctuation, a
// barrier, EOS and the producer's kick.
func TestRingWakeHysteresis(t *testing.T) {
	testguard.Within(t, time.Minute, func() {
		c := New(Options{PageSize: 1, Depth: 8})
		got := parkedConsumer(c)
		for i := 0; i < 3; i++ {
			c.PutTuple(tupleOf(int64(i)))
			if !c.armed() {
				t.Fatalf("consumer woken at %d pages of a ring of 8", i+1)
			}
		}
		c.PutTuple(tupleOf(3)) // half full
		if c.armed() {
			t.Fatal("consumer not woken at half a ring")
		}
		for i := 0; i < 4; i++ {
			<-got
		}

		// Forced flushes and the kick wake whatever the fill (invariant i).
		// Each round starts from a consumer that is parked again: one that
		// is still polling would see the page for itself.
		for i, force := range []struct {
			do    func()
			pages int
		}{
			{func() { c.PutPunct(punctLE(1)) }, 2},
			{func() { c.PutBarrier(7) }, 2},
			{func() { c.prod.Kick() }, 1},
		} {
			awaitParks(c, int64(2+i))
			c.PutTuple(tupleOf(9))
			if !c.armed() {
				t.Fatal("one page of a ring of 8 woke the consumer")
			}
			force.do()
			if c.armed() {
				t.Fatal("forced flush left the consumer parked")
			}
			for i := 0; i < force.pages; i++ {
				<-got
			}
		}
		awaitParks(c, 5)
		c.CloseSend()
		if last := <-got; last != ItemEOS {
			t.Fatalf("want EOS, got a page ending in kind %d", last)
		}
		if _, open := <-got; open {
			t.Fatal("consumer must see the stream closed")
		}
	})
}

// TestRingProducerWake pins the producer side: it parks only on a full ring,
// stays parked until the consumer has drained to half, and a control message
// wakes it at once (invariant ii) — to park again, the ring being still full.
func TestRingProducerWake(t *testing.T) {
	testguard.Within(t, time.Minute, func() {
		c := New(Options{PageSize: 1, Depth: 8})
		pushed := make(chan struct{})
		go func() {
			defer close(pushed)
			for i := 0; i < 9; i++ {
				c.PutTuple(tupleOf(int64(i)))
			}
		}()
		for c.Stats().ProducerParks == 0 {
			runtime.Gosched()
		}
		if d := c.Depth(); d != 8 {
			t.Fatalf("producer parked at depth %d, want the full ring", d)
		}
		c.SendFeedback(feedbackSeq(1))
		for c.Stats().ProducerParks < 2 {
			runtime.Gosched()
		}
		for i := 0; i < 3; i++ {
			Release(c.TryRecv())
			c.mu.Lock()
			armed := c.prodArmed
			c.mu.Unlock()
			if !armed {
				t.Fatalf("producer woken with %d of 8 pages still queued", 8-i-1)
			}
		}
		Release(c.TryRecv()) // half empty
		<-pushed
		if got := c.PollControl(); len(got) != 1 {
			t.Fatalf("control batch: %+v", got)
		}
	})
}

// TestWakeSharedByInputs drives a two-input consumer parked on one Wake: a
// page on either ring must get it out, and both streams arrive whole.
func TestWakeSharedByInputs(t *testing.T) {
	testguard.Within(t, time.Minute, func() {
		w := NewWake()
		a, b := New(Options{PageSize: 2, Depth: 4}), New(Options{PageSize: 2, Depth: 4})
		a.Bind(w, NewWake())
		b.Bind(w, NewWake())
		const n = 5000
		for _, c := range []*Conn{a, b} {
			go func() {
				for i := int64(0); i < n; i++ {
					c.PutTuple(tupleOf(i))
					if i%97 == 0 {
						yield(3)
					}
				}
				c.CloseSend()
			}()
		}
		next := [2]int64{}
		open := 2
		for open > 0 {
			idle := true
			for in, c := range []*Conn{a, b} {
				p := c.TryRecv()
				if p == nil {
					continue
				}
				idle = false
				for _, it := range p.Items {
					switch it.Kind {
					case ItemEOS:
						open--
					case ItemTuple:
						if it.Tuple.At(0).AsInt() != next[in] {
							t.Errorf("input %d: got %d want %d", in, it.Tuple.At(0).AsInt(), next[in])
							return
						}
						next[in]++
					}
				}
				Release(p)
			}
			if idle && open > 0 {
				w.Park(nil)
			}
		}
		if next != [2]int64{n, n} {
			t.Fatalf("received %v tuples", next)
		}
	})
}

// TestPollControlReleasesDelivered pins the batch contract: messages come
// out oldest first, and the batch handed out is cleared by the next call so
// a long-lived edge does not keep delivered feedback reachable.
func TestPollControlReleasesDelivered(t *testing.T) {
	c := New(DefaultOptions())
	for i := int64(0); i < 3; i++ {
		c.SendFeedback(feedbackSeq(i))
	}
	first := c.PollControl()
	if len(first) != 3 {
		t.Fatalf("batch of %d, want 3", len(first))
	}
	for i, m := range first {
		if m.Feedback.Seq != int64(i) {
			t.Fatalf("batch out of order: %+v", first)
		}
	}
	c.SendControl(Control{Kind: CtrlShutdown})
	if second := c.PollControl(); len(second) != 1 || second[0].Kind != CtrlShutdown {
		t.Fatalf("second batch: %+v", second)
	}
	for i, m := range first {
		if m.Feedback.Pattern.Arity() != 0 || m.Feedback.Seq != 0 {
			t.Fatalf("delivered message %d still reachable from the queue: %+v", i, m)
		}
	}
	if n := c.Stats().Controls; n != 4 {
		t.Fatalf("Controls = %d, want 4", n)
	}
}
