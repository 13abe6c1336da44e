package queue

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/testguard"
)

// The wait tests are single-goroutine and count-based: the Wake under test
// gets a yield of the test's own, which counts the rounds and plays the peer
// between two polls, and a closed done stands in for "nobody ever signals".
// Each runs with one processor (no budget: the wait blocks at once) and with
// more (waitRounds polls first).

func eachBudget(t *testing.T, f func(t *testing.T, budget int)) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			budget := 0
			if procs > 1 {
				budget = waitRounds
			}
			testguard.Within(t, time.Minute, func() { f(t, budget) })
		})
	}
}

// node wires one Wake between an input ring and an output ring, the way the
// runtime binds a node, and counts its yields.
func node(opts Options) (w *Wake, in, out *Conn, rounds *int) {
	w, in, out = NewWake(), New(opts), New(opts)
	in.Bind(w, NewWake())
	out.Bind(NewWake(), w)
	rounds = new(int)
	w.yield = func() { *rounds++ }
	return
}

func closedDone() <-chan struct{} {
	done := make(chan struct{})
	close(done)
	return done
}

// TestWaitIsBounded: a wait that nothing ends yields exactly the budget and
// then parks — once per wake-up, however empty the wake-up was — and a
// producer's wait on a full ring does the same. With one processor neither
// yields at all.
func TestWaitIsBounded(t *testing.T) {
	eachBudget(t, func(t *testing.T, budget int) {
		w, in, out, rounds := node(Options{PageSize: 1, Depth: 4})
		if in.TryRecv() != nil {
			t.Fatal("page on a new ring")
		}
		for wakeups := 1; wakeups <= 3; wakeups++ {
			w.Signal() // a paced source's burst that held nothing for this node
			if !w.Park(nil) {
				t.Fatal("Park reported done")
			}
			if *rounds != wakeups*budget {
				t.Fatalf("%d yields after %d wake-ups, want %d", *rounds, wakeups, wakeups*budget)
			}
		}
		if w.Park(closedDone()) {
			t.Fatal("Park returned on nothing")
		}
		if st := in.Stats(); *rounds != 4*budget || st.ConsumerParks != 4 || st.ConsumerYields != 0 {
			t.Fatalf("%d yields, %+v: want %d yields, 4 parks, no wait ended by yielding", *rounds, st, 4*budget)
		}

		// The producer side: four pages fill the ring, the fifth waits until
		// the consumer walks away.
		*rounds = 0
		pushed := make(chan struct{})
		go func() {
			defer close(pushed)
			for i := int64(0); i < 5; i++ {
				out.PutTuple(tupleOf(i))
			}
		}()
		for out.Stats().ProducerParks == 0 {
			runtime.Gosched()
		}
		out.Abort()
		<-pushed
		if st := out.Stats(); *rounds != budget || st.ProducerParks != 1 || st.ProducerYields != 0 {
			t.Fatalf("%d yields, %+v: want %d yields and one park", *rounds, st, budget)
		}
	})
}

// TestWaitKicksFirst is invariant iii for a waiter that yields: the consumer
// of the node's output sits parked on one unforced page — below half a ring,
// nobody told it — and must have been signalled by the time the node gives
// the processor away for the first time, not only by the time it blocks.
func TestWaitKicksFirst(t *testing.T) {
	eachBudget(t, func(t *testing.T, budget int) {
		w, in, out, rounds := node(Options{PageSize: 1, Depth: 8})
		if out.TryRecv() != nil { // the downstream consumer arms and parks
			t.Fatal("page on a new ring")
		}
		out.PutTuple(tupleOf(1))
		if !out.armed() {
			t.Fatal("one page of a ring of 8 woke the consumer")
		}
		count := w.yield
		w.yield = func() {
			if count(); out.armed() {
				t.Errorf("yield %d on top of a parked consumer", *rounds)
			}
		}
		in.TryRecv()
		w.Park(closedDone())
		if *rounds != budget {
			t.Fatalf("%d yields, want %d", *rounds, budget)
		}
		if out.armed() {
			t.Fatal("parked on top of a parked consumer")
		}
		select {
		case <-out.cons.ch:
		default:
			t.Fatal("the downstream consumer holds no token")
		}
	})
}

// TestWaitSeesControl: feedback sent to a node that is yielding ends its wait
// at the next poll, and the token SendControl left behind — the wait never
// took it — makes one later Park return early, which is all it costs.
func TestWaitSeesControl(t *testing.T) {
	eachBudget(t, func(t *testing.T, budget int) {
		w, in, out, rounds := node(Options{PageSize: 1, Depth: 8})
		in.TryRecv()
		if budget == 0 {
			// One processor: the token is the only way in, and Park takes it.
			out.SendFeedback(feedbackSeq(1))
		} else {
			count := w.yield
			w.yield = func() {
				if count(); *rounds == 3 {
					out.SendFeedback(feedbackSeq(1))
				}
			}
		}
		if !w.Park(nil) {
			t.Fatal("Park reported done")
		}
		if got := out.PollControl(); len(got) != 1 || got[0].Feedback.Seq != 1 {
			t.Fatalf("control batch after the wait: %+v", got)
		}
		if budget == 0 {
			if w.Park(closedDone()) {
				t.Fatal("Park returned on nothing")
			}
			if st := in.Stats(); st.ConsumerParks != 2 || st.ConsumerYields != 0 {
				t.Fatalf("one processor: %+v, want two parks and no yields", st)
			}
			return
		}
		if st := in.Stats(); *rounds != 3 || st.ConsumerYields != 1 || st.ConsumerParks != 0 {
			t.Fatalf("feedback sent in yield 3 was seen after %d yields, %+v", *rounds, st)
		}
		// The stale token: one Park returns with nothing to do, the next one
		// stays.
		if in.TryRecv(); !w.Park(nil) {
			t.Fatal("Park reported done")
		}
		if got := out.PollControl(); got != nil {
			t.Fatalf("control out of nowhere: %+v", got)
		}
		if in.TryRecv(); w.Park(closedDone()) {
			t.Fatal("a second Park returned on one stale token")
		}
		if st := in.Stats(); *rounds != 3+2*budget || st.ConsumerYields != 1 || st.ConsumerParks != 2 {
			t.Fatalf("%d yields, %+v: want %d yields, one wait ended by yielding, two parks", *rounds, st, 3+2*budget)
		}
	})
}
