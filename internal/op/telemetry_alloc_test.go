package op

import (
	"testing"

	"repro/internal/stream"
)

// The no-op exec.Context these tests measure against is discardCtx
// (exchange_test.go): a recording sink would otherwise dominate the
// allocation count.

// TestInstrumentedTuplePathAllocs pins the §2 hot-path contract for the
// telemetry counters: converting the operator tuple counters to atomics
// (telemetry.go) must not have introduced allocations on the per-tuple
// path. A regression here means a scrape-visible counter started boxing or
// escaping.
func TestInstrumentedTuplePathAllocs(t *testing.T) {
	s := &Select{Schema: trafficSchema, Mode: FeedbackExploit,
		Cond: func(tu stream.Tuple) bool { return !tu.At(3).IsNull() }}
	if err := s.Open(discardCtx{}); err != nil {
		t.Fatal(err)
	}
	// Arm a guard so the suppressed-counter branch is on the measured path.
	if err := s.ProcessFeedback(0, assumedOnSegment(3), discardCtx{}); err != nil {
		t.Fatal(err)
	}
	pass := traffic(4, 1, 10, 50)
	drop := traffic(3, 1, 20, 60)
	if n := testing.AllocsPerRun(200, func() {
		_ = s.ProcessTuple(0, pass, discardCtx{})
		_ = s.ProcessTuple(0, drop, discardCtx{})
	}); n != 0 {
		t.Fatalf("instrumented tuple path allocates %.1f per run, want 0", n)
	}
}

// TestInstrumentedPunctPathAllocs pins the punctuation observe path: an
// embedded punctuation flowing through an instrumented operator (guard
// lookup, counter update, relay) must stay allocation-free once the
// operator is warm.
func TestInstrumentedPunctPathAllocs(t *testing.T) {
	s := &Select{Schema: trafficSchema, Mode: FeedbackExploit,
		Cond: func(tu stream.Tuple) bool { return true }}
	if err := s.Open(discardCtx{}); err != nil {
		t.Fatal(err)
	}
	e := tsPunct(1_000_000)
	_ = s.ProcessPunct(0, e, discardCtx{}) // warm any lazy state
	if n := testing.AllocsPerRun(200, func() {
		_ = s.ProcessPunct(0, e, discardCtx{})
	}); n != 0 {
		t.Fatalf("instrumented punct path allocates %.1f per run, want 0", n)
	}
}
