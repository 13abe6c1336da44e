package main

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/punct"
	"repro/internal/stream"
)

// outcome is what one run of the plan shows: its results in production
// order and the counts the demo prints.
type outcome struct {
	results                 []string
	emitted, sent, promoted int64
}

func runOnce(mode op.FeedbackMode) ([]stream.Tuple, outcome) {
	ts, prio, join := run(reports(), mode)
	o := outcome{emitted: join.Stats().Emitted, sent: join.Stats().ImpatientSent}
	_, _, o.promoted, _ = prio.Stats()
	for _, t := range ts {
		o.results = append(o.results, t.String())
	}
	return ts, o
}

// TestImpatientIsDeterministic: the plan runs on one goroutine, so every
// run under either mode produces the same results in the same order and
// the same counts.
func TestImpatientIsDeterministic(t *testing.T) {
	for _, mode := range []op.FeedbackMode{op.FeedbackIgnore, op.FeedbackExploit} {
		_, first := runOnce(mode)
		for i := 0; i < 5; i++ {
			if _, again := runOnce(mode); !reflect.DeepEqual(again, first) {
				t.Fatalf("mode %v run %d: %+v, first run %+v", mode, i+2, again, first)
			}
		}
	}
}

// TestImpatientPromotesAndKeepsTheResultSet: under exploitation the
// join's desired feedback crosses the split and PRIORITIZE promotes the
// sensor readings it names; the results equal those of the run that
// ignores feedback (core.CheckDesired), and that run sends and promotes
// nothing.
func TestImpatientPromotesAndKeepsTheResultSet(t *testing.T) {
	reference, ignored := runOnce(op.FeedbackIgnore)
	actual, exploited := runOnce(op.FeedbackExploit)
	if ignored.sent != 0 || ignored.promoted != 0 {
		t.Errorf("ignoring feedback sent %d and promoted %d", ignored.sent, ignored.promoted)
	}
	if exploited.emitted != 10 || exploited.sent != 10 {
		t.Errorf("join emitted %d and sent %d desired punctuations, want 10 and 10", exploited.emitted, exploited.sent)
	}
	if exploited.promoted == 0 {
		t.Error("no sensor reading was promoted: the desired feedback did not reach PRIORITIZE")
	}
	subset := core.NewDesired(punct.OnAttr(4, 1, punct.Eq(stream.Int(3))))
	if rep := core.CheckDesired(reference, actual, subset); !rep.OK() || rep.SubsetCount != 10 {
		t.Errorf("CheckDesired: %+v", rep)
	}
}
