package experiments

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/stream"
)

// TestScenarioReports pins what the §3 scenarios' sections print: each
// plan's feedback stays on one goroutine, so every run prints the same bytes.
func TestScenarioReports(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(io.Writer) error
		want string
	}{
		{"zoom", Zoom, `viewer: zoomed into segments 3-4 for minutes 2-5, then out: 4 assumed feedbacks ¬[{0|1|2|5|6|7|8}, minute, *]
map cells rendered: 512 of 540
σ-quality: 3360 readings suppressed before the filter cost
After minute 5 each zoom pattern has expired with the stream's own
punctuation: zooming out sends no retraction (§4.4).
`},
		{"demanded", Demanded, `speculator: one second into minute 1, demands !["EUR/USD", *, *]
results in arrival order:
  EUR/USD @00:00:00 rate=1.2077
  GBP/USD @00:00:00 rate=0.8138
  USD/JPY @00:00:00 rate=1.7137
  EUR/USD @00:01:00 rate=1.2253  partial, on demand
  EUR/USD @00:01:00 rate=1.2313
  GBP/USD @00:01:00 rate=0.8144
  USD/JPY @00:01:00 rate=1.7191
core.CheckDemanded: every exact average of the run without the demand appears, and the 1 extra is inside the demanded subset
A partial answer in time beats a full answer too late.
`},
		{"desired", Desired, `join: 10 results for the probe car's cells, 10 desired punctuations sent
prioritize: 8 sensor readings promoted past the buffer
result production order (periods): [20 21 22 23 24 25 26 27 28 29]
core.CheckDesired: the 10 results equal those of the run that ignores feedback
Promotion changes the ORDER results are produced in; the result SET
stays (the desired-punctuation contract).
`},
	} {
		t.Run(c.name, func(t *testing.T) {
			var sb strings.Builder
			if err := c.run(&sb); err != nil {
				t.Fatal(err)
			}
			if sb.String() != c.want {
				t.Errorf("printed:\n%s\nwant:\n%s", sb.String(), c.want)
			}
		})
	}
}

// TestDemandedPartialBeforeFinal: the speculator's demand reaches AVERAGE
// while EUR/USD's second window is open, so a partial EUR/USD average
// arrives before that window's exact one, and the run keeps the demanded
// contract against the run without the demand (core.CheckDemanded).
func TestDemandedPartialBeforeFinal(t *testing.T) {
	reference, err := runDemanded(false)
	if err != nil {
		t.Fatal(err)
	}
	actual, err := runDemanded(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep := core.CheckDemanded(reference, actual, eurUSD); !rep.OK() || rep.Partials == 0 {
		t.Fatalf("CheckDemanded: %+v", rep)
	}
	first := map[string]int{}
	early := 0
	for i, r := range actual {
		k := r.Key([]int{0, 1})
		if _, seen := first[k]; seen && eurUSD.Matches(r) {
			early++
		} else if !seen {
			first[k] = i
		}
	}
	if early == 0 {
		t.Errorf("no EUR/USD partial arrived before its window's exact average: %v", actual)
	}
}

// desiredOutcome is what one run of the desired plan shows: its results in
// production order and the counts its report prints.
type desiredOutcome struct {
	results                 []string
	emitted, sent, promoted int64
}

func runDesiredOnce(t *testing.T, mode op.FeedbackMode) ([]stream.Tuple, desiredOutcome) {
	t.Helper()
	ts, prio, join, err := runDesired(trafficReports(), mode)
	if err != nil {
		t.Fatal(err)
	}
	o := desiredOutcome{emitted: join.Stats().Emitted, sent: join.Stats().ImpatientSent}
	_, _, o.promoted, _ = prio.Stats()
	for _, r := range ts {
		o.results = append(o.results, r.String())
	}
	return ts, o
}

// TestDesiredIsDeterministic: the plan runs on one goroutine, so every run
// under either mode produces the same results in the same order and the
// same counts.
func TestDesiredIsDeterministic(t *testing.T) {
	for _, mode := range []op.FeedbackMode{op.FeedbackIgnore, op.FeedbackExploit} {
		_, first := runDesiredOnce(t, mode)
		for i := 0; i < 5; i++ {
			if _, again := runDesiredOnce(t, mode); !reflect.DeepEqual(again, first) {
				t.Fatalf("mode %v run %d: %+v, first run %+v", mode, i+2, again, first)
			}
		}
	}
}

// TestDesiredPromotesAndKeepsTheResultSet: under exploitation the join's
// desired feedback crosses the split and PRIORITIZE promotes the sensor
// readings it names; the results equal those of the run that ignores
// feedback (core.CheckDesired), and that run sends and promotes nothing.
func TestDesiredPromotesAndKeepsTheResultSet(t *testing.T) {
	reference, ignored := runDesiredOnce(t, op.FeedbackIgnore)
	actual, exploited := runDesiredOnce(t, op.FeedbackExploit)
	if ignored.sent != 0 || ignored.promoted != 0 {
		t.Errorf("ignoring feedback sent %d and promoted %d", ignored.sent, ignored.promoted)
	}
	if exploited.emitted != 10 || exploited.sent != 10 {
		t.Errorf("join emitted %d and sent %d desired punctuations, want 10 and 10", exploited.emitted, exploited.sent)
	}
	if exploited.promoted == 0 {
		t.Error("no sensor reading was promoted: the desired feedback did not reach PRIORITIZE")
	}
	if rep := core.CheckDesired(reference, actual, probeCells); !rep.OK() || rep.SubsetCount != 10 {
		t.Errorf("CheckDesired: %+v", rep)
	}
}
