package core

import (
	"reflect"
	"testing"

	"repro/internal/punct"
	"repro/internal/stream"
)

func TestClamp(t *testing.T) {
	pat := punct.OnAttr(2, 0, punct.Eq(stream.Int(1)))
	full := ResponsePlan{
		Actions:   []Action{ActPurgeState, ActGuardInput, ActPropagate},
		Propagate: []*punct.Pattern{&pat},
	}
	refused := ResponsePlan{Actions: []Action{ActGuardOutput}, Propagate: []*punct.Pattern{nil}}
	relayOnly := ResponsePlan{Actions: []Action{ActPropagate}, Propagate: []*punct.Pattern{&pat}}
	cases := []struct {
		name      string
		plan      ResponsePlan
		intent    Intent
		mode      Mode
		propagate bool
		want      []Action
		relays    bool
	}{
		{"ignore is the null response", full, Assumed, ModeIgnore, true, []Action{ActNone}, false},
		{"ignore relays nothing", relayOnly, Desired, ModeIgnore, true, []Action{ActNone}, false},
		{"guard-output keeps the output guard alone", full, Assumed, ModeGuardOutput, true, []Action{ActGuardOutput}, false},
		{"guard-output is about assumed feedback", relayOnly, Desired, ModeGuardOutput, true, []Action{ActNone}, false},
		{"guard-output invents no exploitation", relayOnly, Assumed, ModeGuardOutput, true, []Action{ActNone}, false},
		{"exploit is the row", full, Assumed, ModeExploit, true, full.Actions, true},
		{"exploit without Propagate stays local", full, Assumed, ModeExploit, false, []Action{ActPurgeState, ActGuardInput}, false},
		{"no pattern survives, nothing to relay", refused, Assumed, ModeExploit, true, []Action{ActGuardOutput}, false},
		{"relay only", relayOnly, Desired, ModeExploit, true, []Action{ActPropagate}, true},
		{"relay only, not asked to", relayOnly, Desired, ModeExploit, false, []Action{ActNone}, false},
	}
	for _, c := range cases {
		got := c.plan.Clamp(c.intent, c.mode, c.propagate)
		if !reflect.DeepEqual(got.Actions, c.want) {
			t.Errorf("%s: actions %v, want %v", c.name, got.Actions, c.want)
		}
		if relays := len(got.Propagate) > 0 && got.Propagate[0] != nil; relays != c.relays {
			t.Errorf("%s: relays=%v, want %v", c.name, relays, c.relays)
		}
	}
}

// fixedRow answers every feedback with one plan.
type fixedRow struct{ plan ResponsePlan }

func (r fixedRow) Characterize(int, Feedback) ResponsePlan { return r.plan }

// upstream records what a responder relays.
type upstream struct{ sent []Feedback }

func (u *upstream) SendFeedback(_ int, f Feedback) { u.sent = append(u.sent, f) }
func (u *upstream) NumInputs() int                 { return 1 }

func TestResponderExpiresEverythingItHolds(t *testing.T) {
	window := func(hi int64) punct.Pattern { return punct.OnAttr(2, 0, punct.Le(ts(hi))) }
	var r Responder[*upstream]
	row := &fixedRow{}
	r.Bind(row, ModeExploit, true, 2, 2)
	demand, desire := r.Holds(Demanded), r.Holds(Desired)
	pin := r.Pinned(0, 2)
	var up upstream
	for round := int64(1); round <= 5; round++ {
		p := window(round * 100)
		row.plan = ResponsePlan{Actions: []Action{ActGuardOutput, ActPropagate}, Propagate: []*punct.Pattern{&p}}
		for port := 0; port < 2; port++ {
			for _, f := range []Feedback{NewAssumed(p), NewDemanded(p), NewDesired(p)} {
				if err := r.Respond(port, f, &up); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A fan-out relays what changes the arrival port's table: the row
		// allows every relay, so each port's first assertion travels, a
		// repeat does not.
		if err := r.Respond(0, NewAssumed(p), &up); err != nil {
			t.Fatal(err)
		}
		pin.Install(NewAssumed(p))
		if got := len(up.sent); got != int(6*round) {
			t.Fatalf("round %d: %d relays, want each pattern once per intent and port", round, got)
		}
		if demand[1].Active() != 1 || desire[1].Active() != 1 {
			t.Fatalf("round %d: every intent is held against the port it arrived on", round)
		}
		r.Observe(0, punct.NewEmbedded(p))
		if pin.Active() != 0 || r.OutTables()[0].Active() != 1 {
			t.Fatalf("round %d: input punctuation expires the input table and no other", round)
		}
		r.Observe(Output, punct.NewEmbedded(p))
		n := 0
		for _, table := range r.Tables() {
			n += table.Active()
		}
		if n != 0 {
			t.Fatalf("round %d: %d entries outlive the punctuation that covers them", round, n)
		}
	}
	if r.Received() != 35 || r.Exploited() != 35 || r.Forwarded() != 30 {
		t.Errorf("counters %d/%d/%d, want 35/35/30", r.Received(), r.Exploited(), r.Forwarded())
	}
}

// Punctuation an operator emits on one port is that port's: its tables and
// the Output-pinned ones release what it covers, the other ports' keep theirs.
func TestEmittedFoldsItsPortAlone(t *testing.T) {
	window := punct.OnAttr(2, 0, punct.Le(ts(100)))
	var r Responder[*upstream]
	row := &fixedRow{plan: ResponsePlan{Actions: []Action{ActGuardOutput}}}
	r.Bind(row, ModeExploit, false, 2, 2)
	demand := r.Holds(Demanded)
	pin := r.Pinned(Output, 2)
	var up upstream
	for port := 0; port < 2; port++ {
		for _, f := range []Feedback{NewAssumed(window), NewDemanded(window)} {
			if err := r.Respond(port, f, &up); err != nil {
				t.Fatal(err)
			}
		}
	}
	pin.Install(NewAssumed(window))
	r.Emitted(0, punct.NewEmbedded(window))
	if r.OutTables()[0].Active() != 0 || demand[0].Active() != 0 || pin.Active() != 0 {
		t.Error("port 0's tables and the Output-pinned one keep what port 0's punctuation covers")
	}
	if r.OutTables()[1].Active() != 1 || demand[1].Active() != 1 {
		t.Error("port 1's tables released a guard on punctuation emitted on port 0")
	}
}
