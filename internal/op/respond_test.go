package op_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fuse"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/window"
)

// One suite against the enactor (core.Responder) for every responding
// operator × intent × Mode × Propagate: what the operator did is its own
// Characterize clamped by its configuration, what it relayed is safe
// (Definition 2), and what it remembers is bounded.

var readings = stream.MustSchema(
	stream.F("segment", stream.KindInt),
	stream.F("detector", stream.KindInt),
	stream.F("ts", stream.KindTime),
	stream.F("speed", stream.KindFloat),
)

const minuteUS = int64(60_000_000)

func reading(seg, det, ts int64, speed float64) stream.Tuple {
	return stream.NewTuple(stream.Int(seg), stream.Int(det), stream.TimeMicros(ts), stream.Float(speed))
}

// probe is a small stream with every segment in every window.
func probe() []stream.Tuple {
	var ts []stream.Tuple
	for i := int64(0); i < 48; i++ {
		ts = append(ts, reading(i%4, i%3, i*minuteUS/8, float64(40+i%25)))
	}
	return ts
}

// responder is what the suite needs of an operator under test.
type responder interface {
	exec.Operator
	core.Characterizer
	Trace() []core.Response
	Tables() []*core.GuardTable
}

type respondCase struct {
	name  string
	build func(mode op.FeedbackMode, propagate bool) responder
	// port receives the feedback; others, when set, assert it first (the
	// unanimity cases).
	port   int
	others []int
	// pattern is over the output schema of port.
	pattern punct.Pattern
	// keeps marks an operator that relays no feedback upstream: it runs
	// with propagate false only.
	keeps bool
}

var respondCases = []respondCase{
	{name: "select", pattern: punct.OnAttr(4, 0, punct.Eq(stream.Int(3))),
		build: func(m op.FeedbackMode, p bool) responder {
			return &op.Select{Schema: readings, Mode: m, Propagate: p}
		}},
	{name: "project", pattern: punct.OnAttr(2, 0, punct.Eq(stream.Int(3))),
		build: func(m op.FeedbackMode, p bool) responder {
			return &op.Project{In: readings, Keep: []string{"segment", "speed"}, Mode: m, Propagate: p}
		}},
	{name: "map (carried)", pattern: punct.OnAttr(2, 0, punct.Eq(stream.Int(3))),
		build: func(m op.FeedbackMode, p bool) responder { return kphMap(m, p) }},
	{name: "map (computed)", pattern: punct.OnAttr(2, 1, punct.Ge(stream.Float(90))),
		build: func(m op.FeedbackMode, p bool) responder { return kphMap(m, p) }},
	{name: "impute", pattern: punct.OnAttr(4, 2, punct.Lt(stream.TimeMicros(2*minuteUS))), keeps: true,
		build: func(m op.FeedbackMode, _ bool) responder { return imputeOp(m) }},
	{name: "impute (imputed attribute)", pattern: punct.OnAttr(4, 3, punct.Ge(stream.Float(50))), keeps: true,
		build: func(m op.FeedbackMode, _ bool) responder { return imputeOp(m) }},
	{name: "merge (union)", pattern: punct.OnAttr(4, 0, punct.Eq(stream.Int(3))),
		build: func(m op.FeedbackMode, p bool) responder {
			return &op.Merge{Schema: readings, K: 2, Mode: m, Propagate: p}
		}},
	{name: "duplicate (first consumer)", port: 1, pattern: punct.OnAttr(4, 0, punct.Eq(stream.Int(3))),
		build: func(m op.FeedbackMode, p bool) responder {
			return &op.Duplicate{Schema: readings, N: 2, Mode: m, Propagate: p}
		}},
	{name: "duplicate (last consumer)", port: 1, others: []int{0}, pattern: punct.OnAttr(4, 0, punct.Eq(stream.Int(3))),
		build: func(m op.FeedbackMode, p bool) responder {
			return &op.Duplicate{Schema: readings, N: 2, Mode: m, Propagate: p}
		}},
	{name: "split (unpinned, first partition)", port: 0, pattern: punct.OnAttr(4, 2, punct.Lt(stream.TimeMicros(2*minuteUS))),
		build: func(m op.FeedbackMode, p bool) responder { return splitOp(m, p) }},
	{name: "split (unpinned, last partition)", port: 0, others: []int{1}, pattern: punct.OnAttr(4, 2, punct.Lt(stream.TimeMicros(2*minuteUS))),
		build: func(m op.FeedbackMode, p bool) responder { return splitOp(m, p) }},
	{name: "split (key-pinned)", port: homeOf(3), pattern: punct.OnAttr(4, 0, punct.Eq(stream.Int(3))),
		build: func(m op.FeedbackMode, p bool) responder { return splitOp(m, p) }},
	{name: "prioritize", pattern: punct.OnAttr(4, 0, punct.Eq(stream.Int(3))), keeps: true,
		build: func(m op.FeedbackMode, _ bool) responder {
			return &op.Prioritize{Schema: readings, BufferCap: 8, Mode: m}
		}},
	{name: "aggregate (group)", pattern: punct.OnAttr(3, 0, punct.Eq(stream.Int(3))),
		build: func(m op.FeedbackMode, p bool) responder { return countOp(m, p) }},
	{name: "aggregate (value, monotone)", pattern: punct.OnAttr(3, 2, punct.Ge(stream.Float(2))),
		build: func(m op.FeedbackMode, p bool) responder { return countOp(m, p) }},
	{name: "aggregate (value, exact)", pattern: punct.OnAttr(3, 2, punct.Eq(stream.Float(2))),
		build: func(m op.FeedbackMode, p bool) responder { return countOp(m, p) }},
	{name: "aggregate (window-bound)", pattern: punct.OnAttr(3, 1, punct.Le(stream.TimeMicros(2*minuteUS))),
		build: func(m op.FeedbackMode, p bool) responder { return countOp(m, p) }},
	{name: "join (join attribute)", pattern: punct.OnAttr(4, 0, punct.Eq(stream.Int(3))),
		build: func(m op.FeedbackMode, p bool) responder { return joinOp(m, p) }},
	{name: "join (left only)", pattern: punct.OnAttr(4, 1, punct.Eq(stream.Int(1))),
		build: func(m op.FeedbackMode, p bool) responder { return joinOp(m, p) }},
	{name: "join (both sides)", pattern: punct.NewPattern(punct.Wild, punct.Eq(stream.Int(1)), punct.Wild, punct.Ge(stream.Float(50))),
		build: func(m op.FeedbackMode, p bool) responder { return joinOp(m, p) }},
}

func kphMap(m op.FeedbackMode, p bool) *op.Map {
	return &op.Map{In: readings, Mode: m, Propagate: p, Outs: []op.MapAttr{
		op.Carry("segment"),
		op.Compute("kph", stream.KindFloat, func(t stream.Tuple) stream.Value { return stream.Float(t.At(3).AsFloat() * 1.6) }),
	}}
}

func imputeOp(m op.FeedbackMode) *op.Impute {
	store := archive.NewStore(1)
	store.SeedDiurnal(4, 3)
	return &op.Impute{Schema: readings, SegAttr: 0, DetAttr: 1, TsAttr: 2, SpeedAttr: 3, Store: store, Mode: m}
}

func splitOp(m op.FeedbackMode, p bool) *op.Split {
	return &op.Split{Schema: readings, N: 2, Key: []int{0}, Mode: m, Propagate: p}
}

// homeOf is the partition splitOp routes a segment to.
func homeOf(seg int64) int {
	s := splitOp(op.FeedbackIgnore, false)
	tr := exec.Drive(s, exec.Tuples(0, reading(seg, 0, 0, 0)))
	for port, out := range tr.Out {
		if len(out.Tuples()) == 1 {
			return port
		}
	}
	panic("unrouted")
}

func countOp(m op.FeedbackMode, p bool) *op.Aggregate {
	return &op.Aggregate{In: readings, Kind: core.AggCount, TsAttr: 2, ValAttr: -1, GroupBy: []int{0},
		Window: window.Tumbling(minuteUS), Mode: m, Propagate: p}
}

// joinOp joins readings (less their speed) with a per-segment limit on
// segment: output (segment, detector, ts, limit), L = {detector, ts},
// J = {segment}, R = {limit}.
var rightSide = stream.MustSchema(stream.F("segment", stream.KindInt), stream.F("limit", stream.KindFloat))

func joinOp(m op.FeedbackMode, p bool) *op.Join {
	left := stream.MustSchema(stream.F("segment", stream.KindInt), stream.F("detector", stream.KindInt), stream.F("ts", stream.KindTime))
	return &op.Join{Left: left, Right: rightSide, LeftKeys: []int{0}, RightKeys: []int{0},
		LeftTs: -1, RightTs: -1, Mode: m, Propagate: p}
}

// feed runs the probe stream through a fresh operator, input by input, minus
// the tuples drop says to leave out, and returns what came out of port.
func feed(o exec.Operator, port int, drop func(input int, t stream.Tuple) bool) []stream.Tuple {
	var script []exec.Script
	for input, schema := range o.InSchemas() {
		for _, t := range probe() {
			if schema.Arity() == 3 {
				t = stream.NewTuple(t.At(0), t.At(1), t.At(2))
			} else if schema.Arity() == 2 {
				t = stream.NewTuple(t.At(0), stream.Float(45+float64(t.At(1).AsInt())*5))
			}
			if !drop(input, t) {
				script = append(script, exec.Tuples(input, t))
			}
		}
	}
	for input := range o.InSchemas() {
		script = append(script, exec.EOS(input))
	}
	tr := exec.Drive(o, script...)
	if tr.Err != nil {
		panic(tr.Err)
	}
	return tr.Out[port].Tuples()
}

var (
	intents = []core.Intent{core.Assumed, core.Desired, core.Demanded}
	modes   = []op.FeedbackMode{op.FeedbackIgnore, op.FeedbackGuardOutput, op.FeedbackExploit}
)

func TestRespondersEnactTheirCharacterization(t *testing.T) {
	for _, c := range respondCases {
		for _, intent := range intents {
			for _, mode := range modes {
				for _, propagate := range []bool{false, true} {
					if propagate && c.keeps {
						continue
					}
					name := fmt.Sprintf("%s/%s/%s/propagate=%v", c.name, intent, mode, propagate)
					t.Run(name, func(t *testing.T) { checkResponse(t, c, intent, mode, propagate) })
				}
			}
		}
	}
}

func checkResponse(t *testing.T, c respondCase, intent core.Intent, mode op.FeedbackMode, propagate bool) {
	o := c.build(mode, propagate)
	f := core.Feedback{Intent: intent, Pattern: c.pattern, Origin: "suite", Hops: 2, Seq: 9}
	var script []exec.Script
	if intent != core.Desired { // desired feedback waits for no one, and travels once
		for _, port := range c.others {
			script = append(script, exec.Feedback(port, f))
		}
	}
	var (
		want   core.ResponsePlan
		before []int // what each input had been sent before c.port's feedback
		row    core.Response
		sentBy [][]core.Feedback
	)
	ring := make([]core.Feedback, 10*core.TraceCap)
	for i := range ring {
		ring[i] = f
	}
	tr := exec.Drive(o, append(script,
		exec.Call(func(tr *exec.Trace) {
			for _, sent := range tr.Sent {
				before = append(before, len(sent))
			}
			want = o.Characterize(c.port, f).Clamp(intent, mode, propagate)
		}),
		exec.Feedback(c.port, f),
		exec.Call(func(tr *exec.Trace) {
			trace := o.Trace()
			row = trace[len(trace)-1]
			for input, sent := range tr.Sent {
				sentBy = append(sentBy, sent[before[input]:])
			}
		}),
		// The trace is a ring.
		exec.Feedback(c.port, ring...))...)
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}

	if !reflect.DeepEqual(row.Actions, want.Actions) {
		t.Fatalf("did %v, the clamped characterization says %v", row.Actions, want.Actions)
	}
	if !row.Feedback.Pattern.Equal(f.Pattern) || row.Feedback.Seq != f.Seq {
		t.Fatalf("trace row is about %v, want %v", row.Feedback, f)
	}
	if mode == op.FeedbackIgnore && !reflect.DeepEqual(want.Actions, []core.Action{core.ActNone}) {
		t.Fatalf("an ignoring operator's plan is %v, want the null response", want.Actions)
	}
	// Mode is enforced by the clamp alone: an ignoring operator's data path
	// probes tables that nothing fills.
	for i, table := range o.Tables() {
		if mode == op.FeedbackIgnore && table.Active() != 0 {
			t.Fatalf("an ignoring operator holds %v in table %d of %d", table.Guards(), i, len(o.Tables()))
		}
	}
	if mode == op.FeedbackGuardOutput {
		for _, a := range want.Actions {
			if a != core.ActNone && a != core.ActGuardOutput {
				t.Fatalf("a guard-output operator's plan is %v", want.Actions)
			}
		}
	}

	for input := range o.InSchemas() {
		sent := sentBy[input]
		var wantPat *punct.Pattern
		if input < len(want.Propagate) {
			wantPat = want.Propagate[input]
		}
		if wantPat == nil {
			if len(sent) != 0 {
				t.Fatalf("input %d: relayed %v, the plan relays nothing there", input, sent)
			}
			continue
		}
		if len(sent) != 1 || !sent[0].Pattern.Equal(*wantPat) {
			t.Fatalf("input %d: relayed %v, the plan says %v", input, sent, wantPat)
		}
		if got := sent[0]; got.Intent != intent || got.Origin != f.Origin || got.Seq != f.Seq || got.Hops != f.Hops+1 {
			t.Fatalf("input %d: relayed %+v does not carry on %+v", input, got, f)
		}
		if row.Propagated[input] == nil || !row.Propagated[input].Pattern.Equal(*wantPat) {
			t.Fatalf("input %d: trace row records %v", input, row.Propagated)
		}
		if intent != core.Assumed {
			continue // Definitions 1 and 2 are about assumed feedback
		}
		// Definition 2: whatever an antecedent does with the relayed pattern,
		// up to never producing the subset, leaves this operator's output
		// within Definition 1's bounds for the feedback it received.
		reference := feed(c.build(op.FeedbackIgnore, false), c.port, func(int, stream.Tuple) bool { return false })
		starved := feed(c.build(op.FeedbackIgnore, false), c.port, func(in int, tp stream.Tuple) bool {
			return in == input && wantPat.Matches(tp)
		})
		if rep := core.CheckExploitation(reference, starved, f); !rep.OK() {
			t.Fatalf("input %d: relaying %v for %v is unsafe: %v", input, wantPat, f, rep.Err())
		}
		if len(reference) == len(starved) {
			t.Fatalf("input %d: the probe stream has nothing matching %v: the check is vacuous", input, wantPat)
		}
	}

	if n := len(o.Trace()); n > core.TraceCap {
		t.Fatalf("trace holds %d responses after %d feedbacks, capacity %d", n, 10*core.TraceCap+1, core.TraceCap)
	}
}

// A source responds too: a feedback-aware one guards its output, an unaware
// one ignores what it hears, and neither has anything upstream.
func TestSourcesEnactTheirCharacterization(t *testing.T) {
	pattern := punct.OnAttr(4, 0, punct.Eq(stream.Int(3)))
	type source interface {
		exec.Source
		Trace() []core.Response
	}
	builds := map[string]func(aware bool) source{
		"slice": func(aware bool) source {
			s := exec.NewSliceSource("src", readings, probe()...)
			s.FeedbackAware = aware
			return s
		},
		"reader": func(aware bool) source {
			s := exec.NewReaderSource("src", readings, strings.NewReader(""))
			s.FeedbackAware = aware
			return s
		},
		"rated": func(aware bool) source {
			return &gen.RatedSource{Schema: readings, Items: []queue.Item{queue.TupleItem(reading(3, 0, 0, 1))}, PerSecond: 1e12, FeedbackAware: aware}
		},
		"traffic": func(aware bool) source {
			return &gen.TrafficSource{Config: gen.TrafficConfig{Duration: 20_000_000, FeedbackAware: aware}}
		},
		"probes": func(aware bool) source {
			return &gen.ProbeSource{Config: gen.ProbeConfig{Duration: 20_000_000, FeedbackAware: aware}}
		},
	}
	for name, build := range builds {
		for _, aware := range []bool{false, true} {
			for _, intent := range intents {
				t.Run(fmt.Sprintf("%s/aware=%v/%s", name, aware, intent), func(t *testing.T) {
					src := build(aware)
					p := pattern
					if n := src.OutSchemas()[0].Arity(); n != p.Arity() {
						p = punct.OnAttr(n, 0, punct.Eq(stream.Int(3)))
					}
					fs := make([]core.Feedback, 10*core.TraceCap+1)
					for i := range fs {
						fs[i] = core.Feedback{Intent: intent, Pattern: p}
					}
					if err := exec.DriveSource(src, fs...).Err; err != nil {
						t.Fatal(err)
					}
					want := []core.Action{core.ActNone}
					if aware && intent == core.Assumed {
						want = []core.Action{core.ActGuardOutput}
					}
					trace := src.Trace()
					if got := trace[len(trace)-1].Actions; !reflect.DeepEqual(got, want) {
						t.Fatalf("did %v, want %v", got, want)
					}
					if len(trace) > core.TraceCap {
						t.Fatalf("trace holds %d responses, capacity %d", len(trace), core.TraceCap)
					}
				})
			}
		}
	}
}

// A fused step enacts the very function its constituent declares.
func TestFusedStepsEnactTheirConstituents(t *testing.T) {
	for _, intent := range intents {
		for _, mode := range modes {
			for _, propagate := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/propagate=%v", intent, mode, propagate), func(t *testing.T) {
					chain := []exec.Operator{
						&op.Select{OpName: "hot", Schema: readings, Mode: mode, Propagate: propagate},
						&op.Project{OpName: "keep", In: readings, Keep: []string{"segment", "speed"}, Mode: mode, Propagate: propagate},
					}
					kph := &op.Map{OpName: "kph", In: chain[1].OutSchemas()[0], Mode: mode, Propagate: propagate, Outs: []op.MapAttr{
						op.Carry("segment"),
						op.Compute("kph", stream.KindFloat, func(t stream.Tuple) stream.Value { return stream.Float(t.At(1).AsFloat() * 1.6) }),
					}}
					chain = append(chain, kph)
					fused, err := fuse.New(chain)
					if err != nil {
						t.Fatal(err)
					}
					f := core.Feedback{Intent: intent, Pattern: punct.OnAttr(2, 0, punct.Eq(stream.Int(3))), Origin: "suite", Seq: 4}
					tr := exec.Drive(fused, exec.Feedback(0, f))
					if err := tr.Err; err != nil {
						t.Fatal(err)
					}
					// Walk the constituents the way the feedback did.
					cur, alive := f, true
					for i := len(chain) - 1; i >= 0; i-- {
						trace := fused.StepTrace(i)
						if !alive {
							if len(trace) != 0 {
								t.Fatalf("step %d responded to feedback that stopped below it", i)
							}
							continue
						}
						want := chain[i].(core.Characterizer).Characterize(0, cur).Clamp(intent, mode, propagate)
						if len(trace) != 1 || !reflect.DeepEqual(trace[0].Actions, want.Actions) {
							t.Fatalf("step %d did %+v, its constituent's clamped characterization says %v", i, trace, want.Actions)
						}
						if alive = want.Did(core.ActPropagate); alive {
							cur = cur.Relayed(*want.Propagate[0])
						}
					}
					sent := tr.Sent[0]
					if alive != (len(sent) == 1) || alive && !reflect.DeepEqual(sent[0], cur) {
						t.Fatalf("left the kernel: %v, want %v (alive=%v)", sent, cur, alive)
					}
				})
			}
		}
	}
}
