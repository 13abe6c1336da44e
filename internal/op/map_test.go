package op

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/stream"
)

func kmhMap(mode FeedbackMode, propagate bool) *Map {
	return &Map{
		OpName: "to-kmh", In: trafficSchema,
		Outs: []MapAttr{
			Carry("segment"),
			MapAttr{Name: "when", From: "ts"},
			Compute("speed_kmh", stream.KindFloat, func(t stream.Tuple) stream.Value {
				v := t.At(3)
				if v.IsNull() {
					return stream.Null
				}
				return stream.Float(v.AsFloat() * 1.609344)
			}),
		},
		Mode: mode, Propagate: propagate,
	}
}

func TestMapTransforms(t *testing.T) {
	m := kmhMap(FeedbackIgnore, false)
	out := m.OutSchemas()[0]
	if out.Arity() != 3 || out.Index("speed_kmh") != 2 || out.Field(1).Kind != stream.KindTime {
		t.Fatalf("schema: %s", out)
	}
	got := exec.Drive(m, exec.Tuples(0, traffic(3, 1, 500, 50))).Out[0].Tuples()
	if len(got) != 1 || got[0].At(2).AsFloat() != 50*1.609344 {
		t.Fatalf("transform: %v", got)
	}
	if got[0].At(0).AsInt() != 3 || got[0].At(1).Micros() != 500 {
		t.Error("carried attributes")
	}
}

func TestMapPunctRelayRules(t *testing.T) {
	m := kmhMap(FeedbackIgnore, false)
	var ps []punct.Embedded
	tr := exec.Drive(m,
		// ts is carried (as "when"): relays projected.
		exec.Punct(0, tsPunct(100)),
		exec.Call(func(tr *exec.Trace) { ps = puncts(tr.Out[0]) }),
		// speed punctuation binds an uncarried attribute: consumed.
		exec.Punct(0, punct.NewEmbedded(punct.OnAttr(4, 3, punct.Ge(stream.Float(50))))))
	if len(ps) != 1 || ps[0].Pattern.Bound()[0] != 1 {
		t.Fatalf("carried punct: %v", ps)
	}
	if len(puncts(tr.Out[0])) != 1 {
		t.Error("punct on an uncarried attribute must not relay")
	}
}

func TestMapFeedback(t *testing.T) {
	m := kmhMap(FeedbackExploit, true)
	// Feedback on a carried attribute: guard + propagate.
	f := core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(3))))
	var sent []core.Feedback
	var guarded int
	tr := exec.Drive(m, exec.Feedback(0, f),
		exec.Call(func(tr *exec.Trace) { sent = tr.Sent[0] }),
		exec.Tuples(0, traffic(3, 1, 500, 50)),
		exec.Call(func(tr *exec.Trace) { guarded = len(tr.Out[0].Tuples()) }),
		// Feedback on the computed attribute: guard output only, no
		// propagation.
		exec.Feedback(0, core.NewAssumed(punct.OnAttr(3, 2, punct.Ge(stream.Float(100))))),
		exec.Tuples(0,
			traffic(4, 1, 600, 80), // 128.7 km/h ≥ 100: suppressed
			traffic(4, 1, 700, 30), // 48.3 km/h: passes
		))
	if len(sent) != 1 || sent[0].Pattern.Arity() != 4 {
		t.Fatalf("propagation: %v", sent)
	}
	if guarded != 0 {
		t.Fatal("guarded map must suppress")
	}
	if len(tr.Sent[0]) != 1 {
		t.Error("computed-attribute feedback must not propagate")
	}
	got := tr.Out[0].Tuples()
	if len(got) != 1 || got[0].At(1).Micros() != 700 {
		t.Fatalf("computed guard: %v", got)
	}
}

func TestMapDefinition1(t *testing.T) {
	input := []stream.Tuple{
		traffic(1, 1, 10, 50), traffic(2, 1, 20, 80), traffic(3, 1, 30, 20),
	}
	fb := core.NewAssumed(punct.OnAttr(3, 2, punct.Ge(stream.Float(100))))
	run := func(mode FeedbackMode) []stream.Tuple {
		m := kmhMap(mode, false)
		return exec.Drive(m, exec.Feedback(0, fb), exec.Tuples(0, input...)).Out[0].Tuples()
	}
	if err := core.CheckExploitation(run(FeedbackIgnore), run(FeedbackExploit), fb).Err(); err != nil {
		t.Fatal(err)
	}
}

func TestMapValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown carried attribute must panic at init")
		}
	}()
	m := &Map{In: trafficSchema, Outs: []MapAttr{Carry("nope")}}
	m.OutSchemas()
}
