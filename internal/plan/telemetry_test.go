package plan

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/fuse"
	"repro/internal/op"
	"repro/internal/remote"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// TestOneHelpPerSeriesName collects the vars of every telemetry.VarExporter
// in the engine: a series name in /metrics has one HELP line, so two
// exporters that register one name must mean one thing by it.
func TestOneHelpPerSeriesName(t *testing.T) {
	sch := stream.MustSchema(stream.F("a", stream.KindInt), stream.F("v", stream.KindFloat))
	chain := func() []exec.Operator {
		return []exec.Operator{
			&op.Select{OpName: "sel", Schema: sch, Cond: func(stream.Tuple) bool { return true }},
			&op.Map{OpName: "double", In: sch, Outs: []op.MapAttr{
				op.Carry("a"),
				op.Compute("v", stream.KindFloat, func(t stream.Tuple) stream.Value { return stream.Float(2 * t.At(1).F) }),
			}},
		}
	}
	kernel := func() *fuse.Fused {
		f, err := fuse.New(chain())
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	prefixed, err := fuse.NewPrefixed(&op.Duplicate{OpName: "dup", Schema: sch}, []*fuse.Fused{kernel()})
	if err != nil {
		t.Fatal(err)
	}
	exporters := []any{kernel(), prefixed, &op.Duplicate{Schema: sch}, &remote.Sink{}, &remote.Source{}}
	for _, o := range chain() {
		exporters = append(exporters, o)
	}

	help := map[string]string{}
	for _, e := range exporters {
		ve, ok := e.(telemetry.VarExporter)
		if !ok {
			t.Fatalf("%T exports no vars", e)
		}
		for _, v := range ve.TelemetryVars() {
			if h, seen := help[v.Name]; seen && h != v.Help {
				t.Errorf("%s (%T) is %q, elsewhere %q", v.Name, e, v.Help, h)
			}
			help[v.Name] = v.Help
		}
	}
}
