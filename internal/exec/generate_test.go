package exec

import (
	"testing"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/stream"
)

// ringGen is an endless generator: each step replays the same ring of
// tuples, closed by the same scripted punctuation.
type ringGen struct {
	Generating
	schema stream.Schema
	ring   []stream.Tuple
	closer punct.Embedded
}

func (g *ringGen) Name() string                { return "ring" }
func (g *ringGen) OutSchemas() []stream.Schema { return []stream.Schema{g.schema} }
func (g *ringGen) Open(Context) error {
	g.Generate(g, Rule{Cost: 1})
	return nil
}
func (g *ringGen) Step(run []stream.Tuple) (Run, error) {
	return Run{Tuples: append(run, g.ring...), Script: &g.closer, More: true}, nil
}

// nullCtx is a Context that drops everything, counting the tuples: an
// allocation measurement sees only the boundary's own.
type nullCtx struct{ tuples int }

func (c *nullCtx) Emit(stream.Tuple)                    { c.tuples++ }
func (c *nullCtx) EmitTo(int, stream.Tuple)             { c.tuples++ }
func (c *nullCtx) EmitBatch(ts []stream.Tuple)          { c.tuples += len(ts) }
func (c *nullCtx) EmitBatchTo(_ int, ts []stream.Tuple) { c.tuples += len(ts) }
func (c *nullCtx) EmitPunct(punct.Embedded)             {}
func (c *nullCtx) EmitPunctTo(int, punct.Embedded)      {}
func (c *nullCtx) SendFeedback(int, core.Feedback)      {}
func (c *nullCtx) ShutdownUpstream(int)                 {}
func (c *nullCtx) NumInputs() int                       { return 0 }

// TestGeneratingEmitsWithoutAllocating pins the source boundary's emit path
// at zero allocations, with an empty guard table and with one live guard
// that drops a quarter of each run: counted, and burning no ingest work.
func TestGeneratingEmitsWithoutAllocating(t *testing.T) {
	schema := stream.MustSchema(stream.F("k", stream.KindInt), stream.F("ts", stream.KindTime))
	g := &ringGen{schema: schema, closer: punct.NewEmbedded(punct.OnAttr(2, 0, punct.Eq(stream.Int(-1))))}
	for i := range 64 {
		g.ring = append(g.ring, stream.NewTuple(stream.Int(int64(i%4)), stream.TimeMicros(int64(i))))
	}
	g.Mode = core.ModeExploit
	ctx := &nullCtx{}
	if err := g.Open(ctx); err != nil {
		t.Fatal(err)
	}
	step := func() {
		if more, err := g.Next(ctx); !more || err != nil {
			panic("the ring ends")
		}
	}
	step() // warm: the run buffer grows once
	for _, guarded := range []bool{false, true} {
		if guarded {
			if err := g.ProcessFeedback(0, core.NewAssumed(punct.OnAttr(2, 0, punct.Eq(stream.Int(1)))), ctx); err != nil {
				t.Fatal(err)
			}
		}
		delivered, before := ctx.tuples, g.Suppressed()
		if n := testing.AllocsPerRun(100, step); n != 0 {
			t.Fatalf("guarded=%v: the boundary allocates %.1f per run of %d tuples, want 0", guarded, n, len(g.ring))
		}
		delivered, dropped := ctx.tuples-delivered, int(g.Suppressed()-before)
		if guarded && (dropped == 0 || 3*dropped != delivered) || !guarded && dropped != 0 {
			t.Fatalf("guarded=%v: delivered %d and suppressed %d, want a quarter of each run suppressed under the guard",
				guarded, delivered, dropped)
		}
	}
	if g.WorkUnits() != int64(ctx.tuples) {
		t.Fatalf("burned %d ingest units for %d delivered tuples at one unit each", g.WorkUnits(), ctx.tuples)
	}
}
