// Financial: demanded punctuation (§3.4) — the currency speculator.
//
// A tick stream feeds a one-minute windowed AVERAGE per currency pair. The
// window only closes (and emits) when punctuation passes its end — but the
// speculator's margin of action is a few seconds: a best-guess estimate NOW
// beats the exact answer after the window closes. She sends demanded
// feedback — ![pair, *, *] — and the aggregate unblocks, emitting its
// current partial average immediately while continuing to accumulate the
// exact result.
//
// Run with: go run ./examples/financial
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/stream"
	"repro/internal/window"
)

// speculator is the sink: partway through the stream it demands an early
// answer for EUR/USD.
//
//pace:stateless example sink; its log exists only to be printed at the end of this demo run
type speculator struct {
	exec.Base
	schema    stream.Schema
	mu        sync.Mutex
	arrivals  []string
	demanded  bool
	ticksSeen int
}

func (s *speculator) Name() string                { return "speculator" }
func (s *speculator) InSchemas() []stream.Schema  { return []stream.Schema{s.schema} }
func (s *speculator) OutSchemas() []stream.Schema { return nil }

func (s *speculator) ProcessTuple(_ int, t stream.Tuple, _ exec.Context) error {
	s.mu.Lock()
	s.arrivals = append(s.arrivals, fmt.Sprintf("%s @%s rate=%.4f",
		t.At(0).AsString(), t.At(1).AsTime().UTC().Format("15:04:05"), t.At(2).AsFloat()))
	s.mu.Unlock()
	return nil
}

// ProcessPunct doubles as the speculator's clock: when the first window
// boundary passes without a result she can act on, she demands a partial.
func (s *speculator) ProcessPunct(_ int, e punct.Embedded, ctx exec.Context) error {
	s.ticksSeen++
	if !s.demanded && s.ticksSeen == 1 {
		s.demanded = true
		f := core.NewDemanded(punct.OnAttr(s.schema.Arity(), 0, punct.Eq(stream.String_("EUR/USD"))))
		fmt.Printf("speculator: margin of action expiring — sending %v\n", f)
		ctx.SendFeedback(0, f)
	}
	return nil
}

func main() {
	ticks := &gen.TickSource{Config: gen.TickConfig{
		Pairs:                 []string{"EUR/USD", "GBP/USD", "USD/JPY"},
		TicksPerPairPerSecond: 10,
		Duration:              90 * 1_000_000, // 90 s of stream time
		Seed:                  7,
	}}
	avg := &op.Aggregate{
		OpName: "avg-rate", In: gen.TickSchema, Kind: core.AggAvg,
		TsAttr: 1, ValAttr: 2, GroupBy: []int{0},
		Window: window.Tumbling(60_000_000), ValueName: "rate",
		Mode: op.FeedbackExploit,
	}
	spec := &speculator{schema: avg.OutSchemas()[0]}

	b := plan.New()
	b.Source(ticks).Through(avg).Into(spec)
	if err := b.Run(); err != nil {
		log.Fatal(err)
	}

	st := avg.Stats()
	fmt.Printf("partial results emitted on demand: %d\n", st.Partials)
	fmt.Println("\nresults in arrival order:")
	for _, a := range spec.arrivals {
		fmt.Println(" ", a)
	}
	fmt.Println("\nThe demanded partial for EUR/USD appears before the window's exact")
	fmt.Println("average — a partial answer in time beats a full answer too late.")
}
