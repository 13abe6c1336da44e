package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/stream"
	"repro/internal/window"
)

// eurUSD is the speculator's demand over AVERAGE's output (pair, wstart,
// rate): EUR/USD's average now, whatever it is.
var eurUSD = core.NewDemanded(punct.OnAttr(3, 0, punct.Eq(stream.String_("EUR/USD"))))

// Demanded runs §3.4's demanded punctuation, the currency speculator, and
// writes its report. Ticks of three currency pairs over 90 s of stream time
// feed a one-minute AVERAGE per pair. The speculator's margin of action is
// seconds, not the minute a window takes to close: one second into the
// second minute it demands EUR/USD's average, and AVERAGE emits its partial
// at once while the exact average still appears when the window closes.
// core.CheckDemanded holds the run to the same plan without the demand.
func Demanded(w io.Writer) error {
	reference, err := runDemanded(false)
	if err != nil {
		return err
	}
	actual, err := runDemanded(true)
	if err != nil {
		return err
	}
	// A result whose (pair, wstart) arrives again later is a partial.
	last := map[string]int{}
	for i, t := range actual {
		last[t.Key([]int{0, 1})] = i
	}
	fmt.Fprintf(w, "speculator: one second into minute 1, demands %v\n", eurUSD)
	fmt.Fprintln(w, "results in arrival order:")
	for i, t := range actual {
		note := ""
		if last[t.Key([]int{0, 1})] != i {
			note = "  partial, on demand"
		}
		fmt.Fprintf(w, "  %s @%s rate=%.4f%s\n",
			t.At(0).AsString(), t.At(1).AsTime().UTC().Format("15:04:05"), t.At(2).AsFloat(), note)
	}
	rep := core.CheckDemanded(reference, actual, eurUSD)
	if !rep.OK() || rep.Partials == 0 {
		fmt.Fprintf(w, "VIOLATION: against the run without the demand, %d partials, %d exact results missing, %d extras outside the subset\n",
			rep.Partials, len(rep.Missing), len(rep.BadExtras))
		return nil
	}
	fmt.Fprintf(w, "core.CheckDemanded: every exact average of the run without the demand appears, and the %d extra is inside the demanded subset\n", rep.Partials)
	fmt.Fprintln(w, "A partial answer in time beats a full answer too late.")
	return nil
}

// runDemanded runs ticks → AVERAGE → speculator, compiled, and returns what
// reached the speculator, in arrival order.
func runDemanded(demand bool) ([]stream.Tuple, error) {
	avg := &op.Aggregate{
		OpName: "avg-rate", In: gen.TickSchema, Kind: core.AggAvg,
		TsAttr: 1, ValAttr: 2, GroupBy: []int{0},
		Window: window.Tumbling(60_000_000), ValueName: "rate",
		Mode: op.FeedbackExploit,
	}
	spec := &speculator{schema: avg.OutSchemas()[0], demand: demand}
	b := plan.New()
	b.Source(&gen.TickSource{Config: gen.TickConfig{
		Pairs:                 []string{"EUR/USD", "GBP/USD", "USD/JPY"},
		TicksPerPairPerSecond: 10,
		Duration:              90 * 1_000_000,
		Seed:                  7,
	}}).Through(avg).Into(spec)
	if err := b.Compile().Run(); err != nil {
		return nil, fmt.Errorf("demanded run: %w", err)
	}
	return spec.arrivals, nil
}

// speculator is the sink: it keeps what arrives and, if demand is set,
// sends eurUSD upstream.
//
//pace:stateless experiment harness sink; each run starts from scratch, restore is never exercised
type speculator struct {
	exec.Base
	schema   stream.Schema
	demand   bool
	puncts   int
	arrivals []stream.Tuple
}

func (s *speculator) Name() string                { return "speculator" }
func (s *speculator) InSchemas() []stream.Schema  { return []stream.Schema{s.schema} }
func (s *speculator) OutSchemas() []stream.Schema { return nil }

// ProcessTuple implements exec.Operator.
func (s *speculator) ProcessTuple(_ int, t stream.Tuple, _ exec.Context) error {
	s.arrivals = append(s.arrivals, t.Clone())
	return nil
}

// ProcessPunct implements exec.Operator; it is the speculator's clock.
// AVERAGE punctuates its output once a stream second from the close of the
// first minute on. The first punctuation follows that close, before any
// tick of the second minute is folded, so a demand then finds nothing to
// answer; the second follows the second minute's first second of ticks.
func (s *speculator) ProcessPunct(_ int, _ punct.Embedded, ctx exec.Context) error {
	if s.puncts++; s.demand && s.puncts == 2 {
		ctx.SendFeedback(0, eurUSD)
	}
	return nil
}
