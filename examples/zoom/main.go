// Zoom: event-driven feedback (§3.3) — the map viewport.
//
// A navigation display shows the speed map for one area at a time. When
// the user zooms into an area, the parts of the network that scrolled out
// of view need no processing: the display sends assumed feedback — a
// (segment-set, time-range) subset — through the plan, and the filter at
// the bottom stops paying for tuples nobody will see. Zooming back out
// needs no retraction: the feedback's temporal extent expires on its own
// as punctuation passes (§4.4), so the next period is processed in full
// unless the viewer re-asserts its zoom.
//
// Run with: go run ./examples/zoom
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
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/window"
)

const (
	minuteUS = int64(60_000_000)
	segments = 9
)

// display is the sink; zoom events arrive on a schedule keyed to stream
// progress (a real UI would key them to user input).
//
//pace:stateless example sink; its log exists only to be printed at the end of this demo run
type display struct {
	exec.Base
	schema stream.Schema
	// zooms maps a minute index to the set of segments visible from then
	// on; nil means fully zoomed out.
	zooms map[int64][]int64

	mu        sync.Mutex
	results   int64
	announced map[int64]bool
	seq       int64
}

func (d *display) Name() string                { return "display" }
func (d *display) InSchemas() []stream.Schema  { return []stream.Schema{d.schema} }
func (d *display) OutSchemas() []stream.Schema { return nil }

func (d *display) ProcessTuple(_ int, t stream.Tuple, _ exec.Context) error {
	d.mu.Lock()
	d.results++
	d.mu.Unlock()
	return nil
}

func (d *display) ProcessPunct(_ int, e punct.Embedded, ctx exec.Context) error {
	attr, now, ok := e.Pattern.Progress()
	if !ok || attr != 1 { // wstart
		return nil
	}
	minute := now/minuteUS + 1 // upcoming minute
	visible, ok := d.zooms[minute]
	if !ok || visible == nil || d.announced[minute] {
		return nil
	}
	d.announced[minute] = true
	// Hidden segments for the upcoming minute.
	hidden := make([]stream.Value, 0, segments)
	inView := map[int64]bool{}
	for _, s := range visible {
		inView[s] = true
	}
	for s := int64(0); s < segments; s++ {
		if !inView[s] {
			hidden = append(hidden, stream.Int(s))
		}
	}
	lo, hi := minute*minuteUS, (minute+1)*minuteUS-1
	pat := punct.NewPattern(
		punct.OneOf(hidden...),
		punct.Range(stream.TimeMicros(lo), stream.TimeMicros(hi)),
		punct.Wild,
	)
	d.seq++
	f := core.Feedback{Intent: core.Assumed, Pattern: pat, Origin: d.Name(), Seq: d.seq}
	fmt.Printf("display: zoom at minute %d → %v\n", minute, f)
	ctx.SendFeedback(0, f)
	return nil
}

func main() {
	src := &gen.TrafficSource{Config: gen.TrafficConfig{
		Segments:            segments,
		DetectorsPerSegment: 10,
		ReportPeriod:        20_000_000,
		Duration:            10 * minuteUS,
		Start:               8 * 3600 * 1_000_000, // 8am
		Noise:               2,
		Seed:                3,
		FeedbackAware:       true,
	}}
	quality := &op.Select{
		OpName: "quality", Schema: gen.TrafficSchema,
		Cond:      func(t stream.Tuple) bool { return !t.At(3).IsNull() },
		Cost:      50,
		Mode:      op.FeedbackExploit,
		Propagate: true,
	}
	avg := &op.Aggregate{
		OpName: "average", In: gen.TrafficSchema, Kind: core.AggAvg,
		TsAttr: 2, ValAttr: 3, GroupBy: []int{0},
		Window: window.Tumbling(minuteUS), ValueName: "avg_speed",
		Mode: op.FeedbackExploit, Propagate: true,
	}
	disp := &display{
		schema: avg.OutSchemas()[0],
		zooms: map[int64][]int64{
			// The user zooms into segments 3-4 for minutes 2-5 (stream
			// minutes relative to 8am), then zooms back out.
			2: {3, 4}, 3: {3, 4}, 4: {3, 4}, 5: {3, 4},
		},
		announced: map[int64]bool{},
	}
	// Zoom schedule is expressed in absolute stream minutes.
	absZooms := map[int64][]int64{}
	for m, v := range disp.zooms {
		absZooms[8*60+m] = v
	}
	disp.zooms = absZooms

	b := plan.New()
	b.Graph().SetQueueOptions(queue.Options{PageSize: 8, Depth: 2})
	b.Source(src).Through(quality).Through(avg).Into(disp)
	if err := b.Run(); err != nil {
		log.Fatal(err)
	}

	_, _, filtered := quality.Stats()
	as := avg.Stats()
	emitted, atSource := src.Stats()
	fmt.Printf("\nresults rendered: %d (of %d possible)\n", disp.results, 10*segments)
	fmt.Printf("quality filter: %d tuples suppressed before the filter cost\n", filtered)
	fmt.Printf("aggregate: %d folds avoided\n", as.InSuppressed)
	fmt.Printf("source: %d of %d reports suppressed before generation\n", atSource, emitted+atSource)
	fmt.Println("\nAfter minute 5 the zoom expires with the stream's own punctuation —")
	fmt.Println("no retraction message exists or is needed (§4.4).")
}
