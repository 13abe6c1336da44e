package experiments

import (
	"fmt"
	"io"

	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/stream"
)

// Zoom runs §3.3's event-driven feedback, the zoomed map viewer, and writes
// its report. The plan is Figure 7's (speedmapPlan under F3, one hour of
// traffic): source → σ-quality → AVERAGE → viewer. The viewer's user zooms
// into segments 3 and 4 for minutes 2–5, so before each of those minutes
// the viewer sends ¬[other segments, that minute, *] and σ-quality and
// AVERAGE skip readings nobody will see. Zooming back out needs no
// retraction: each pattern expires as wstart punctuation passes its minute
// (§4.4). The feedback never leaves the chain behind the source, so every
// count is exact.
func Zoom(w io.Writer) error {
	const from, to = 2, 5 // the zoomed minutes
	cfg := SpeedmapConfig{Scheme: F3, SwitchEveryMinutes: 1, Hours: 1}.withDefaults()
	var off []stream.Value
	for s := int64(0); s < mapSegments; s++ {
		if s != 3 && s != 4 {
			off = append(off, stream.Int(s))
		}
	}
	b := plan.New()
	h := speedmapPlan(b, cfg)
	h.view.hidden = func(minute int64) (punct.Pred, bool) {
		if minute < from || minute > to {
			return punct.Wild, false
		}
		return punct.OneOf(off...), true
	}
	if err := b.Compile().Run(); err != nil {
		return fmt.Errorf("zoom run: %w", err)
	}
	cells := int64(cfg.Hours) * 60 * mapSegments
	unseen := (to - from + 1) * int64(len(off))
	_, _, filtered := h.quality.Stats()
	fmt.Fprintf(w, "viewer: zoomed into segments 3-4 for minutes %d-%d, then out: %d assumed feedbacks ¬[%v, minute, *]\n",
		from, to, h.view.feedbacks, punct.OneOf(off...))
	fmt.Fprintf(w, "map cells rendered: %d of %d\n", h.view.results, cells)
	fmt.Fprintf(w, "σ-quality: %d readings suppressed before the filter cost\n", filtered)
	if h.view.feedbacks != to-from+1 || h.view.results != cells-unseen {
		fmt.Fprintf(w, "VIOLATION: want %d feedbacks and every cell but the %d off screen while zoomed\n", to-from+1, unseen)
		return nil
	}
	fmt.Fprintln(w, "After minute 5 each zoom pattern has expired with the stream's own")
	fmt.Fprintln(w, "punctuation: zooming out sends no retraction (§4.4).")
	return nil
}
